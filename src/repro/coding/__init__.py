"""Network-coded partial packet recovery (S-PRAC-style, PAPERS.md).

The paper's PP-ARQ retransmits the raw symbols of every bad run.  The
S-PRAC line of work shows that in very noisy channels it is far more
efficient to (a) segment the packet and CRC-protect each segment, and
(b) repair losses with *random linear network coding*: any sufficient
subset of coded repair blocks recovers all erased segments, so no
individual repair transmission is precious.

This package provides the two layers of that idea (the per-trace
delivery scheme built on them is :class:`repro.link.SpracScheme`):

* :mod:`repro.coding.gf2` — vectorized GF(2) linear algebra (XOR
  combining on bit-packed uint64 words), each kernel with its loop
  ``*_reference`` retained as an executable specification.
* :mod:`repro.coding.rlnc` — the segmented-RLNC codec: payload ->
  CRC-protected segments plus coded repair segments.
"""

from repro.coding.gf2 import (
    gf2_coefficients,
    gf2_eliminate,
    gf2_encode,
    pack_bytes_to_words,
    unpack_words_to_bytes,
)
from repro.coding.rlnc import RlncDecodeResult, SegmentedRlncCodec

__all__ = [
    "RlncDecodeResult",
    "SegmentedRlncCodec",
    "gf2_coefficients",
    "gf2_eliminate",
    "gf2_encode",
    "pack_bytes_to_words",
    "unpack_words_to_bytes",
]
