"""Network-coded partial packet recovery (S-PRAC-style, PAPERS.md).

The paper's PP-ARQ retransmits the raw symbols of every bad run.  The
S-PRAC line of work shows that in very noisy channels it is far more
efficient to (a) segment the packet and CRC-protect each segment, and
(b) repair losses with *random linear network coding*: any sufficient
subset of coded repair blocks recovers all erased segments, so no
individual repair transmission is precious.

The scheme is scored on recorded traces
(:class:`repro.link.SpracScheme`), which needs only which segments the
surviving equations pin down, not the bytes they carry:

* :mod:`repro.coding.gf2` — keyed coefficient matrices and vectorized
  GF(2) elimination on bit-packed uint64 words, with its loop
  ``gf2_eliminate_reference`` retained as an executable specification.
* :mod:`repro.coding.rlnc` — the segmented-RLNC layout's coefficient
  matrix and its rank test ``recoverable_mask``.
"""

from repro.coding.gf2 import gf2_coefficients, gf2_eliminate
from repro.coding.rlnc import SegmentedRlncCodec

__all__ = [
    "SegmentedRlncCodec",
    "gf2_coefficients",
    "gf2_eliminate",
]
