"""Segmented random-linear-network-coding layout (S-PRAC, PAPERS.md).

The scheme protects a payload twice over:

* the payload is cut into ``k`` nearly-equal **data segments**, each
  followed by its own CRC-32 (exactly the fragmented-CRC baseline's
  per-fragment protection), and
* ``r`` **repair segments** follow — random linear combinations of
  the (zero-padded) data segments over GF(2), each with its own
  CRC-32 and as long as the largest data segment.

A receiver keeps every segment whose CRC verifies.  Erased data
segments are unknowns in a linear system whose equations are the
intact data segments (unit vectors) and the intact repair segments
(their coefficient rows); a segment is recovered iff the surviving
equations pin it down.  *Any* sufficient subset of repair segments
works — no individual loss has to be repaired by name, which is what
makes coded repair efficient in very noisy channels.

The scheme is scored on recorded traces
(:meth:`repro.link.SpracScheme.evaluate_traces`), so this module
defines only what that needs: the wire length the layout costs
(``seg_1 crc_1 ... seg_k crc_k rep_1 crc_1 ... rep_r crc_r``, no
header), the repair segment size that sets the repair windows, and
the rank test :meth:`SegmentedRlncCodec.recoverable_mask`.

Coefficient matrices are addressed, not transmitted: both ends derive
the same matrix from ``(0, "rlnc-coeffs", k, r)`` via the keyed
counter-based streams of :mod:`repro.utils.rng`.
"""

from __future__ import annotations

import numpy as np

from repro.coding.gf2 import gf2_coefficients, gf2_eliminate

_CRC_BYTES = 4

# Seed of the coefficient stream: every codec of a given (k, r) draws
# the same matrix, so sender and receiver agree without a handshake.
_COEFF_SEED = 0


class SegmentedRlncCodec:
    """The segmented-RLNC layout and its rank test.

    ``n_segments`` (k) data segments, ``n_repair`` (r) coded repair
    segments, combined over GF(2).
    """

    def __init__(
        self,
        n_segments: int,
        n_repair: int,
    ) -> None:
        if n_segments < 1:
            raise ValueError(
                f"n_segments must be >= 1, got {n_segments}"
            )
        if n_repair < 1:
            raise ValueError(f"n_repair must be >= 1, got {n_repair}")
        if n_segments > 255 or n_repair > 255:
            raise ValueError(
                "segment and repair counts must fit in one byte"
            )
        self.n_segments = int(n_segments)
        self.n_repair = int(n_repair)
        self._coefficients: np.ndarray | None = None
        # recoverable_mask results keyed by the packed erasure pattern
        self._recoverable: dict[bytes, np.ndarray] = {}

    def __repr__(self) -> str:
        return (
            f"SegmentedRlncCodec(n_segments={self.n_segments}, "
            f"n_repair={self.n_repair})"
        )

    # -- layout --------------------------------------------------------------

    def coefficients(self) -> np.ndarray:
        """The keyed ``(r, k)`` coefficient matrix of this codec.

        Drawn once per codec and returned read-only thereafter.
        """
        if self._coefficients is None:
            coeffs = gf2_coefficients(
                _COEFF_SEED,
                "rlnc-coeffs",
                self.n_segments,
                self.n_repair,
                shape=(self.n_repair, self.n_segments),
            )
            coeffs.flags.writeable = False
            self._coefficients = coeffs
        return self._coefficients

    def repair_size(self, payload_len: int) -> int:
        """Bytes per repair segment (the largest data segment)."""
        return -(-payload_len // self.n_segments)

    def wire_length(self, payload_len: int) -> int:
        """Total encoded bytes for a payload."""
        return (
            payload_len
            + _CRC_BYTES * self.n_segments
            + (self.repair_size(payload_len) + _CRC_BYTES) * self.n_repair
        )

    def recoverable_mask(
        self, data_ok: np.ndarray, repair_ok: np.ndarray
    ) -> np.ndarray:
        """Which data segments the surviving equations pin down.

        Trace post-processing knows segment *outcomes*, not wire
        bytes: intact data segments contribute unit vectors, intact
        repair segments their coefficient rows, and the elimination
        reports every uniquely-determined coordinate.

        Intact data segments are known, so only the erased columns of
        the surviving repair rows are eliminated: an erased segment is
        pinned down by the whole system iff its unit vector lies in
        the row space of those columns.  The answer depends only on
        the erasure pattern, so it is memoised per codec and returned
        as a read-only array.
        """
        data_ok = np.asarray(data_ok, dtype=bool)
        repair_ok = np.asarray(repair_ok, dtype=bool)
        if data_ok.shape != (self.n_segments,):
            raise ValueError(
                f"data_ok must have shape ({self.n_segments},)"
            )
        if repair_ok.shape != (self.n_repair,):
            raise ValueError(
                f"repair_ok must have shape ({self.n_repair},)"
            )
        key = np.packbits(np.concatenate([data_ok, repair_ok])).tobytes()
        recovered = self._recoverable.get(key)
        if recovered is None:
            recovered = data_ok.copy()
            erased = ~data_ok
            if erased.any():
                coeffs = self.coefficients()[repair_ok][:, erased]
                recovered[erased] = gf2_eliminate(coeffs)
            recovered.flags.writeable = False
            self._recoverable[key] = recovered
        return recovered
