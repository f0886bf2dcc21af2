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
(:meth:`repro.link.SpracScheme.evaluate_traces`, which also charges
the layout's overhead), so this module defines only what that needs:
the coefficient matrix and the rank test
:meth:`SegmentedRlncCodec.recoverable_mask`.

Coefficient matrices are addressed, not transmitted: both ends derive
the same matrix from ``(0, "rlnc-coeffs", k, r)`` via the keyed
counter-based streams of :mod:`repro.utils.rng`.
"""

from __future__ import annotations

import numpy as np

from repro.coding.gf2 import gf2_coefficients, gf2_eliminate

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

    def recoverable_mask(
        self, data_ok: np.ndarray, repair_ok: np.ndarray
    ) -> np.ndarray:
        """Which data segments the surviving equations pin down.

        Trace post-processing knows segment *outcomes*, not wire
        bytes: intact data segments contribute unit vectors, intact
        repair segments their coefficient rows, and the elimination
        reports every uniquely-determined coordinate.

        ``data_ok``/``repair_ok`` are one ``(k,)``/``(r,)`` erasure
        pattern or a ``(P, k)``/``(P, r)`` stack of them; the answer
        has ``data_ok``'s shape.  Intact data segments are known, so
        each pattern's system is its surviving repair rows restricted
        to its erased columns (lost rows and intact columns zeroed): an
        erased segment is pinned down iff its unit vector lies in that
        row space.  Every pattern of the stack is resolved in one
        batched :func:`~repro.coding.gf2.gf2_eliminate` call.
        """
        data_ok = np.asarray(data_ok, dtype=bool)
        repair_ok = np.asarray(repair_ok, dtype=bool)
        if data_ok.ndim not in (1, 2) or data_ok.shape[-1] != self.n_segments:
            raise ValueError(
                f"data_ok must have shape ({self.n_segments},) or "
                f"(P, {self.n_segments})"
            )
        if repair_ok.shape != data_ok.shape[:-1] + (self.n_repair,):
            raise ValueError(
                f"repair_ok must have shape {data_ok.shape[:-1] + (self.n_repair,)}"
            )
        systems = (
            self.coefficients()
            & repair_ok[..., :, None]
            & ~data_ok[..., None, :]
        )
        return data_ok | gf2_eliminate(systems)
