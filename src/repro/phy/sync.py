"""Frame synchronisation: preamble and postamble detection (paper §4).

The preamble follows 802.15.4: eight zero symbols then the start-frame
delimiter 0xA7.  PPR appends a *postamble* — a distinct well-known
sequence (eight 15-symbols then the end-frame delimiter 0x7A) — so a
receiver that missed the preamble can lock late and roll back through
its sample buffer (the Fig. 5 scenario).

This module holds the sync field definitions, the peak detector
:func:`peak_offsets` and :class:`RollbackBuffer`, the circular sample
store that makes rolling back possible.  There is one sync correlator:
:class:`~repro.phy.frontend.ReceiverFrontend` correlates captures
against the modulated sync waveforms in the sample domain.
"""

from __future__ import annotations

import numpy as np

# 802.15.4 SHR: 8 zero symbols, then SFD byte 0xA7 (low nibble first).
PREAMBLE_SYMBOLS = tuple([0] * 8)
SFD_SYMBOLS = (7, 10)
# PPR postamble: mirrored structure, distinct content (§4: "a well-known
# sequence ... that uniquely identifies it as the postamble").
POSTAMBLE_SYMBOLS = tuple([15] * 8)
EFD_SYMBOLS = (10, 7)
# Symbols in either sync field, delimiter included; the postamble
# mirrors the preamble's length.
SYNC_SYMBOLS = len(PREAMBLE_SYMBOLS + SFD_SYMBOLS)
# The largest chip error rate at which a sync field is detectable:
# beyond 0.5 a correlator cannot distinguish signal from noise.
SYNC_ERROR_THRESHOLD = 0.25


def sync_field_symbols(kind: str) -> np.ndarray:
    """Symbol sequence of a sync field: ``"preamble"`` or ``"postamble"``.

    The returned sequence includes the delimiter (SFD / EFD).
    """
    if kind == "preamble":
        return np.array(PREAMBLE_SYMBOLS + SFD_SYMBOLS, dtype=np.int64)
    if kind == "postamble":
        return np.array(POSTAMBLE_SYMBOLS + EFD_SYMBOLS, dtype=np.int64)
    raise ValueError(f"kind must be 'preamble' or 'postamble', got {kind!r}")


def peak_offsets(
    corr: np.ndarray, threshold: float, min_gap: int
) -> list[int]:
    """Non-maximum suppression over a correlation trace.

    Above-threshold offsets are grouped wherever consecutive indices
    are at most ``min_gap`` apart (``np.split`` on the gap boundaries
    — no per-index Python walk); each group contributes the offset of
    its correlation maximum, mirroring a hardware correlator's peak
    detector.
    """
    above = np.flatnonzero(corr >= threshold)
    if above.size == 0:
        return []
    boundaries = np.flatnonzero(np.diff(above) > min_gap) + 1
    return [
        int(group[0] + corr[group[0] : group[-1] + 1].argmax())
        for group in np.split(above, boundaries)
    ]


class RollbackBuffer:
    """Fixed-capacity circular buffer of received samples (paper §4).

    The receiver appends every incoming sample; on postamble detection
    it retrieves a window *backwards in time* by absolute sample index.
    Capacity should cover one maximally-sized packet, matching the
    paper's implementation.
    """

    def __init__(self, capacity: int) -> None:
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self._capacity = int(capacity)
        self._buf = np.zeros(self._capacity, dtype=np.complex128)
        self._written = 0

    @property
    def oldest_available(self) -> int:
        """Absolute index of the oldest sample still retained."""
        return max(0, self._written - self._capacity)

    def append(self, samples: np.ndarray) -> None:
        """Append samples, evicting the oldest beyond capacity."""
        samples = np.asarray(samples, dtype=np.complex128)
        n = samples.size
        if n >= self._capacity:
            # Keep only the tail, placed so that absolute index i still
            # lives at buffer position i % capacity.
            tail_abs_start = self._written + n - self._capacity
            positions = (
                tail_abs_start + np.arange(self._capacity)
            ) % self._capacity
            self._buf[positions] = samples[n - self._capacity :]
            self._written += n
            return
        pos = self._written % self._capacity
        first = min(n, self._capacity - pos)
        self._buf[pos : pos + first] = samples[:first]
        if first < n:
            self._buf[: n - first] = samples[first:]
        self._written += n

    def get_range(self, abs_start: int, count: int) -> np.ndarray:
        """Samples ``[abs_start, abs_start + count)`` by absolute index.

        Raises ``ValueError`` if any requested sample has been evicted
        or not yet written — rollback must never fabricate data.
        """
        if count < 0:
            raise ValueError(f"count must be non-negative, got {count}")
        if abs_start < self.oldest_available:
            raise ValueError(
                f"samples from {abs_start} already evicted (oldest "
                f"available: {self.oldest_available})"
            )
        if abs_start + count > self._written:
            raise ValueError(
                f"samples up to {abs_start + count} not yet written "
                f"(have {self._written})"
            )
        # A retained range spans at most one wrap point, so it is at
        # most two contiguous slices — no per-sample fancy index.
        pos = abs_start % self._capacity
        first = min(count, self._capacity - pos)
        if first == count:
            return self._buf[pos : pos + count].copy()
        return np.concatenate(
            [self._buf[pos:], self._buf[: count - first]]
        )
