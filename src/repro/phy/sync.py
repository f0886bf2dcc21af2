"""Frame synchronisation: preamble and postamble detection (paper §4).

The preamble follows 802.15.4: eight zero symbols then the start-frame
delimiter 0xA7.  PPR appends a *postamble* — a distinct well-known
sequence (eight 15-symbols then the end-frame delimiter 0x7A) — so a
receiver that missed the preamble can lock late and roll back through
its sample buffer (the Fig. 5 scenario).

:class:`CorrelationSynchronizer` detects sync fields by normalised
correlation in the chip domain; :class:`RollbackBuffer` is the circular
sample store that makes rolling back possible.
"""

from __future__ import annotations

import numpy as np

from repro.phy.codebook import Codebook
from repro.phy.fftcorr import FftCorrelator

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


class CorrelationSynchronizer:
    """Sliding normalised correlation against a known chip pattern.

    Works on soft chips (matched-filter outputs) or hard chips mapped
    to ±1.  A detection is an offset where the normalised correlation
    exceeds ``threshold`` and is the local maximum within one pattern
    length (non-maximum suppression), mirroring a hardware correlator's
    peak detector.
    """

    def __init__(
        self,
        codebook: Codebook,
        kind: str,
        threshold: float = 0.75,
    ) -> None:
        if not 0 < threshold <= 1:
            raise ValueError(f"threshold must be in (0, 1], got {threshold}")
        self._codebook = codebook
        self._kind = kind
        self._threshold = float(threshold)
        chips = codebook.encode(sync_field_symbols(kind))
        self._pattern = chips.astype(np.float64) * 2.0 - 1.0
        self._pattern_norm = float(np.linalg.norm(self._pattern))
        self._correlator = FftCorrelator(self._pattern)

    @property
    def kind(self) -> str:
        """Which sync field this correlator matches."""
        return self._kind

    @property
    def pattern_chips(self) -> int:
        """Length of the sync pattern in chips."""
        return self._pattern.size

    @property
    def threshold(self) -> float:
        """Detection threshold on normalised correlation."""
        return self._threshold

    def _prepare(
        self, chips: np.ndarray, hard: bool | None
    ) -> np.ndarray:
        """Map chips to the ±1 domain the pattern lives in.

        ``hard=None`` infers from the dtype: integer/bool arrays are
        hard 0/1 chips (mapped to ±1), floating arrays are soft
        matched-filter outputs used as-is.  The old value-range
        heuristic (``min() >= 0 and max() <= 1``) silently remapped
        genuine soft chips that happened to land in [0, 1]; pass
        ``hard`` explicitly to override the dtype inference.
        """
        chips = np.asarray(chips)
        if hard is None:
            hard = chips.dtype.kind in "bui"
        chips = chips.astype(np.float64, copy=False)
        if hard:
            if chips.size and not ((chips == 0) | (chips == 1)).all():
                raise ValueError("hard chips must be 0/1")
            chips = chips * 2.0 - 1.0
        return chips

    def correlate(
        self, chips: np.ndarray, hard: bool | None = None
    ) -> np.ndarray:
        """Normalised correlation at every alignment (valid mode).

        ``chips`` may be hard 0/1 chips (integer dtype, mapped to ±1)
        or soft ±1-ish matched-filter outputs (floating dtype, used
        as-is); pass ``hard`` to override the dtype inference.  Output
        values lie in [-1, 1].
        """
        chips = np.asarray(chips)
        if chips.ndim != 1:
            raise ValueError(
                f"chips must be 1-D (use correlate_many for stacked "
                f"captures), got shape {chips.shape}"
            )
        return self.correlate_many(chips[None, :], hard)[0]

    def correlate_many(
        self, chips: np.ndarray, hard: bool | None = None
    ) -> np.ndarray:
        """Row-wise normalised correlation over many equal-length
        captures at once: ``(n_captures, n_chips)`` in,
        ``(n_captures, n_offsets)`` out.

        The raw correlation is one FFT product over the whole batch
        (:class:`~repro.phy.fftcorr.FftCorrelator`) instead of one
        ``np.correlate`` per capture.  Each row is bit-identical to
        :meth:`correlate` on that row alone (pocketfft transforms rows
        independently); against the time-domain loop spec
        :meth:`correlate_reference` the FFT reassociation shifts the
        last few ulps, so the equivalence suite pins that pair at
        1e-12 rather than bit-for-bit.
        """
        chips = np.asarray(chips)
        if chips.ndim != 2:
            raise ValueError(
                f"chips must be 2-D (n_captures, n_chips), got "
                f"shape {chips.shape}"
            )
        chips = self._prepare(chips, hard)
        psize = self._pattern.size
        if chips.shape[1] < psize:
            return np.zeros((chips.shape[0], 0), dtype=np.float64)
        raw = self._correlator.correlate_rows(chips)
        # Windowed energy of the received chips for normalisation.
        sq = np.concatenate(
            [
                np.zeros((chips.shape[0], 1)),
                np.cumsum(chips**2, axis=1),
            ],
            axis=1,
        )
        win = sq[:, psize:] - sq[:, :-psize]
        denom = np.sqrt(win) * self._pattern_norm
        with np.errstate(divide="ignore", invalid="ignore"):
            corr = np.where(denom > 0, raw / denom, 0.0)
        return corr

    def correlate_reference(
        self, chips: np.ndarray, hard: bool | None = None
    ) -> np.ndarray:
        """Per-offset loop implementation, kept as the executable spec
        for :meth:`correlate`: a scalar running energy sum plays the
        cumulative-energy trick's role, one dot product per alignment.
        The FFT fast path reassociates these sums, so the equivalence
        suite pins the pair at 1e-12 (the batch path itself stays
        bit-identical across batch shapes)."""
        chips = self._prepare(np.asarray(chips), hard)
        psize = self._pattern.size
        n = chips.size
        if n < psize:
            return np.zeros(0, dtype=np.float64)
        sq = np.empty(n + 1, dtype=np.float64)
        sq[0] = 0.0
        acc = 0.0
        for i in range(n):
            acc += chips[i] * chips[i]
            sq[i + 1] = acc
        out = np.empty(n - psize + 1, dtype=np.float64)
        for i in range(out.size):
            raw = np.dot(chips[i : i + psize], self._pattern)
            denom = np.sqrt(sq[i + psize] - sq[i]) * self._pattern_norm
            out[i] = raw / denom if denom > 0 else 0.0
        return out

    def detect(
        self, chips: np.ndarray, hard: bool | None = None
    ) -> list[int]:
        """Chip offsets where the sync pattern is detected."""
        corr = self.correlate(chips, hard)
        return peak_offsets(corr, self._threshold, self._pattern.size)


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
    def capacity(self) -> int:
        """Maximum number of retained samples."""
        return self._capacity

    @property
    def total_written(self) -> int:
        """Absolute count of samples ever appended."""
        return self._written

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

    def get_last(self, count: int) -> np.ndarray:
        """The most recent ``count`` samples."""
        return self.get_range(self._written - count, count)
