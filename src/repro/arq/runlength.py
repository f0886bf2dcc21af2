"""Run-length representation of a received packet (paper Eq. 2).

After decoding, the receiver has symbols S_i with hints φ_i; applying
the threshold rule labels each good or bad, and the packet becomes the
alternating run-length form λ_b1 λ_g1 λ_b2 λ_g2 ... λ_bL λ_gL (Fig. 6).
A packet may begin with good symbols (a *leading good run*, which PP-ARQ
never retransmits) and may end with either kind; the trailing good run
of the last bad run may therefore be zero.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

#: the SoftPHY threshold η of the paper's receivers (§7.2): a codeword
#: whose hint is at most η is labelled good
PAPER_ETA = 6.0


@dataclass(frozen=True)
class RunLengthPacket:
    """The Eq. 2 representation: interleaved bad/good run lengths.

    ``bad[k]`` is λ_b(k+1); ``good[k]`` is λ_g(k+1), the good run
    *following* bad run k (zero only allowed for the final one).
    ``leading_good`` counts symbols before the first bad run.
    """

    n_symbols: int
    leading_good: int
    bad: tuple[int, ...]
    good: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.bad) != len(self.good):
            raise ValueError(
                f"bad ({len(self.bad)}) and good ({len(self.good)}) run "
                "counts must match"
            )
        if any(b <= 0 for b in self.bad):
            raise ValueError("bad run lengths must be positive")
        if any(g < 0 for g in self.good):
            raise ValueError("good run lengths must be non-negative")
        if any(g == 0 for g in self.good[:-1]):
            raise ValueError(
                "only the final good run may be zero-length"
            )
        total = self.leading_good + sum(self.bad) + sum(self.good)
        if total != self.n_symbols:
            raise ValueError(
                f"runs sum to {total} but packet has {self.n_symbols} "
                "symbols"
            )

    @classmethod
    def from_labels(cls, good_mask: np.ndarray) -> "RunLengthPacket":
        """Build the representation from a per-symbol good/bad mask."""
        mask = np.asarray(good_mask, dtype=bool)
        n = mask.size
        if n == 0:
            return cls(n_symbols=0, leading_good=0, bad=(), good=())
        # Boundaries where the label changes.
        change = np.flatnonzero(mask[1:] != mask[:-1]) + 1
        starts = np.concatenate([[0], change])
        ends = np.concatenate([change, [n]])
        leading_good = 0
        bad: list[int] = []
        good: list[int] = []
        for start, end in zip(starts, ends, strict=True):
            length = int(end - start)
            if mask[start]:
                if not bad:
                    leading_good = length
                else:
                    good.append(length)
            else:
                if bad and len(good) < len(bad):
                    # Two adjacent bad runs cannot occur (runs are
                    # maximal), but keep the invariant explicit.
                    good.append(0)
                bad.append(length)
        if len(good) < len(bad):
            good.append(0)
        return cls(
            n_symbols=n,
            leading_good=leading_good,
            bad=tuple(bad),
            good=tuple(good),
        )

    @classmethod
    def from_hints(
        cls, hints: np.ndarray, eta: float
    ) -> "RunLengthPacket":
        """Label by the threshold rule (hint <= η is good) and build."""
        hints = np.asarray(hints, dtype=np.float64)
        return cls.from_labels(hints <= eta)

    # -- derived geometry ----------------------------------------------------

    @property
    def n_bad_runs(self) -> int:
        """The paper's L."""
        return len(self.bad)

    @property
    def n_bad_symbols(self) -> int:
        """Total symbols labelled bad."""
        return sum(self.bad)

    @property
    def all_good(self) -> bool:
        """True when nothing needs retransmission."""
        return not self.bad

    def bad_run_start(self, k: int) -> int:
        """Symbol index where bad run ``k`` (0-based) begins."""
        if not 0 <= k < len(self.bad):
            raise IndexError(f"bad run index {k} out of range")
        pos = self.leading_good
        for i in range(k):
            pos += self.bad[i] + self.good[i]
        return pos

    def chunk_span(self, i: int, j: int) -> tuple[int, int]:
        """Symbol range [start, end) of chunk c_{i,j} (paper Eq. 3).

        The chunk starts at bad run ``i`` and ends with bad run ``j``
        (inclusive, 0-based), *excluding* the good run after ``j``.
        """
        if not 0 <= i <= j < len(self.bad):
            raise IndexError(f"invalid chunk indices ({i}, {j})")
        start = self.bad_run_start(i)
        end = self.bad_run_start(j) + self.bad[j]
        return start, end
