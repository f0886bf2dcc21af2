"""Distribution helpers: CDFs, CCDFs, and robust summaries.

The paper reports nearly every result as a per-link CDF (Figs. 8-11,
16) or a CCDF on log axes (Figs. 14, 15); :class:`Cdf` is the common
currency the experiment harness passes around.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Cdf:
    """An empirical distribution with convenience accessors."""

    samples: np.ndarray

    def __post_init__(self) -> None:
        arr = np.sort(np.asarray(self.samples, dtype=np.float64))
        if arr.size == 0:
            raise ValueError("a CDF needs at least one sample")
        object.__setattr__(self, "samples", arr)

    def quantile(self, q: float) -> float:
        """The q-quantile (0 <= q <= 1)."""
        if not 0 <= q <= 1:
            raise ValueError(f"q must be in [0, 1], got {q}")
        return float(np.quantile(self.samples, q))

    def median(self) -> float:
        """The distribution median."""
        return self.quantile(0.5)


def median(samples) -> float:
    """Median of a sequence (errors on empty input)."""
    arr = np.asarray(list(samples), dtype=np.float64)
    if arr.size == 0:
        raise ValueError("median of empty sequence")
    return float(np.median(arr))


def geometric_mean(samples) -> float:
    """Geometric mean of positive samples.

    Used for summarising per-link throughput ratios, which span orders
    of magnitude (paper Fig. 12's log-log axes).
    """
    arr = np.asarray(list(samples), dtype=np.float64)
    if arr.size == 0:
        raise ValueError("geometric mean of empty sequence")
    if np.any(arr <= 0):
        raise ValueError("geometric mean requires positive values")
    return float(np.exp(np.mean(np.log(arr))))


#: two-sided 95% normal quantile
_Z95 = 1.96


def mean_ci(values) -> tuple[float, float]:
    """Sample mean and its 95% normal-approximation half-width.

    The half-width is ``1.96 * s / sqrt(n)`` with the ``ddof=1``
    sample deviation, and 0 for a single value.  With the three seeds
    per point the beyond-the-paper sweeps use, this is a coarse band —
    enough to ask whether an ordering survives seed noise, not a
    publication-grade interval.
    """
    arr = np.asarray(values, dtype=np.float64)
    half = (
        _Z95 * arr.std(ddof=1) / np.sqrt(arr.size)
        if arr.size > 1
        else 0.0
    )
    return float(arr.mean()), float(half)
