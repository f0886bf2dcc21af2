"""Run statistics over boolean masks.

Used by the Fig. 14 reproduction: the lengths of contiguous SoftPHY
misses and their complementary CDF.
"""

from __future__ import annotations

from collections import Counter

import numpy as np


def run_lengths(mask) -> list[int]:
    """Lengths of maximal True runs, in order of appearance."""
    mask = np.asarray(mask, dtype=bool)
    if mask.size == 0 or not mask.any():
        return []
    padded = np.concatenate([[False], mask, [False]])
    change = np.flatnonzero(padded[1:] != padded[:-1])
    return [int(e - s) for s, e in zip(change[::2], change[1::2], strict=True)]


def ccdf_from_counts(counts: Counter) -> tuple[np.ndarray, np.ndarray]:
    """Complementary CDF (P[L >= x]) from a length histogram.

    Matches the paper's Fig. 14 axes: x = run length, y = fraction of
    runs at least that long.
    """
    if not counts:
        raise ValueError("no runs observed")
    lengths = np.array(sorted(counts), dtype=np.int64)
    freqs = np.array([counts[int(l)] for l in lengths], dtype=np.float64)
    total = freqs.sum()
    tail = np.cumsum(freqs[::-1])[::-1] / total
    return lengths, tail
