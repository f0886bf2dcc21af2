"""Tests for the PP-ARQ chunking DP (paper Eqs. 4-5).

The DP is checked against a brute-force enumeration of every partition
of the bad runs into consecutive groups, evaluating the paper's cost
model directly — the strongest possible correctness check for the
optimal-substructure recursion.
"""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.arq.chunking import (
    chunk_cost_naive,
    merged_single_chunk_cost,
    plan_chunks,
)
from repro.arq.runlength import RunLengthPacket
from repro.utils.rng import ensure_rng


def _partition_cost(runs, groups, checksum_bits):
    """Cost of an explicit partition, straight from Eqs. 4-5."""
    log_syms = math.log2(max(runs.n_symbols, 2))
    total = 0.0
    for i, j in groups:
        if i == j:
            total += (
                log_syms
                + math.log2(max(runs.bad[i], 2))
                + min(4 * runs.good[i], checksum_bits)
            )
        else:
            total += 2 * log_syms + 4 * sum(runs.good[i:j])
    return total


def _all_partitions(n):
    """Every partition of 0..n-1 into consecutive groups."""
    if n == 0:
        yield []
        return
    for cut_mask in itertools.product([0, 1], repeat=n - 1):
        groups = []
        start = 0
        for k, cut in enumerate(cut_mask):
            if cut:
                groups.append((start, k))
                start = k + 1
        groups.append((start, n - 1))
        yield groups


def _good_mask(runs):
    """The per-symbol good/bad mask a run-length packet encodes."""
    mask = np.ones(runs.n_symbols, dtype=bool)
    pos = runs.leading_good
    for bad, good in zip(runs.bad, runs.good, strict=True):
        mask[pos : pos + bad] = False
        pos += bad + good
    return mask


def _random_runs(rng, n_bad_runs, n_symbols=256):
    """A random RunLengthPacket with the requested number of bad runs."""
    while True:
        mask = np.ones(n_symbols, dtype=bool)
        starts = sorted(
            rng.choice(n_symbols - 10, size=n_bad_runs, replace=False)
        )
        for s in starts:
            length = int(rng.integers(1, 5))
            mask[s : s + length] = False
        runs = RunLengthPacket.from_labels(mask)
        if runs.n_bad_runs == n_bad_runs:
            return runs


class TestAgainstBruteForce:
    @pytest.mark.parametrize("n_bad", [1, 2, 3, 4, 5, 6])
    def test_dp_matches_exhaustive_search(self, rng, n_bad):
        for _ in range(10):
            runs = _random_runs(rng, n_bad)
            plan = plan_chunks(runs, checksum_bits=8)
            best = min(
                _partition_cost(runs, groups, 8)
                for groups in _all_partitions(n_bad)
            )
            assert plan.cost_bits == pytest.approx(best)

    def test_reconstructed_chunks_cost_matches(self, rng):
        runs = _random_runs(rng, 5)
        plan = plan_chunks(runs, checksum_bits=8)
        assert _partition_cost(
            runs, list(plan.chunks), 8
        ) == pytest.approx(plan.cost_bits)


class TestPlanStructure:
    def test_all_good_plan_empty(self):
        runs = RunLengthPacket.from_labels(np.ones(50, dtype=bool))
        plan = plan_chunks(runs)
        assert plan.chunks == () and plan.cost_bits == 0.0

    def test_segments_cover_every_bad_symbol(self, rng):
        runs = _random_runs(rng, 6)
        plan = plan_chunks(runs)
        covered = np.zeros(runs.n_symbols, dtype=bool)
        for start, end in plan.segments:
            covered[start:end] = True
        assert np.all(covered[~_good_mask(runs)])

    def test_segments_sorted_disjoint(self, rng):
        runs = _random_runs(rng, 6)
        plan = plan_chunks(runs)
        for (_s1, e1), (s2, _e2) in zip(plan.segments, plan.segments[1:], strict=False):
            assert e1 <= s2

    def test_segments_start_end_with_bad_runs(self, rng):
        runs = _random_runs(rng, 5)
        good = _good_mask(runs)
        plan = plan_chunks(runs)
        for start, end in plan.segments:
            assert not good[start]
            assert not good[end - 1]

    def test_short_good_runs_get_merged(self):
        # Two bad runs separated by one good symbol: describing two
        # chunks costs more than resending one good symbol.
        mask = np.ones(1024, dtype=bool)
        mask[100:110] = False
        mask[111:120] = False
        runs = RunLengthPacket.from_labels(mask)
        plan = plan_chunks(runs, checksum_bits=32)
        assert plan.chunks == ((0, 1),)
        assert plan.segments == ((100, 120),)

    def test_long_good_runs_stay_split(self):
        mask = np.ones(1024, dtype=bool)
        mask[100:110] = False
        mask[500:510] = False
        runs = RunLengthPacket.from_labels(mask)
        plan = plan_chunks(runs, checksum_bits=32)
        assert plan.chunks == ((0, 0), (1, 1))

    def test_requested_symbols_counted(self):
        mask = np.ones(64, dtype=bool)
        mask[10:20] = False
        runs = RunLengthPacket.from_labels(mask)
        plan = plan_chunks(runs)
        assert sum(end - start for start, end in plan.segments) == 10

    def test_invalid_checksum_bits(self):
        runs = RunLengthPacket.from_labels(np.zeros(4, dtype=bool))
        with pytest.raises(ValueError):
            plan_chunks(runs, checksum_bits=0)


class TestCostBounds:
    @given(st.integers(1, 7), st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_dp_no_worse_than_either_extreme(self, n_bad, seed):
        rng = ensure_rng(seed)
        runs = _random_runs(rng, n_bad)
        plan = plan_chunks(runs, checksum_bits=8)
        assert plan.cost_bits <= chunk_cost_naive(runs, 8) + 1e-9
        assert (
            plan.cost_bits <= merged_single_chunk_cost(runs, 8) + 1e-9
        )

    def test_naive_cost_zero_when_clean(self):
        runs = RunLengthPacket.from_labels(np.ones(10, dtype=bool))
        assert chunk_cost_naive(runs) == 0.0
        assert merged_single_chunk_cost(runs) == 0.0


class TestLargeRunReconstruction:
    def test_many_bad_runs_no_recursion_limit(self):
        """Packets with hundreds of bad runs used to blow Python's
        recursion limit during chunk reconstruction (one frame per
        split).  The iterative unfold must survive a split chain far
        deeper than any recursion budget."""
        import sys

        n_bad = 300
        mask = np.ones(n_bad * 40, dtype=bool)
        mask[::40] = False  # singleton bad runs, huge good gaps
        runs = RunLengthPacket.from_labels(mask)
        assert runs.n_bad_runs == n_bad

        frame, depth = sys._getframe(), 0
        while frame is not None:
            depth += 1
            frame = frame.f_back
        limit = sys.getrecursionlimit()
        try:
            # Tight budget above the frames already on the stack: a
            # per-split recursive reconstruction would need ~n_bad
            # more frames and die here.
            sys.setrecursionlimit(depth + 60)
            plan = plan_chunks(runs, checksum_bits=8)
        finally:
            sys.setrecursionlimit(limit)
        # Huge interior good runs make merging hopeless: every bad run
        # stays its own chunk, the worst case for reconstruction depth.
        assert len(plan.chunks) == n_bad
        assert plan.chunks[0] == (0, 0)
        assert plan.chunks[-1] == (n_bad - 1, n_bad - 1)
        assert sum(end - start for start, end in plan.segments) == n_bad
