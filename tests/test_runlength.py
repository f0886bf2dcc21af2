"""Tests for the run-length representation (paper Eq. 2)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.arq.runlength import RunLengthPacket


class TestFromLabels:
    def test_paper_form(self):
        # bad(2) good(3) bad(1) good(4)
        mask = np.array([0, 0, 1, 1, 1, 0, 1, 1, 1, 1], dtype=bool)
        runs = RunLengthPacket.from_labels(mask)
        assert runs.leading_good == 0
        assert runs.bad == (2, 1)
        assert runs.good == (3, 4)

    def test_leading_good_run(self):
        mask = np.array([1, 1, 0, 0, 1], dtype=bool)
        runs = RunLengthPacket.from_labels(mask)
        assert runs.leading_good == 2
        assert runs.bad == (2,)
        assert runs.good == (1,)

    def test_trailing_bad_run(self):
        mask = np.array([1, 0, 0], dtype=bool)
        runs = RunLengthPacket.from_labels(mask)
        assert runs.bad == (2,)
        assert runs.good == (0,)

    def test_all_good(self):
        runs = RunLengthPacket.from_labels(np.ones(5, dtype=bool))
        assert runs.all_good
        assert runs.leading_good == 5
        assert runs.n_bad_runs == 0

    def test_all_bad(self):
        runs = RunLengthPacket.from_labels(np.zeros(5, dtype=bool))
        assert runs.bad == (5,)
        assert runs.good == (0,)
        assert runs.n_bad_symbols == 5

    def test_alternating(self):
        mask = np.array([0, 1, 0, 1, 0], dtype=bool)
        runs = RunLengthPacket.from_labels(mask)
        assert runs.bad == (1, 1, 1)
        assert runs.good == (1, 1, 0)

    def test_empty(self):
        runs = RunLengthPacket.from_labels(np.zeros(0, dtype=bool))
        assert runs.n_symbols == 0 and runs.all_good

    def test_from_hints_threshold(self):
        hints = np.array([0.0, 7.0, 6.0, 8.0])
        runs = RunLengthPacket.from_hints(hints, eta=6)
        assert runs.leading_good == 1
        assert runs.bad == (1,) + (1,)
        assert runs.good == (1, 0)


class TestGeometry:
    def test_bad_run_start(self):
        mask = np.array([1, 1, 0, 0, 1, 1, 1, 0, 1], dtype=bool)
        runs = RunLengthPacket.from_labels(mask)
        assert runs.bad_run_start(0) == 2
        assert runs.bad_run_start(1) == 7

    def test_bad_run_start_out_of_range(self):
        runs = RunLengthPacket.from_labels(np.array([0], dtype=bool))
        with pytest.raises(IndexError):
            runs.bad_run_start(1)

    def test_chunk_span_single(self):
        mask = np.array([1, 0, 0, 1, 1, 0, 1], dtype=bool)
        runs = RunLengthPacket.from_labels(mask)
        assert runs.chunk_span(0, 0) == (1, 3)
        assert runs.chunk_span(1, 1) == (5, 6)

    def test_chunk_span_merged_includes_interior_good(self):
        mask = np.array([1, 0, 0, 1, 1, 0, 1], dtype=bool)
        runs = RunLengthPacket.from_labels(mask)
        assert runs.chunk_span(0, 1) == (1, 6)

    def test_chunk_span_invalid(self):
        runs = RunLengthPacket.from_labels(np.array([0], dtype=bool))
        with pytest.raises(IndexError):
            runs.chunk_span(0, 1)

    def test_runs_reconstruction(self):
        mask = np.array([1, 0, 1, 1, 0, 0, 1, 0], dtype=bool)
        runs = RunLengthPacket.from_labels(mask)
        assert runs.leading_good == 1
        assert runs.bad == (1, 2, 1) and runs.good == (2, 1, 0)
        assert np.array_equal(_good_mask(runs), mask)


class TestValidation:
    def test_zero_interior_good_rejected(self):
        with pytest.raises(ValueError, match="final good run"):
            RunLengthPacket(
                n_symbols=4, leading_good=0, bad=(2, 2), good=(0, 0)
            )

    def test_sum_mismatch_rejected(self):
        with pytest.raises(ValueError, match="sum"):
            RunLengthPacket(
                n_symbols=10, leading_good=0, bad=(2,), good=(3,)
            )

    def test_count_mismatch_rejected(self):
        with pytest.raises(ValueError, match="counts must match"):
            RunLengthPacket(
                n_symbols=5, leading_good=0, bad=(2, 3), good=(0,)
            )

    def test_nonpositive_bad_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            RunLengthPacket(
                n_symbols=2, leading_good=0, bad=(0,), good=(2,)
            )


def _good_mask(runs):
    """The per-symbol good/bad mask a run-length packet encodes."""
    mask = np.ones(runs.n_symbols, dtype=bool)
    pos = runs.leading_good
    for bad, good in zip(runs.bad, runs.good, strict=True):
        mask[pos : pos + bad] = False
        pos += bad + good
    return mask


@given(st.lists(st.booleans(), min_size=0, max_size=200))
@settings(max_examples=80, deadline=None)
def test_good_mask_roundtrip(labels):
    mask = np.array(labels, dtype=bool)
    runs = RunLengthPacket.from_labels(mask)
    assert np.array_equal(_good_mask(runs), mask)
    # Structural invariants of the Eq. 2 form.
    total = runs.leading_good + sum(runs.bad) + sum(runs.good)
    assert total == mask.size
    assert all(b > 0 for b in runs.bad)
    assert all(g > 0 for g in runs.good[:-1])
