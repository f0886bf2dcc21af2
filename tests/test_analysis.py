"""Tests for analysis utilities: stats, runs, text rendering."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.runs import (
    ccdf_from_counts,
    run_lengths,
)
from repro.analysis.stats import (
    Cdf,
    geometric_mean,
    median,
)
from repro.analysis.textplot import (
    format_table,
    render_cdf,
    render_scatter,
    render_series,
)


class TestCdf:
    def test_quantiles(self):
        cdf = Cdf(np.arange(1, 101, dtype=float))
        assert cdf.median() == pytest.approx(50.5)
        assert cdf.quantile(0.0) == 1.0
        assert cdf.quantile(1.0) == 100.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            Cdf(np.array([]))

    def test_invalid_quantile(self):
        with pytest.raises(ValueError):
            Cdf(np.array([1.0])).quantile(1.5)


class TestSummaries:
    def test_median(self):
        assert median([5, 1, 3]) == 3.0

    def test_geometric_mean(self):
        assert geometric_mean([1.0, 100.0]) == pytest.approx(10.0)
        assert geometric_mean([2.0, 2.0, 2.0]) == pytest.approx(2.0)

    def test_errors(self):
        with pytest.raises(ValueError):
            median([])
        with pytest.raises(ValueError):
            geometric_mean([0.0, 1.0])


class TestRuns:
    def test_run_lengths_basic(self):
        assert run_lengths([True, True, False, True]) == [2, 1]
        assert run_lengths([False, False]) == []
        assert run_lengths([]) == []

    def test_ccdf_from_counts(self):
        from collections import Counter

        counts = Counter({1: 6, 2: 3, 5: 1})
        lengths, tail = ccdf_from_counts(counts)
        assert lengths.tolist() == [1, 2, 5]
        assert tail == pytest.approx([1.0, 0.4, 0.1])

    def test_ccdf_empty_rejected(self):
        from collections import Counter

        with pytest.raises(ValueError):
            ccdf_from_counts(Counter())

    @given(st.lists(st.booleans(), max_size=100))
    @settings(max_examples=50, deadline=None)
    def test_run_lengths_sum_to_true_count(self, mask):
        assert sum(run_lengths(mask)) == sum(mask)


class TestTextRendering:
    def test_render_cdf_structure(self):
        out = render_cdf(
            {"a": np.array([0.1, 0.5, 0.9]), "b": np.array([0.2, 0.4])},
            xmax=1.0,
        )
        assert "o = a" in out
        assert "x = b" in out
        assert "1.0 |" in out

    def test_render_series_logy(self):
        xs = np.arange(1, 6)
        out = render_series(
            xs, {"tail": np.array([1.0, 0.1, 0.01, 0.001, 1e-4])},
            logy=True,
        )
        assert "o = tail" in out
        assert "e" in out  # scientific notation on the axis

    def test_render_scatter_includes_diagonal(self):
        out = render_scatter(
            {"pts": (np.array([1.0, 10.0]), np.array([2.0, 20.0]))},
            floor=1e-2,
        )
        assert "y = x" in out

    def test_format_table_alignment(self):
        out = format_table(
            ["name", "value"], [["a", 1.5], ["bb", 20]], title="T"
        )
        lines = out.splitlines()
        assert lines[0] == "T"
        assert "name" in lines[1]
        assert all(len(l) == len(lines[1]) for l in lines[3:])

    def test_empty_series_rejected(self):
        with pytest.raises(ValueError):
            render_cdf({})
        with pytest.raises(ValueError):
            render_series(np.arange(3), {})
        with pytest.raises(ValueError):
            render_scatter({}, floor=1e-2)
