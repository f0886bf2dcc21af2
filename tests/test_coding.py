"""Tests for the network-coded partial recovery subsystem."""

import itertools

import numpy as np
import pytest

from repro.coding.gf2 import gf2_coefficients, gf2_eliminate
from repro.coding.rlnc import SegmentedRlncCodec


class TestGf2Kernels:
    def test_eliminate_recovers_erasures(self):
        k = 6
        # Lose two source rows; three coded rows cover them.
        coeffs = np.concatenate(
            [
                np.eye(k, dtype=np.uint8)[2:],
                gf2_coefficients(1, "test", shape=(3, k)),
            ]
        )
        assert gf2_eliminate(coeffs).all()

    def test_eliminate_partial_rank(self):
        # One equation over two unknowns: neither is determined,
        # but a unit equation pins its coordinate.
        coeffs = np.array([[1, 1], [0, 1]], dtype=np.uint8)
        assert gf2_eliminate(coeffs).tolist() == [True, True]
        assert gf2_eliminate(coeffs[:1]).tolist() == [False, False]

    def test_eliminate_empty_system(self):
        recovered = gf2_eliminate(np.zeros((0, 4), dtype=np.uint8))
        assert recovered.shape == (4,) and not recovered.any()

    def test_coefficients_deterministic_and_nonzero(self):
        a = gf2_coefficients(7, "x", 1, 2, shape=(40, 3))
        b = gf2_coefficients(7, "x", 1, 2, shape=(40, 3))
        assert np.array_equal(a, b)
        assert a.any(axis=1).all()  # no all-zero (useless) rows
        c = gf2_coefficients(7, "x", 1, 3, shape=(40, 3))
        assert not np.array_equal(a, c)


def _span_oracle(coeffs, data_ok, repair_ok):
    """Recovered segments by enumeration, with no elimination.

    Intact segments are known.  An erased segment is pinned down iff
    its unit vector over the erased columns is the XOR of some subset
    of the surviving repair rows restricted to those columns.
    """
    erased = np.flatnonzero(~data_ok)
    rows = [
        sum(int(bit) << i for i, bit in enumerate(row[erased]))
        for row in coeffs[repair_ok]
    ]
    span = {0}
    for row in rows:
        span |= {v ^ row for v in span}
    recovered = data_ok.copy()
    for i, col in enumerate(erased):
        recovered[col] = (1 << i) in span
    return recovered


def _assert_matches_span_oracle(codec, data_ok, repair_ok):
    """One stacked ``recoverable_mask`` call, checked pattern by
    pattern against the enumeration oracle."""
    got = codec.recoverable_mask(data_ok, repair_ok)
    assert got.shape == data_ok.shape
    coeffs = codec.coefficients()
    for row, (data, repair) in enumerate(zip(data_ok, repair_ok, strict=True)):
        assert np.array_equal(
            got[row], _span_oracle(coeffs, data, repair)
        ), (codec, data, repair)


class TestSegmentedRlncCodec:
    @pytest.mark.parametrize("k, r", [(1, 1), (4, 2), (6, 3), (8, 4)])
    def test_recoverable_mask_matches_span_oracle_exhaustive(self, k, r):
        """Every erasure pattern of small codes against the oracle,
        all of them in one stacked call."""
        codec = SegmentedRlncCodec(k, r)
        patterns = np.array(
            list(itertools.product([False, True], repeat=k + r))
        )
        _assert_matches_span_oracle(codec, patterns[:, :k], patterns[:, k:])

    def test_recoverable_mask_matches_span_oracle_random(self, rng):
        """Random erasure patterns of every code up to k=10, r=5,
        including dense erasures where the repair rows run short; each
        code's 40 patterns form one stack."""
        for k in range(1, 11):
            for r in range(1, 6):
                codec = SegmentedRlncCodec(k, r)
                data_ok = rng.random((40, k)) < rng.uniform(0.0, 1.0, (40, 1))
                repair_ok = rng.random((40, r)) < rng.uniform(0.3, 1.0, (40, 1))
                _assert_matches_span_oracle(codec, data_ok, repair_ok)

    def test_recoverable_mask_matches_full_system(self, rng):
        """The erased-columns elimination agrees with the full system —
        unit rows for intact segments plus the surviving repair rows —
        on random erasure patterns, repeats included, one pattern at a
        time and as one stack."""
        k, r = 12, 6
        codec = SegmentedRlncCodec(k, r)
        eye = np.eye(k, dtype=np.uint8)
        data_ok = rng.random((60, k)) < rng.uniform(0.2, 1.0, (60, 1))
        repair_ok = rng.random((60, r)) < 0.7
        data_ok[30:], repair_ok[30:] = data_ok[:30], repair_ok[:30]
        stacked = codec.recoverable_mask(data_ok, repair_ok)
        for data, repair, got in zip(data_ok, repair_ok, stacked, strict=True):
            coeffs = np.concatenate([eye[data], codec.coefficients()[repair]])
            assert np.array_equal(got, gf2_eliminate(coeffs))
            assert np.array_equal(codec.recoverable_mask(data, repair), got)
        assert not codec.coefficients().flags.writeable
        assert codec.coefficients() is codec.coefficients()

    def test_recoverable_mask_empty_stack(self):
        codec = SegmentedRlncCodec(5, 2)
        got = codec.recoverable_mask(
            np.zeros((0, 5), dtype=bool), np.zeros((0, 2), dtype=bool)
        )
        assert got.shape == (0, 5)

    def test_parameter_validation(self):
        with pytest.raises(ValueError, match="n_segments"):
            SegmentedRlncCodec(0, 1)
        with pytest.raises(ValueError, match="n_repair"):
            SegmentedRlncCodec(4, 0)
        with pytest.raises(ValueError, match="one byte"):
            SegmentedRlncCodec(300, 2)
        codec = SegmentedRlncCodec(4, 2)
        with pytest.raises(ValueError, match="data_ok"):
            codec.recoverable_mask(np.ones(3, dtype=bool), np.ones(2, dtype=bool))
        with pytest.raises(ValueError, match="repair_ok"):
            codec.recoverable_mask(np.ones((2, 4), dtype=bool), np.ones(2, dtype=bool))
