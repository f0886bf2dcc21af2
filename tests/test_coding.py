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


class TestSegmentedRlncCodec:
    @pytest.mark.parametrize("k, r", [(1, 1), (4, 2), (6, 3), (8, 4)])
    def test_recoverable_mask_matches_span_oracle_exhaustive(self, k, r):
        """Every erasure pattern of small codes against the oracle."""
        codec = SegmentedRlncCodec(k, r)
        coeffs = codec.coefficients()
        for bits in itertools.product([False, True], repeat=k + r):
            data_ok = np.array(bits[:k])
            repair_ok = np.array(bits[k:])
            assert np.array_equal(
                codec.recoverable_mask(data_ok, repair_ok),
                _span_oracle(coeffs, data_ok, repair_ok),
            ), (data_ok, repair_ok)

    def test_recoverable_mask_matches_span_oracle_random(self, rng):
        """Random erasure patterns of every code up to k=10, r=5,
        including dense erasures where the repair rows run short."""
        for k in range(1, 11):
            for r in range(1, 6):
                codec = SegmentedRlncCodec(k, r)
                coeffs = codec.coefficients()
                for _trial in range(40):
                    data_ok = rng.random(k) < rng.uniform(0.0, 1.0)
                    repair_ok = rng.random(r) < rng.uniform(0.3, 1.0)
                    assert np.array_equal(
                        codec.recoverable_mask(data_ok, repair_ok),
                        _span_oracle(coeffs, data_ok, repair_ok),
                    ), (k, r, data_ok, repair_ok)

    def test_recoverable_mask_matches_full_system(self, rng):
        """The erased-columns elimination (memoised) agrees with the
        full system — unit rows for intact segments plus the surviving
        repair rows — on random erasure patterns, repeats included."""
        k, r = 12, 6
        codec = SegmentedRlncCodec(k, r)
        eye = np.eye(k, dtype=np.uint8)
        for _trial in range(60):
            data_ok = rng.random(k) < rng.uniform(0.2, 1.0)
            repair_ok = rng.random(r) < 0.7
            coeffs = np.concatenate(
                [eye[data_ok], codec.coefficients()[repair_ok]]
            )
            got = codec.recoverable_mask(data_ok, repair_ok)
            assert np.array_equal(got, gf2_eliminate(coeffs))
            assert not got.flags.writeable
        assert not codec.coefficients().flags.writeable
        assert codec.coefficients() is codec.coefficients()

    def test_parameter_validation(self):
        with pytest.raises(ValueError, match="n_segments"):
            SegmentedRlncCodec(0, 1)
        with pytest.raises(ValueError, match="n_repair"):
            SegmentedRlncCodec(4, 0)
        with pytest.raises(ValueError, match="one byte"):
            SegmentedRlncCodec(300, 2)
