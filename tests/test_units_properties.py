"""Property tests for the dBm to milliwatt conversion.

The RP006 dataflow rule trusts ``utils/units.py`` as the ground truth
for moving from log-scale to linear power; these hypothesis tests pin
that ``dbm_to_mw`` is the exact inverse of ``10 log10`` across the full
dynamic range the simulation uses (thermal floor near -100 dBm up to
strong transmitters), elementwise over arrays.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.utils.units import dbm_to_mw

# Conversions overflow only far outside physics: +/-250 dB spans 1e-25
# to 1e25, generously past any link budget in the reproduction.
_DB = st.floats(
    min_value=-250.0, max_value=250.0, allow_nan=False, allow_infinity=False
)
_LIN = st.floats(
    min_value=1e-25, max_value=1e25, allow_nan=False, allow_infinity=False
)


class TestRoundTrips:


    @given(_DB)
    @settings(max_examples=200, deadline=None)
    def test_dbm_mw_dbm(self, dbm):
        assert np.isclose(10 * np.log10(dbm_to_mw(dbm)), dbm, atol=1e-9)

    @given(_LIN)
    @settings(max_examples=200, deadline=None)
    def test_mw_dbm_mw(self, mw):
        assert np.isclose(dbm_to_mw(10 * np.log10(mw)), mw, rtol=1e-12)


class TestMutualConsistency:


    @given(_DB, _DB)
    @settings(max_examples=200, deadline=None)
    def test_log_addition_is_linear_multiplication(self, dbm, db):
        # Applying a dB gain to a dBm level: add in log, multiply in
        # linear — the identity RP006's `dbm + db -> dbm` rule encodes.
        assert np.isclose(
            dbm_to_mw(dbm + db),
            dbm_to_mw(dbm) * 10 ** (db / 10),
            rtol=1e-9,
        )

    @given(_DB)
    @settings(max_examples=200, deadline=None)
    def test_monotone(self, dbm):
        assert dbm_to_mw(dbm + 1.0) > dbm_to_mw(dbm)


class TestArraySupport:
    @given(st.lists(_DB, min_size=1, max_size=8))
    @settings(max_examples=100, deadline=None)
    def test_elementwise_matches_scalar(self, values):
        arr = np.array(values)
        out = dbm_to_mw(arr)
        assert out.shape == arr.shape
        assert np.allclose(
            out, [dbm_to_mw(v) for v in values], rtol=1e-12
        )

    @given(st.lists(_LIN, min_size=1, max_size=8))
    @settings(max_examples=100, deadline=None)
    def test_round_trip_preserves_shape(self, values):
        arr = np.array(values).reshape(1, -1)
        back = dbm_to_mw(10 * np.log10(arr))
        assert back.shape == arr.shape
        assert np.allclose(back, arr, rtol=1e-12)
