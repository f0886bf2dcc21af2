"""Tests for the radio medium: path loss, shadowing, interference."""

import numpy as np
import pytest

from repro.phy.modulation import SYMBOL_PERIOD_S
from repro.sim.medium import PathLossModel, RadioMedium, Transmission


def _medium(positions, **kwargs):
    return RadioMedium(positions_m=np.array(positions, dtype=float), **kwargs)


def _tx(tx_id, sender, start, n_symbols=100):
    return Transmission(
        tx_id=tx_id, sender=sender, dst=0, start=start, n_symbols=n_symbols
    )


class TestPathLossModel:
    def test_reference_loss_at_d0(self):
        model = PathLossModel()
        assert model.mean_loss_db(1.0) == pytest.approx(40.0)

    def test_exponent_slope(self):
        model = PathLossModel()
        assert model.mean_loss_db(10.0) == pytest.approx(78.0)
        assert model.mean_loss_db(100.0) == pytest.approx(116.0)

    def test_below_d0_clamped(self):
        model = PathLossModel()
        assert model.mean_loss_db(0.01) == pytest.approx(40.0)

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            PathLossModel(shadowing_sigma_db=-1)


class TestRadioMedium:
    def test_closer_is_stronger(self):
        medium = _medium(
            [[0, 0], [5, 0], [20, 0]],
            path_loss=PathLossModel(shadowing_sigma_db=0),
        )
        assert medium.rx_power_mw(1, 0) > medium.rx_power_mw(2, 0)

    def test_shadowing_reciprocal(self):
        medium = _medium([[0, 0], [10, 0], [3, 7]], seed=5)
        for a in range(3):
            for b in range(a + 1, 3):
                assert medium.rx_power_mw(a, b) == pytest.approx(
                    medium.rx_power_mw(b, a)
                )

    def test_shadowing_deterministic_in_seed(self):
        a = _medium([[0, 0], [10, 0]], seed=1).rx_power_mw(0, 1)
        b = _medium([[0, 0], [10, 0]], seed=1).rx_power_mw(0, 1)
        c = _medium([[0, 0], [10, 0]], seed=2).rx_power_mw(0, 1)
        assert a == b
        assert a != c

    def test_extra_loss_applied(self):
        quiet = _medium(
            [[0, 0], [10, 0]],
            path_loss=PathLossModel(shadowing_sigma_db=0),
        )
        walled = _medium(
            [[0, 0], [10, 0]],
            path_loss=PathLossModel(shadowing_sigma_db=0),
            extra_loss_db=np.array([[0.0, 10.0], [10.0, 0.0]]),
        )
        ratio = quiet.rx_power_mw(0, 1) / walled.rx_power_mw(0, 1)
        assert ratio == pytest.approx(10.0)

    def test_extra_loss_shape_validated(self):
        with pytest.raises(ValueError):
            _medium([[0, 0], [1, 0]], extra_loss_db=np.zeros((3, 3)))

    def test_self_reception_rejected(self):
        medium = _medium([[0, 0], [1, 0]])
        with pytest.raises(ValueError):
            medium.rx_power_mw(0, 0)

    def test_snr_definition(self):
        medium = _medium(
            [[0, 0], [10, 0]],
            path_loss=PathLossModel(shadowing_sigma_db=0),
            noise_floor_dbm=-90.0,
        )
        expected = medium.rx_power_mw(0, 1) / medium.noise_mw
        assert medium.snr(0, 1) == pytest.approx(expected)

    def test_positions_validated(self):
        with pytest.raises(ValueError):
            RadioMedium(positions_m=np.zeros((3,)))

    def test_carrier_sense_sums_active_powers(self):
        medium = _medium(
            [[0, 0], [5, 0], [10, 0]],
            path_loss=PathLossModel(shadowing_sigma_db=0),
        )
        t1, t2 = _tx(0, 1, 0.0), _tx(1, 2, 0.0)
        sensed = medium.carrier_sensed_power_mw(0, [t1, t2])
        expected = medium.rx_power_mw(1, 0) + medium.rx_power_mw(2, 0)
        assert sensed == pytest.approx(expected)

    def test_carrier_sense_ignores_own_transmission(self):
        medium = _medium([[0, 0], [5, 0]])
        own = _tx(0, 0, 0.0)
        assert medium.carrier_sensed_power_mw(0, [own]) == 0.0


class TestInterferenceTimeline:
    def _simple_medium(self):
        return _medium(
            [[0, 0], [5, 0], [10, 0]],
            path_loss=PathLossModel(shadowing_sigma_db=0),
        )

    def test_no_overlap_no_interference(self):
        medium = self._simple_medium()
        rx = _tx(0, 1, start=0.0, n_symbols=100)
        other = _tx(1, 2, start=1.0)
        timeline = medium.interference_timeline_mw(rx, 0, [other])
        assert np.all(timeline == 0)

    def test_partial_overlap_hits_exact_symbols(self):
        medium = self._simple_medium()
        rx = _tx(0, 1, start=0.0, n_symbols=100)
        # Interferer covers symbols 50..80 exactly.
        other = _tx(1, 2, start=50 * SYMBOL_PERIOD_S, n_symbols=30)
        timeline = medium.interference_timeline_mw(rx, 0, [other])
        power = medium.rx_power_mw(2, 0)
        assert np.all(timeline[:50] == 0)
        assert timeline[50:80] == pytest.approx(np.full(30, power))
        assert np.all(timeline[80:] == 0)

    def test_overlapping_interferers_add(self):
        medium = self._simple_medium()
        rx = _tx(0, 1, start=0.0, n_symbols=10)
        o1 = _tx(1, 2, start=0.0, n_symbols=10)
        o2 = _tx(2, 2, start=0.0, n_symbols=10)
        timeline = medium.interference_timeline_mw(rx, 0, [o1, o2])
        assert timeline[0] == pytest.approx(2 * medium.rx_power_mw(2, 0))

    def test_receiver_transmitting_is_infinite_interference(self):
        medium = self._simple_medium()
        rx = _tx(0, 1, start=0.0, n_symbols=10)
        own = _tx(1, 0, start=0.0, n_symbols=5)
        timeline = medium.interference_timeline_mw(rx, 0, [own])
        assert np.isinf(timeline[:5]).all()
        assert np.all(timeline[5:] == 0)

    def test_power_scale_applied(self):
        medium = self._simple_medium()
        rx = _tx(0, 1, start=0.0, n_symbols=10)
        other = _tx(1, 2, start=0.0, n_symbols=10)
        base = medium.interference_timeline_mw(rx, 0, [other])[0]
        scaled = medium.interference_timeline_mw(
            rx, 0, [other], power_scale={1: 0.5}
        )[0]
        assert scaled == pytest.approx(0.5 * base)

    def test_transmission_properties(self):
        tx = _tx(0, 1, start=1.0, n_symbols=100)
        assert tx.duration == pytest.approx(1.6e-3)
        assert tx.end == pytest.approx(1.0016)
