"""Tests for the complex-baseband channel simulator."""

import numpy as np
import pytest

from repro.phy.channelsim import (
    TransmissionInstance,
    add_awgn,
    awgn_collision_channel,
    mix_transmissions,
)


class TestMixTransmissions:
    def test_single_at_offset(self):
        wave = np.ones(4, dtype=complex)
        out = mix_transmissions(
            [TransmissionInstance(samples=wave, offset=3)]
        )
        assert out.size == 7
        assert out[:3] == pytest.approx(np.zeros(3))
        assert out[3:] == pytest.approx(wave)

    def test_superposition_adds(self):
        wave = np.ones(4, dtype=complex)
        out = mix_transmissions(
            [
                TransmissionInstance(samples=wave, offset=0),
                TransmissionInstance(samples=wave, offset=2),
            ]
        )
        assert out.tolist() == [1, 1, 2, 2, 1, 1]

    def test_gain_applied(self):
        wave = np.ones(2, dtype=complex)
        out = mix_transmissions(
            [TransmissionInstance(samples=wave, offset=0, gain=0.5)]
        )
        assert out == pytest.approx(0.5 * wave)

    def test_empty_without_window_rejected(self):
        with pytest.raises(ValueError):
            mix_transmissions([])

    def test_invalid_instances_rejected(self):
        with pytest.raises(ValueError):
            TransmissionInstance(samples=np.ones(1), offset=-1)
        with pytest.raises(ValueError):
            TransmissionInstance(samples=np.ones(1), offset=0, gain=0.0)


class TestAwgn:
    def test_zero_noise_identity(self, rng):
        wave = rng.normal(size=50) + 1j * rng.normal(size=50)
        assert add_awgn(wave, 0.0, rng) == pytest.approx(wave)

    def test_noise_power_empirical(self, rng):
        wave = np.zeros(200_000, dtype=complex)
        noisy = add_awgn(wave, 0.5, rng)
        measured = np.mean(np.abs(noisy) ** 2)
        assert measured == pytest.approx(0.5, rel=0.02)

    def test_negative_power_rejected(self, rng):
        with pytest.raises(ValueError):
            add_awgn(np.zeros(1, dtype=complex), -0.1, rng)

    def test_deterministic_under_seed(self):
        wave = np.zeros(10, dtype=complex)
        assert add_awgn(wave, 1.0, 3) == pytest.approx(add_awgn(wave, 1.0, 3))

    def test_collision_channel_combines(self, rng):
        wave = np.ones(4, dtype=complex)
        out = awgn_collision_channel(
            [TransmissionInstance(samples=wave, offset=0)],
            noise_power=0.0,
            rng=rng,
        )
        assert out == pytest.approx(wave)
