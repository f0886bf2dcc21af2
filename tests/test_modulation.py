"""Tests for the MSK waveform modulator/demodulator pair."""

import numpy as np
import pytest

from repro.phy.channelsim import add_awgn
from repro.phy.demodulation import MskDemodulator
from repro.phy.modulation import MskModulator, half_sine_pulse
from repro.utils.bitops import pack_bits_to_uint32


class TestPulses:
    def test_half_sine_unit_energy(self):
        assert np.linalg.norm(half_sine_pulse()) == pytest.approx(1.0)

    def test_half_sine_length(self):
        # Two chip periods at four samples per chip.
        assert half_sine_pulse().size == 8

    def test_half_sine_symmetric(self):
        p = half_sine_pulse()
        assert p == pytest.approx(p[::-1])


class TestModulator:
    def test_output_length(self):
        mod = MskModulator()
        chips = np.zeros(10, dtype=np.int64)
        wave = mod.modulate_chips(chips)
        assert wave.size == mod.samples_for_chips(10) == 44

    def test_even_chips_on_i_rail(self):
        mod = MskModulator()
        chips = np.array([1, 0, 0, 0, 0, 0, 0, 0])
        wave = mod.modulate_chips(chips)
        # First pulse is purely real (I rail).
        assert np.abs(wave[:4].imag).max() == pytest.approx(0.0)
        assert wave[:4].real.max() > 0

    def test_odd_chips_on_q_rail(self):
        mod = MskModulator()
        chips = np.array([0, 1, 0, 0, 0, 0, 0, 0])
        wave = mod.modulate_chips(chips)
        # Chip 1's pulse starts at sample 4 and is purely imaginary.
        assert wave[4:8].imag.max() > 0

    def test_odd_chip_count_rejected(self):
        with pytest.raises(ValueError, match="even"):
            MskModulator().modulate_chips(np.zeros(3, dtype=np.int64))

    def test_non_binary_chips_rejected(self):
        with pytest.raises(ValueError, match="0/1"):
            MskModulator().modulate_chips(np.array([0, 2]))


class TestDemodulatorRoundtrip:
    def test_noiseless_roundtrip(self, rng):
        mod = MskModulator()
        demod = MskDemodulator()
        chips = rng.integers(0, 2, 200)
        wave = mod.modulate_chips(chips)
        decoded = demod.demodulate_soft(wave, start=0, n_chips=200) > 0
        assert np.array_equal(decoded, chips)

    def test_soft_outputs_near_unit(self, rng):
        mod = MskModulator()
        demod = MskDemodulator()
        chips = rng.integers(0, 2, 100)
        wave = mod.modulate_chips(chips)
        soft = demod.demodulate_soft(wave, start=0, n_chips=100)
        signs = chips * 2 - 1
        assert soft == pytest.approx(signs.astype(float), abs=1e-9)

    def test_noisy_roundtrip_mostly_correct(self, rng):
        mod = MskModulator()
        demod = MskDemodulator()
        chips = rng.integers(0, 2, 1000)
        wave = add_awgn(mod.modulate_chips(chips), 0.2, rng)
        decoded = demod.demodulate_soft(wave, start=0, n_chips=1000) > 0
        assert (decoded == chips).mean() > 0.95

    def test_symbol_roundtrip_through_codebook(self, codebook, rng):
        """Decoding from the frame's first sample recovers every
        symbol, also when the frame starts at a sub-chip or a
        multi-chip sample offset into the capture."""
        mod = MskModulator()
        demod = MskDemodulator()
        symbols = rng.integers(0, 16, 30)
        wave = mod.modulate_symbols(symbols, codebook)
        for start in (0, 1, 2, 3, 9, 10, 11):
            capture = np.concatenate([np.zeros(start, dtype=complex), wave])
            soft = demod.demodulate_soft(capture, start, n_chips=30 * 32)
            hard = (soft > 0).astype(np.uint8).reshape(30, 32)
            decoded, dists = codebook.decode_hard(pack_bits_to_uint32(hard))
            assert np.array_equal(decoded, symbols), start
            assert not dists.any(), start

    def test_truncated_capture_rejected(self):
        demod = MskDemodulator()
        with pytest.raises(ValueError, match="too short"):
            demod.demodulate_soft(np.zeros(10, dtype=complex), 0, 10)

    def test_negative_start_rejected(self):
        demod = MskDemodulator()
        with pytest.raises(ValueError):
            demod.demodulate_soft(np.zeros(100, dtype=complex), -1, 2)

    def test_zero_chips(self):
        demod = MskDemodulator()
        out = demod.demodulate_soft(np.zeros(10, dtype=complex), 0, 0)
        assert out.size == 0
