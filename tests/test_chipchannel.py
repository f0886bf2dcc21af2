"""Tests for the chip-level channel and its error-probability models."""

import numpy as np
import pytest
from scipy.special import erfc

from repro.phy.chipchannel import (
    chip_error_probability_interference,
    transmit_chipwords,
    transmit_chipwords_batch,
)
from repro.utils.bitops import popcount32
from repro.utils.rng import derive_key


class TestChipErrorProbability:
    """With no interferer the model is coherent MSK over AWGN:
    ``p = Q(sqrt(2 SNR)) = erfc(sqrt(SNR)) / 2`` per chip."""

    @staticmethod
    def noise_only(snr):
        return chip_error_probability_interference(snr, 0.0)

    def test_zero_sinr_is_coin_flip(self):
        assert self.noise_only(0.0) == pytest.approx(0.5)

    def test_high_sinr_is_negligible(self):
        assert self.noise_only(100.0) < 1e-10

    def test_monotone_decreasing(self):
        p = self.noise_only(np.logspace(-2, 2, 30))
        assert np.all(np.diff(p) < 0)

    def test_known_value(self):
        # p = Q(sqrt(2)) at SINR = 1 (0 dB) ~ 0.0786.
        assert self.noise_only(1.0) == pytest.approx(0.0786, abs=2e-3)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            self.noise_only(-0.1)


class TestInterferenceModel:
    def test_reduces_to_noise_only_without_interference(self):
        # the old noise-only cases (0, 1, 100 and a monotone sweep)
        snr = np.concatenate(
            [[0.0, 0.5, 1.0, 10.0, 100.0], np.logspace(-2, 2, 30)]
        )
        np.testing.assert_allclose(
            chip_error_probability_interference(snr, np.zeros(snr.size)),
            0.5 * erfc(np.sqrt(snr)),
            rtol=1e-12,
            atol=0.0,
        )

    def test_equal_power_collision_approaches_quarter(self):
        # At high SNR with I = S, half the interferer chips oppose and
        # cancel the signal entirely: p -> 0.25.
        p = chip_error_probability_interference(1e4, 1.0)
        assert p == pytest.approx(0.25, abs=0.01)

    def test_dominant_interferer_approaches_half(self):
        p = chip_error_probability_interference(1e4, 100.0)
        assert p == pytest.approx(0.5, abs=0.01)

    def test_weak_interferer_captured_through(self):
        # Interferer 10 dB down at 20 dB SNR: essentially error-free.
        p = chip_error_probability_interference(100.0, 0.1)
        assert p < 1e-3

    def test_infinite_interference_is_half(self):
        p = chip_error_probability_interference(
            np.array([100.0]), np.array([np.inf])
        )
        assert p[0] == pytest.approx(0.5)

    def test_monotone_in_interference(self):
        isrs = np.linspace(0, 4, 40)
        p = chip_error_probability_interference(
            np.full(40, 100.0), isrs
        )
        assert np.all(np.diff(p) >= -1e-12)

    def test_negative_inputs_rejected(self):
        with pytest.raises(ValueError):
            chip_error_probability_interference(-1.0, 0.0)
        with pytest.raises(ValueError):
            chip_error_probability_interference(1.0, -1.0)


class TestTransmitChipwords:
    def test_p_zero_identity(self, codebook, rng):
        words = codebook.encode_words(rng.integers(0, 16, 100))
        assert np.array_equal(transmit_chipwords(words, 0.0, rng), words)

    def test_p_one_inverts_everything(self, codebook, rng):
        words = codebook.encode_words(rng.integers(0, 16, 100))
        received = transmit_chipwords(words, 1.0, rng)
        assert np.array_equal(received, words ^ np.uint32(0xFFFFFFFF))

    def test_empirical_flip_rate(self, rng):
        words = np.zeros(2000, dtype=np.uint32)
        received = transmit_chipwords(words, 0.1, rng)
        rate = popcount32(received).sum() / (2000 * 32)
        assert rate == pytest.approx(0.1, abs=0.01)

    def test_per_symbol_probabilities(self, rng):
        words = np.zeros(1000, dtype=np.uint32)
        p = np.concatenate([np.zeros(500), np.full(500, 0.5)])
        received = transmit_chipwords(words, p, rng)
        assert popcount32(received[:500]).sum() == 0
        noisy_rate = popcount32(received[500:]).sum() / (500 * 32)
        assert noisy_rate == pytest.approx(0.5, abs=0.03)

    def test_deterministic_under_seed(self, codebook):
        words = codebook.encode_words(np.arange(16))
        a = transmit_chipwords(words, 0.2, 77)
        b = transmit_chipwords(words, 0.2, 77)
        assert np.array_equal(a, b)

    def test_empty_input(self, rng):
        out = transmit_chipwords(np.zeros(0, dtype=np.uint32), 0.3, rng)
        assert out.size == 0

    def test_invalid_probability_rejected(self, rng):
        with pytest.raises(ValueError):
            transmit_chipwords(np.zeros(1, dtype=np.uint32), 1.5, rng)

    def test_nan_probability_rejected(self, rng):
        """NaN compares false to both range bounds, so the old check
        let it through and the channel silently produced no flips."""
        words = np.zeros(4, dtype=np.uint32)
        with pytest.raises(ValueError, match="finite"):
            transmit_chipwords(words, np.nan, rng)
        p = np.array([0.1, np.nan, 0.2, 0.0])
        with pytest.raises(ValueError, match="finite"):
            transmit_chipwords(words, p, rng)

    def test_infinite_probability_rejected(self, rng):
        with pytest.raises(ValueError, match="finite"):
            transmit_chipwords(
                np.zeros(2, dtype=np.uint32), np.inf, rng
            )


def _one_key(seed, *ids):
    """A (1, 2) key matrix for single-pair batch calls."""
    return derive_key(seed, "chip-channel", *ids)[None, :]


class TestTransmitChipwordsBatch:
    """The keyed-stream channel: randomness addressed by the pair."""

    def test_p_zero_identity(self, codebook, rng):
        words = codebook.encode_words(rng.integers(0, 16, 64))
        out = transmit_chipwords_batch(words, 0.0, [64], _one_key(0, 0, 1))
        assert np.array_equal(out, words)

    def test_p_one_inverts_everything(self, codebook, rng):
        words = codebook.encode_words(rng.integers(0, 16, 64))
        out = transmit_chipwords_batch(words, 1.0, [64], _one_key(0, 0, 1))
        assert np.array_equal(out, words ^ np.uint32(0xFFFFFFFF))

    def test_empirical_flip_rate(self):
        n = 4000
        out = transmit_chipwords_batch(
            np.zeros(n, dtype=np.uint32), 0.1, [n], _one_key(3, 5, 24)
        )
        rate = popcount32(out).sum() / (n * 32)
        assert rate == pytest.approx(0.1, abs=0.01)

    def test_fused_equals_per_pair(self, rng):
        """Concatenating many pairs' words into one call must equal
        transiting each pair separately — the invariance the network
        simulation's fused phase 2 and the multiprocess sharding rest
        on."""
        per_pair, flat_words, flat_p, sizes, keys = [], [], [], [], []
        for pair in range(7):
            n = int(rng.integers(0, 40))  # zero-size pairs included
            words = rng.integers(0, 2**32, n, dtype=np.uint32)
            p = rng.uniform(0.0, 0.4, n)
            key = derive_key(11, "chip-channel", pair, 23)
            per_pair.append(
                transmit_chipwords_batch(words, p, [n], key[None, :])
            )
            flat_words.append(words)
            flat_p.append(p)
            sizes.append(n)
            keys.append(key)
        fused = transmit_chipwords_batch(
            np.concatenate(flat_words),
            np.concatenate(flat_p),
            sizes,
            np.stack(keys),
        )
        assert np.array_equal(fused, np.concatenate(per_pair))

    def test_different_keys_different_corruption(self):
        n = 200
        words = np.zeros(n, dtype=np.uint32)
        p = np.full(n, 0.5)
        a = transmit_chipwords_batch(words, p, [n], _one_key(0, 0, 23))
        b = transmit_chipwords_batch(words, p, [n], _one_key(0, 0, 24))
        assert not np.array_equal(a, b)

    def test_empty_input(self):
        out = transmit_chipwords_batch(
            np.zeros(0, dtype=np.uint32),
            0.3,
            np.zeros(0, dtype=np.int64),
            np.zeros((0, 2), dtype=np.uint64),
        )
        assert out.size == 0

    def test_invalid_inputs_rejected(self):
        words = np.zeros(4, dtype=np.uint32)
        key = _one_key(0, 0)
        with pytest.raises(ValueError, match="finite"):
            transmit_chipwords_batch(words, np.nan, [4], key)
        with pytest.raises(ValueError):
            transmit_chipwords_batch(words, 1.5, [4], key)
        with pytest.raises(ValueError, match="sizes"):
            transmit_chipwords_batch(words, 0.1, [3], key)
        with pytest.raises(ValueError, match="keys"):
            transmit_chipwords_batch(
                words, 0.1, [2, 2], np.zeros((3, 2), np.uint64)
            )
