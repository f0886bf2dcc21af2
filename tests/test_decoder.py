"""Tests for the three SoftPHY decoder variants."""

import numpy as np
import pytest

from repro.phy.chipchannel import transmit_chipwords
from repro.phy.decoder import MatchedFilterHinter, SoftDecisionDecoder
from repro.utils.bitops import pack_bits_to_uint32


class TestHardDecision:
    """Nearest-codeword decoding: ``Codebook.decode_hard`` (paper §3.2)."""

    def test_clean_decode(self, codebook, rng):
        symbols = rng.integers(0, 16, 100)
        decoded, hints = codebook.decode_hard(codebook.encode_words(symbols))
        assert np.array_equal(decoded, symbols)
        assert np.all(hints == 0)
        assert decoded.dtype == hints.dtype == np.int64

    def test_hints_rise_with_noise(self, codebook, rng):
        symbols = rng.integers(0, 16, 500)
        words = codebook.encode_words(symbols)
        mean_hints = []
        for p in (0.01, 0.1, 0.3):
            received = transmit_chipwords(words, p, rng)
            mean_hints.append(codebook.decode_hard(received)[1].mean())
        assert mean_hints[0] < mean_hints[1] < mean_hints[2]

    def test_packed_chips_decode_like_words(self, codebook, rng):
        symbols = rng.integers(0, 16, 20)
        chips = codebook.encode(symbols).reshape(-1, 32)
        by_chips, _ = codebook.decode_hard(pack_bits_to_uint32(chips))
        by_words, _ = codebook.decode_hard(codebook.encode_words(symbols))
        assert np.array_equal(by_chips, by_words)


class TestSoftDecisionDecoder:
    def test_clean_decode(self, codebook, rng):
        decoder = SoftDecisionDecoder(codebook)
        symbols = rng.integers(0, 16, 100)
        samples = codebook.encode(symbols).reshape(-1, 32) * 2.0 - 1.0
        result = decoder.decode_samples(samples)
        assert np.array_equal(result.symbols, symbols)

    def test_hint_grows_with_noise(self, codebook, rng):
        decoder = SoftDecisionDecoder(codebook)
        symbols = rng.integers(0, 16, 300)
        clean = codebook.encode(symbols).reshape(-1, 32) * 2.0 - 1.0
        low = decoder.decode_samples(clean + rng.normal(0, 0.2, clean.shape))
        high = decoder.decode_samples(clean + rng.normal(0, 1.0, clean.shape))
        assert low.hints.mean() < high.hints.mean()

    def test_sdd_beats_hdd_in_gaussian_noise(self, codebook, rng):
        """The classic 2-3 dB soft-decision gain (paper §3.1 footnote)."""
        symbols = rng.integers(0, 16, 3000)
        clean = codebook.encode(symbols).reshape(-1, 32) * 2.0 - 1.0
        noisy = clean + rng.normal(0, 1.35, clean.shape)
        sdd = SoftDecisionDecoder(codebook).decode_samples(noisy)
        hard_chips = (noisy > 0).astype(np.uint8)
        hdd_symbols, _ = codebook.decode_hard(pack_bits_to_uint32(hard_chips))
        sdd_errors = (sdd.symbols != symbols).mean()
        hdd_errors = (hdd_symbols != symbols).mean()
        assert sdd_errors < hdd_errors

    def test_wrong_width_rejected(self, codebook):
        with pytest.raises(ValueError):
            SoftDecisionDecoder(codebook).decode_samples(np.zeros((2, 8)))

    def test_hint_range_matches_docstring(self, codebook, rng):
        """With ±1 samples the hint lands in [0, B/2]: 0 for a clean
        maximally-separated winner, B/2 for a dead tie."""
        decoder = SoftDecisionDecoder(codebook)
        symbols = rng.integers(0, 16, 50)
        clean = codebook.encode(symbols).reshape(-1, 32) * 2.0 - 1.0
        hints = decoder.decode_samples(clean).hints
        half_b = codebook.chips_per_symbol / 2.0
        assert np.all(hints >= 0.0)
        assert np.all(hints <= half_b + 1e-12)

    def test_top2_selection_matches_full_sort(self, codebook, rng):
        """The argpartition fast path must agree with a full argsort
        on which codeword wins and by what margin."""
        decoder = SoftDecisionDecoder(codebook)
        samples = rng.normal(0.0, 1.0, (500, 32))
        result = decoder.decode_samples(samples)
        corr = samples @ codebook.sign_matrix.T
        order = np.argsort(corr, axis=1)
        rows = np.arange(corr.shape[0])
        assert np.array_equal(result.symbols, order[:, -1])
        margin = corr[rows, order[:, -1]] - corr[rows, order[:, -2]]
        expected = (2.0 * codebook.chips_per_symbol - margin) / 4.0
        assert np.allclose(result.hints, expected, rtol=0, atol=1e-12)


class TestMatchedFilterHinter:
    def test_full_amplitude_zero_hint(self):
        hinter = MatchedFilterHinter(nominal_amplitude=1.0, group=4)
        hints = hinter.hints_from_samples(np.array([1.0, -1.0, 1.0, -1.0]))
        assert hints[0] == pytest.approx(0.0)

    def test_weak_signal_positive_hint(self):
        hinter = MatchedFilterHinter(nominal_amplitude=1.0, group=4)
        hints = hinter.hints_from_samples(np.full(4, 0.25))
        assert hints[0] == pytest.approx(0.75)

    def test_group_mismatch_rejected(self):
        hinter = MatchedFilterHinter(group=8)
        with pytest.raises(ValueError):
            hinter.hints_from_samples(np.zeros(12))

    def test_invalid_construction(self):
        with pytest.raises(ValueError):
            MatchedFilterHinter(nominal_amplitude=0.0)
        with pytest.raises(ValueError):
            MatchedFilterHinter(group=0)

