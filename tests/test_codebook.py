"""Tests for the 802.15.4 codebook and nearest-codeword decoding."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.phy.codebook import Codebook, ZigbeeCodebook
from repro.utils.bitops import popcount32


class TestZigbeeStructure:
    def test_geometry(self, codebook):
        assert codebook.n_symbols == 16
        assert codebook.chips_per_symbol == 32

    def test_codewords_distinct(self, codebook):
        assert len(set(codebook.encode_words(np.arange(16)).tolist())) == 16

    def test_min_distance(self, codebook):
        # The 802.15.4 quasi-orthogonal set has pairwise distances
        # in [12, 20]; the despreading gain comes from this margin.
        d = codebook.pairwise_distances()
        off_diag = d[~np.eye(16, dtype=bool)]
        assert off_diag.min() == 12
        assert off_diag.max() == 20
        assert codebook.min_distance() == 12

    def test_symbols_1_to_7_are_rotations(self, codebook):
        chips = codebook.encode(np.arange(16)).reshape(16, 32)
        for k in range(1, 8):
            assert np.array_equal(chips[k], np.roll(chips[0], 4 * k))

    def test_symbols_8_to_15_invert_odd_chips(self, codebook):
        chips = codebook.encode(np.arange(16)).reshape(16, 32)
        odd = np.zeros(32, dtype=np.uint8)
        odd[1::2] = 1
        for k in range(8):
            assert np.array_equal(chips[8 + k], chips[k] ^ odd)

    def test_distance_matrix_symmetric_zero_diagonal(self, codebook):
        d = codebook.pairwise_distances()
        assert np.array_equal(d, d.T)
        assert np.all(np.diag(d) == 0)


class TestEncodeDecode:
    def test_encode_shape(self, codebook):
        chips = codebook.encode(np.array([0, 1, 2]))
        assert chips.shape == (96,)

    def test_encode_rejects_out_of_range(self, codebook):
        with pytest.raises(ValueError):
            codebook.encode(np.array([16]))
        with pytest.raises(ValueError):
            codebook.encode_words(np.array([-1]))

    def test_clean_roundtrip(self, codebook, rng):
        symbols = rng.integers(0, 16, 500)
        decoded, dist = codebook.decode_hard(codebook.encode_words(symbols))
        assert np.array_equal(decoded, symbols)
        assert np.all(dist == 0)

    def test_hint_equals_flip_count_when_decode_correct(self, codebook, rng):
        """Up to 5 flips (< d_min/2) the decode is exact and the hint
        is exactly the number of flipped chips."""
        symbols = rng.integers(0, 16, 200)
        words = codebook.encode_words(symbols)
        for n_flips in (1, 3, 5):
            masks = np.zeros(words.size, dtype=np.uint32)
            for i in range(words.size):
                positions = rng.choice(32, size=n_flips, replace=False)
                mask = 0
                for p in positions:
                    mask |= 1 << int(p)
                masks[i] = mask
            decoded, dist = codebook.decode_hard(words ^ masks)
            assert np.array_equal(decoded, symbols)
            assert np.all(dist == n_flips)

    def test_beyond_half_min_distance_may_err_but_hint_is_true_distance(
        self, codebook, rng
    ):
        symbols = rng.integers(0, 16, 100)
        words = codebook.encode_words(symbols)
        flips = rng.integers(0, 2**32, 100, dtype=np.uint64).astype(np.uint32)
        received = words ^ flips
        decoded, dist = codebook.decode_hard(received)
        chosen = codebook.encode_words(decoded)
        assert np.array_equal(dist, popcount32(received ^ chosen))
        # The decoded word is never farther than the transmitted one.
        assert np.all(dist <= popcount32(received ^ words))

    def test_tie_break_deterministic(self, codebook):
        received = np.array([0x12345678, 0x12345678], dtype=np.uint32)
        d1 = codebook.decode_hard(received)
        d2 = codebook.decode_hard(received)
        assert np.array_equal(d1[0], d2[0])

    @given(st.lists(st.integers(0, 15), min_size=1, max_size=64))
    @settings(max_examples=25, deadline=None)
    def test_words_to_chips_roundtrip(self, symbol_list):
        cb = ZigbeeCodebook()
        symbols = np.array(symbol_list)
        words = cb.encode_words(symbols)
        # chip 0 is the word's MSB
        chips = np.unpackbits(words.astype(">u4").view(np.uint8))
        assert np.array_equal(chips, cb.encode(symbols))


class TestConstruction:
    def test_rejects_non_power_of_two(self):
        with pytest.raises(ValueError, match="power of two"):
            Codebook(np.zeros((3, 32), dtype=np.uint8))

    def test_rejects_duplicate_codewords(self):
        chips = np.zeros((2, 32), dtype=np.uint8)
        with pytest.raises(ValueError, match="distinct"):
            Codebook(chips)

    def test_rejects_wrong_width(self):
        with pytest.raises(ValueError, match="32"):
            Codebook(np.eye(16, 16, dtype=np.uint8))
