"""Tests for byte/symbol conversions (DSSS spreading maps)."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.phy.spreading import bytes_to_symbols, symbols_to_bytes


class TestNibbleOrder:
    def test_low_nibble_first(self):
        # 802.15.4 sends the low nibble of each byte first.
        assert bytes_to_symbols(b"\xa3").tolist() == [3, 10]

    def test_symbols_to_bytes_inverse(self):
        assert symbols_to_bytes(np.array([3, 10])) == b"\xa3"

    def test_multi_byte(self):
        assert bytes_to_symbols(b"\x12\x34").tolist() == [2, 1, 4, 3]


class TestBitSymbolConversions:


    def test_rejects_out_of_range_symbols(self):
        with pytest.raises(ValueError):
            symbols_to_bytes(np.array([16, 0]))

    def test_other_symbol_widths(self):
        # 0xB4 = 0b10_11_01_00, lowest pair first
        symbols = bytes_to_symbols(b"\xb4", bits_per_symbol=2)
        assert symbols.tolist() == [0, 1, 3, 2]
        assert symbols_to_bytes(symbols, bits_per_symbol=2) == b"\xb4"


class TestByteRoundtrips:
    @given(st.binary(max_size=120))
    def test_bytes_symbols_roundtrip(self, data):
        assert symbols_to_bytes(bytes_to_symbols(data)) == data

    def test_odd_symbol_count_rejected(self):
        with pytest.raises(ValueError, match="multiple"):
            symbols_to_bytes(np.array([1, 2, 3]))

    def test_invalid_width_rejected(self):
        with pytest.raises(ValueError, match="divide 8"):
            bytes_to_symbols(b"ab", bits_per_symbol=3)
