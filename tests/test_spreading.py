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


class TestByteRoundtrips:
    @given(st.binary(max_size=120))
    def test_bytes_symbols_roundtrip(self, data):
        assert symbols_to_bytes(bytes_to_symbols(data)) == data

    def test_odd_symbol_count_rejected(self):
        with pytest.raises(ValueError, match="multiple"):
            symbols_to_bytes(np.array([1, 2, 3]))
