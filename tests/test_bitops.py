"""Tests for repro.utils.bitops: conversions, packing, bit streams."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.utils.bitops import (
    BitReader,
    BitWriter,
    bits_to_bytes,
    bits_to_int,
    bytes_to_bits,
    pack_bits_to_uint32,
    popcount32,
)


class TestByteBitConversions:
    def test_single_byte_msb_first(self):
        assert bytes_to_bits(b"\x80").tolist() == [1, 0, 0, 0, 0, 0, 0, 0]

    def test_known_pattern(self):
        bits = bytes_to_bits(b"\xa5")
        assert bits.tolist() == [1, 0, 1, 0, 0, 1, 0, 1]

    def test_roundtrip_fixed(self):
        data = bytes(range(256))
        assert bits_to_bytes(bytes_to_bits(data)) == data

    def test_bits_to_bytes_rejects_partial_byte(self):
        with pytest.raises(ValueError, match="multiple of 8"):
            bits_to_bytes(np.ones(7, dtype=np.uint8))

    def test_empty(self):
        assert bytes_to_bits(b"").size == 0
        assert bits_to_bytes(np.zeros(0, dtype=np.uint8)) == b""

    @given(st.binary(max_size=200))
    def test_roundtrip_property(self, data):
        assert bits_to_bytes(bytes_to_bits(data)) == data


class TestIntBits:

    def test_bits_to_int_inverse(self):
        assert bits_to_int(bytes_to_bits((1234).to_bytes(2, "big"))) == 1234

    @given(st.integers(min_value=0, max_value=2**32 - 1))
    def test_roundtrip_property(self, value):
        assert bits_to_int(bytes_to_bits(value.to_bytes(4, "big"))) == value


class TestUint32Packing:
    def test_pack_msb_is_chip_zero(self):
        chips = np.zeros((1, 32), dtype=np.uint8)
        chips[0, 0] = 1
        assert pack_bits_to_uint32(chips)[0] == 1 << 31

    def test_pack_lsb_is_chip_31(self):
        chips = np.zeros((1, 32), dtype=np.uint8)
        chips[0, 31] = 1
        assert pack_bits_to_uint32(chips)[0] == 1

    def test_unpack_inverse(self, rng):
        chips = rng.integers(0, 2, size=(50, 32), dtype=np.uint8)
        words = pack_bits_to_uint32(chips)
        # numpy's MSB-first unpack of the big-endian words inverts it
        unpacked = np.unpackbits(words.astype(">u4").view(np.uint8))
        assert np.array_equal(unpacked.reshape(-1, 32), chips)

    def test_wrong_shape_rejected(self):
        with pytest.raises(ValueError, match=r"\(n, 32\)"):
            pack_bits_to_uint32(np.zeros((3, 16), dtype=np.uint8))

    @given(st.lists(st.integers(0, 2**32 - 1), min_size=1, max_size=40))
    def test_roundtrip_from_words(self, values):
        words = np.array(values, dtype=np.uint32)
        chips = np.unpackbits(words.astype(">u4").view(np.uint8))
        again = pack_bits_to_uint32(chips.reshape(-1, 32))
        assert np.array_equal(again, words)


class TestPopcount:
    def test_zero(self):
        assert popcount32(np.array([0], dtype=np.uint32))[0] == 0

    def test_all_ones(self):
        assert popcount32(np.array([0xFFFFFFFF], dtype=np.uint32))[0] == 32

    def test_matches_python_bin(self, rng):
        words = rng.integers(0, 2**32, size=200, dtype=np.uint64).astype(
            np.uint32
        )
        expected = [bin(int(w)).count("1") for w in words]
        assert popcount32(words).tolist() == expected

    def test_2d_shape_preserved(self):
        words = np.array([[1, 3], [7, 15]], dtype=np.uint32)
        assert popcount32(words).tolist() == [[1, 2], [3, 4]]


class TestBitStream:
    def test_write_read_sequence(self):
        w = BitWriter()
        w.write_uint(5, 3).write_uint(1023, 10).write_uint(1, 1)
        r = BitReader(w.getvalue())
        assert r.read_uint(3) == 5
        assert r.read_uint(10) == 1023
        assert r.read_uint(1) == 1

    def test_bit_length_tracks_writes(self):
        w = BitWriter()
        w.write_uint(0, 7)
        assert len(w) == 7
        w.write_uint(0, 8)
        assert len(w) == 15

    def test_getvalue_pads_to_byte(self):
        w = BitWriter()
        w.write_uint(1, 1)
        assert w.getvalue() == b"\x80"

    def test_value_overflow_rejected(self):
        with pytest.raises(ValueError, match="does not fit"):
            BitWriter().write_uint(8, 3)

    def test_reader_eof(self):
        r = BitReader(b"\x00")
        r.read_uint(8)
        with pytest.raises(EOFError):
            r.read_uint(1)

    def test_reader_remaining(self):
        r = BitReader(b"\xff\x00")
        assert r.remaining == 16
        r.read_uint(5)
        assert r.remaining == 11

    def test_read_bytes(self):
        w = BitWriter()
        for byte in b"hi":
            w.write_uint(byte, 8)
        assert BitReader(w.getvalue()).read_bytes(2) == b"hi"

    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=1, max_value=24),
                st.integers(min_value=0),
            ).map(lambda t: (t[0], t[1] % (1 << t[0]))),
            min_size=1,
            max_size=30,
        )
    )
    def test_arbitrary_field_roundtrip(self, fields):
        w = BitWriter()
        for width, value in fields:
            w.write_uint(value, width)
        r = BitReader(w.getvalue())
        for width, value in fields:
            assert r.read_uint(width) == value
