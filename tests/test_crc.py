"""Tests for repro.utils.crc against published check values."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.utils.crc import (
    CRC8_ATM,
    CRC16_CCITT,
    CRC32_IEEE,
    crc8,
    crc16,
)
from repro.utils.rng import ensure_rng

CHECK_INPUT = b"123456789"


class TestKnownVectors:
    """Rocksoft catalogue check values for the standard input."""

    def test_crc32_ieee(self):
        assert CRC32_IEEE.compute(CHECK_INPUT) == 0xCBF43926

    def test_crc16_ccitt_false(self):
        assert crc16(CHECK_INPUT) == 0x29B1

    def test_crc8_atm(self):
        assert crc8(CHECK_INPUT) == 0xF4

    def test_crc32_empty(self):
        # CRC-32 of the empty string is 0 (init ^ xorout).
        assert CRC32_IEEE.compute(b"") == 0

    def test_crc32_matches_zlib(self):
        import zlib

        for data in (b"", b"a", b"hello world", bytes(range(256))):
            assert CRC32_IEEE.compute(data) == zlib.crc32(data)


class TestProperties:


    def test_compute_bytes_width(self):
        assert len(CRC32_IEEE.compute_bytes(b"x")) == 4
        assert len(CRC16_CCITT.compute_bytes(b"x")) == 2
        assert len(CRC8_ATM.compute_bytes(b"x")) == 1

    def test_compute_bytes_big_endian(self):
        value = CRC32_IEEE.compute(CHECK_INPUT)
        assert CRC32_IEEE.compute_bytes(CHECK_INPUT) == value.to_bytes(
            4, "big"
        )

    @given(st.binary(min_size=1, max_size=100), st.integers(0, 799))
    def test_single_bit_flip_always_detected(self, data, flip):
        """A CRC detects every single-bit error by construction."""
        bit = flip % (len(data) * 8)
        corrupted = bytearray(data)
        corrupted[bit // 8] ^= 0x80 >> (bit % 8)
        if bytes(corrupted) != data:
            assert CRC32_IEEE.compute(bytes(corrupted)) != CRC32_IEEE.compute(data)
            assert crc16(bytes(corrupted)) != crc16(data)
            assert crc8(bytes(corrupted)) != crc8(data)

    @given(st.binary(max_size=60))
    def test_deterministic(self, data):
        assert CRC32_IEEE.compute(data) == CRC32_IEEE.compute(data)

    def test_different_algorithms_disagree(self):
        # Not a mathematical necessity but a sanity check that the
        # three configured algorithms are genuinely distinct.
        data = b"softphy hints"
        values = {
            CRC32_IEEE.compute(data) & 0xFF,
            crc16(data) & 0xFF,
            crc8(data),
        }
        assert len(values) >= 2


def _bit_serial_crc(alg, data: bytes) -> int:
    """Naive bit-at-a-time CRC — an implementation-independent
    reference for the table-driven engine."""
    mask = (1 << alg.width) - 1
    top = 1 << (alg.width - 1)
    reg = alg.init
    for byte in data:
        if alg.refin:
            byte = _reflect_int(byte, 8)
        reg ^= byte << (alg.width - 8)
        reg &= mask
        for _ in range(8):
            reg = ((reg << 1) ^ alg.poly) & mask if reg & top else (
                reg << 1
            ) & mask
    if alg.refout:
        reg = _reflect_int(reg, alg.width)
    return (reg ^ alg.xorout) & mask


def _reflect_int(value: int, width: int) -> int:
    out = 0
    for _ in range(width):
        out = (out << 1) | (value & 1)
        value >>= 1
    return out


class TestAgainstIndependentReferences:
    """Property tests pinning all three algorithms, empty message
    included, against implementations that share no code with the
    table-driven engine."""

    @given(st.binary(max_size=200))
    def test_crc32_matches_zlib_any_length(self, data):
        import zlib

        assert CRC32_IEEE.compute(data) == zlib.crc32(data)

    @given(st.binary(max_size=120))
    def test_all_algorithms_match_bit_serial(self, data):
        for alg in (CRC32_IEEE, CRC16_CCITT, CRC8_ATM):
            want = _bit_serial_crc(alg, data)
            assert alg.compute(data) == want, (
                f"{alg.name} diverges from the bit-serial reference"
            )
            assert alg.compute_table(data) == want, alg.name

    @given(st.binary(max_size=1500))
    def test_kernels_match_the_byte_table(self, data):
        """CRC-32 via zlib, CRC-16 via binascii and CRC-8's specialised
        loop give the byte table's values, for every buffer type
        callers pass."""
        for alg in (CRC32_IEEE, CRC16_CCITT, CRC8_ATM):
            want = alg.compute_table(data)
            for buffer in (data, bytearray(data), memoryview(data)):
                assert alg.compute(buffer) == want, alg.name

    def test_crc8_kernel_is_the_table_loop(self):
        """CRC-8's own kernel equals the generic byte-table loop on
        the empty message and on seeded random messages."""
        rng = ensure_rng(8)
        messages = [b""] + [
            rng.integers(0, 256, n, dtype=np.uint8).tobytes()
            for n in (1, 2, 7, 64, 750)
        ]
        for data in messages:
            assert CRC8_ATM.compute(data) == CRC8_ATM.compute_table(data)

    def test_known_answer_vectors(self):
        # Rocksoft catalogue check values plus hand-derivable cases.
        vectors = [
            (CRC16_CCITT, b"", 0xFFFF),  # init, no reflection, xorout 0
            (CRC16_CCITT, b"123456789", 0x29B1),
            (CRC16_CCITT, b"A", 0xB915),
            (CRC8_ATM, b"", 0x00),
            (CRC8_ATM, b"123456789", 0xF4),
            (CRC8_ATM, b"\x00", 0x00),
            (CRC8_ATM, b"A", 0xC0),
            (CRC32_IEEE, b"", 0x00000000),
            (CRC32_IEEE, b"123456789", 0xCBF43926),
        ]
        for alg, data, expected in vectors:
            assert alg.compute(data) == expected, (alg.name, data)


class TestChecksumMany:
    @given(
        st.integers(0, 40).flatmap(
            lambda n: st.lists(
                st.binary(min_size=n, max_size=n), min_size=1, max_size=12
            )
        )
    )
    def test_matches_per_row_compute(self, messages):
        import numpy as np

        rows = np.frombuffer(b"".join(messages), dtype=np.uint8).reshape(
            len(messages), -1
        )
        for alg in (CRC32_IEEE, CRC16_CCITT, CRC8_ATM):
            got = alg.checksum_many(rows)
            want = [alg.compute(m) for m in messages]
            assert got.tolist() == want, alg.name

    def test_full_width_rows_without_lengths(self):
        import numpy as np

        rows = np.frombuffer(
            b"123456789987654321", dtype=np.uint8
        ).reshape(2, 9)
        got = CRC32_IEEE.checksum_many(rows)
        assert got.tolist() == [
            CRC32_IEEE.compute(b"123456789"),
            CRC32_IEEE.compute(b"987654321"),
        ]

    def test_validation(self):
        import numpy as np

        with pytest.raises(ValueError, match="2-D"):
            CRC32_IEEE.checksum_many(np.zeros(4, dtype=np.uint8))
