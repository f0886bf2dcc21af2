"""Tests for the PPR frame layout (paper Fig. 2)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.link.frame import (
    HEADER_BYTES,
    SYMBOLS_PER_BYTE,
    TRAILER_BYTES,
    FrameHeader,
    PprFrame,
    body_symbol_count,
    payload_slice,
    parse_header_bytes,
    parse_trailer_bytes,
)
from repro.phy.spreading import bytes_to_symbols, symbols_to_bytes
from repro.phy.sync import EFD_SYMBOLS, SFD_SYMBOLS, SYNC_SYMBOLS


class TestFrameHeader:
    def test_pack_length(self):
        header = FrameHeader(length=100, src=1, dst=2, seq=3)
        assert len(header.pack()) == HEADER_BYTES

    def test_pack_parse_roundtrip(self):
        header = FrameHeader(length=1500, src=12, dst=26, seq=999)
        parsed, ok = parse_header_bytes(header.pack())
        assert ok
        assert parsed == header

    def test_crc_detects_corruption(self):
        data = bytearray(FrameHeader(10, 1, 2, 3).pack())
        data[0] ^= 0x01
        _, ok = parse_header_bytes(bytes(data))
        assert not ok

    def test_parse_never_raises_on_garbage(self, rng):
        for _ in range(20):
            junk = bytes(rng.integers(0, 256, HEADER_BYTES, dtype=np.uint8))
            parsed, ok = parse_header_bytes(junk)
            assert isinstance(ok, bool)

    def test_wrong_length_rejected(self):
        with pytest.raises(ValueError, match="exactly"):
            parse_header_bytes(b"short")

    def test_field_range_validated(self):
        with pytest.raises(ValueError, match="16 bits"):
            FrameHeader(length=0x10000, src=0, dst=0, seq=0)

    def test_trailer_same_layout(self):
        header = FrameHeader(5, 6, 7, 8)
        parsed, ok = parse_trailer_bytes(header.pack())
        assert ok and parsed == header


class TestPprFrame:
    def _frame(self, payload=b"hello world!"):
        return PprFrame.build(src=3, dst=24, seq=17, wire_payload=payload)

    def test_body_symbol_count(self):
        frame = self._frame()
        expected = body_symbol_count(len(frame.wire_payload))
        assert bytes_to_symbols(frame.body_bytes()).size == expected
        assert expected == SYMBOLS_PER_BYTE * (
            HEADER_BYTES + len(frame.wire_payload) + TRAILER_BYTES
        )

    def test_on_air_includes_sync_fields(self):
        frame = self._frame()
        air = frame.on_air_symbols()
        assert air.size == bytes_to_symbols(frame.body_bytes()).size + 2 * SYNC_SYMBOLS
        assert air[:8].tolist() == [0] * 8
        assert tuple(air[8:10]) == SFD_SYMBOLS
        assert tuple(air[-2:]) == EFD_SYMBOLS

    def test_header_trailer_replicated(self):
        frame = self._frame()
        body = frame.body_bytes()
        assert body[:HEADER_BYTES] == body[-TRAILER_BYTES:]

    def test_parse_body_roundtrip(self):
        frame = self._frame(b"some payload bytes")
        symbols = bytes_to_symbols(frame.body_bytes())
        region = payload_slice(symbols.size)
        header, ok = parse_header_bytes(symbols_to_bytes(symbols[: region.start]))
        assert ok and header == frame.header
        assert symbols_to_bytes(symbols[region]) == b"some payload bytes"

    def test_parse_detects_corrupt_header_keeps_trailer(self):
        frame = self._frame()
        symbols = bytes_to_symbols(frame.body_bytes())
        symbols[0] = (symbols[0] + 1) % 16
        region = payload_slice(symbols.size)
        _, header_ok = parse_header_bytes(symbols_to_bytes(symbols[: region.start]))
        _, trailer_ok = parse_trailer_bytes(symbols_to_bytes(symbols[region.stop :]))
        assert not header_ok
        assert trailer_ok  # postamble path still viable

    def test_payload_symbol_range(self):
        frame = self._frame(b"abcd")
        region = payload_slice(bytes_to_symbols(frame.body_bytes()).size)
        assert region.start == SYMBOLS_PER_BYTE * HEADER_BYTES
        assert region.stop - region.start == SYMBOLS_PER_BYTE * 4
        assert symbols_to_bytes(bytes_to_symbols(frame.body_bytes())[region]) == b"abcd"

    def test_oversized_payload_rejected(self):
        with pytest.raises(ValueError, match="too large"):
            PprFrame.build(0, 1, 0, b"x" * 70000)

    def test_negative_length_rejected(self):
        with pytest.raises(ValueError):
            body_symbol_count(-1)

    @given(st.binary(max_size=300))
    @settings(max_examples=30, deadline=None)
    def test_roundtrip_property(self, payload):
        frame = PprFrame.build(src=1, dst=2, seq=3, wire_payload=payload)
        symbols = bytes_to_symbols(frame.body_bytes())
        region = payload_slice(symbols.size)
        header, header_ok = parse_header_bytes(symbols_to_bytes(symbols[: region.start]))
        _, trailer_ok = parse_trailer_bytes(symbols_to_bytes(symbols[region.stop :]))
        assert header_ok and trailer_ok
        assert symbols_to_bytes(symbols[region]) == payload
        assert header.length == len(payload)
