"""Fuzz/robustness tests: corrupt inputs must fail loudly or parse
gracefully — never crash unpredictably or return garbage silently.

A receiver's parsers face adversarial bytes every time a collision
mangles a frame, so "never crashes on arbitrary symbol corruption" is a
real protocol property, not test theatre.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.arq.feedback import decode_feedback, decode_retransmission
from repro.link.frame import (
    PprFrame,
    parse_header_bytes,
    parse_trailer_bytes,
    payload_slice,
)
from repro.link.schemes import PprScheme
from repro.phy.spreading import bytes_to_symbols, symbols_to_bytes
from repro.phy.symbols import SoftPacket
from repro.utils.bitops import BitReader
from repro.utils.rng import ensure_rng


class TestFrameParsingFuzz:
    @given(
        st.binary(min_size=1, max_size=100),
        st.lists(
            st.tuples(st.integers(0, 300), st.integers(0, 15)),
            min_size=1,
            max_size=30,
        ),
    )
    @settings(max_examples=40, deadline=None)
    def test_corrupted_body_never_crashes(self, payload, corruptions):
        """Arbitrary symbol corruption of a valid frame body parses
        without exceptions; CRC flags must reflect tampering of the
        covered fields."""
        frame = PprFrame.build(src=1, dst=2, seq=3, wire_payload=payload)
        symbols = bytes_to_symbols(frame.body_bytes())
        for pos, value in corruptions:
            symbols[pos % symbols.size] = value
        region = payload_slice(symbols.size)
        header, header_ok = parse_header_bytes(
            symbols_to_bytes(symbols[: region.start])
        )
        _, trailer_ok = parse_trailer_bytes(
            symbols_to_bytes(symbols[region.stop :])
        )
        assert isinstance(header_ok, bool)
        assert isinstance(trailer_ok, bool)
        if header_ok and trailer_ok:
            # Both CRC-16s passing after corruption is possible but
            # the parsed lengths must at least be structurally sane.
            assert header.length >= 0

    @given(st.lists(st.integers(0, 15), min_size=40, max_size=200))
    @settings(max_examples=40, deadline=None)
    def test_random_symbols_parse_or_reject(self, symbol_list):
        symbols = np.array(symbol_list, dtype=np.int64)
        if symbols.size % 2:
            symbols = symbols[:-1]
        region = payload_slice(symbols.size)
        # Random bytes pass a CRC-16 with probability 2^-16 per field;
        # whatever the flags, parsing must terminate with a result.
        parse_header_bytes(symbols_to_bytes(symbols[: region.start]))
        parse_trailer_bytes(symbols_to_bytes(symbols[region.stop :]))
        assert symbols_to_bytes(symbols[region]) is not None


class TestFeedbackDecodingFuzz:
    @given(st.binary(min_size=0, max_size=60))
    @settings(max_examples=60, deadline=None)
    def test_arbitrary_bytes_never_crash_decoder(self, data):
        """Truncated or garbage feedback raises a clean error or
        decodes into a structurally valid packet."""
        try:
            packet = decode_feedback(data)
        except (EOFError, ValueError):
            return
        assert packet.n_symbols >= 0
        for start, end in packet.segments:
            assert end >= start

    @given(st.binary(min_size=0, max_size=80))
    @settings(max_examples=60, deadline=None)
    def test_arbitrary_bytes_never_crash_retransmission_decoder(
        self, data
    ):
        try:
            packet = decode_retransmission(data)
        except (EOFError, ValueError):
            return
        for seg in packet.segments:
            assert 0 <= seg.start <= seg.end

    def test_truncated_reader_raises_eof(self):
        reader = BitReader(b"\xff")
        reader.read_uint(6)
        with pytest.raises(EOFError):
            reader.read_uint(6)


class TestSchemeFuzz:
    @given(
        st.integers(0, 2**32 - 1),
        st.integers(8, 60),
    )
    @settings(max_examples=30, deadline=None)
    def test_ppr_delivery_invariants(self, seed, n_bytes):
        """For any channel outcome: delivered ⊆ payload, accounting
        adds up, and zero hints imply full delivery of correct bits."""
        rng = ensure_rng(seed)
        scheme = PprScheme(eta=6.0)
        payload = bytes(rng.integers(0, 256, n_bytes, dtype=np.uint8))
        wire = scheme.encode_payload(payload)
        from repro.phy.spreading import bytes_to_symbols

        truth = bytes_to_symbols(wire)
        symbols = truth.copy()
        hints = np.zeros(truth.size)
        n_corrupt = int(rng.integers(0, truth.size // 2))
        if n_corrupt:
            idx = rng.choice(truth.size, n_corrupt, replace=False)
            symbols[idx] = (symbols[idx] + rng.integers(1, 16)) % 16
            hints[idx] = rng.uniform(0, 20, n_corrupt)
        rx = SoftPacket(symbols=symbols, hints=hints, truth=truth)
        result = scheme.deliver(rx)
        assert result.delivered_correct_bits >= 0
        assert result.delivered_incorrect_bits >= 0
        assert (
            result.delivered_correct_bits + result.delivered_incorrect_bits
            <= result.payload_bits
        )
        if n_corrupt == 0:
            assert result.frame_passed
            assert result.delivered_correct_bits == result.payload_bits
