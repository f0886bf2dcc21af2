"""Tests for the bit-exact PP-ARQ feedback encoding."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.arq.feedback import (
    FeedbackPacket,
    RetransmissionPacket,
    SegmentData,
    decode_feedback,
    decode_retransmission,
    encode_feedback,
    encode_retransmission,
    feedback_bit_cost,
    gaps_for_segments,
    segment_checksum,
)


class TestGaps:
    def test_full_coverage_no_gaps(self):
        assert gaps_for_segments(((0, 10),), 10) == []

    def test_interior_and_edge_gaps(self):
        gaps = gaps_for_segments(((5, 8), (12, 15)), 20)
        assert gaps == [(0, 5), (8, 12), (15, 20)]

    def test_empty_segments_one_gap(self):
        assert gaps_for_segments((), 7) == [(0, 7)]

    def test_overlap_rejected(self):
        with pytest.raises(ValueError, match="overlap"):
            gaps_for_segments(((0, 5), (3, 8)), 10)

    def test_beyond_packet_rejected(self):
        with pytest.raises(ValueError, match="beyond"):
            gaps_for_segments(((0, 11),), 10)


class TestSegmentChecksum:
    def test_deterministic(self):
        symbols = np.array([1, 2, 3, 4])
        assert segment_checksum(symbols) == segment_checksum(symbols)

    def test_sensitive_to_change(self):
        a = segment_checksum(np.array([1, 2, 3, 4]))
        b = segment_checksum(np.array([1, 2, 3, 5]))
        assert a != b

    def test_odd_length_padded(self):
        assert 0 <= segment_checksum(np.array([7])) <= 255

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            segment_checksum(np.array([16]))


class TestFeedbackRoundtrip:
    def _packet(self):
        segments = ((10, 20), (50, 55))
        checksums = tuple(
            segment_checksum(np.zeros(n, dtype=np.int64))
            for n in (10, 30, 45)
        )
        return FeedbackPacket(
            seq=42, n_symbols=100, segments=segments,
            gap_checksums=checksums,
        )

    def test_roundtrip(self):
        packet = self._packet()
        assert decode_feedback(encode_feedback(packet)) == packet

    def test_ack_roundtrip(self):
        ack = FeedbackPacket(
            seq=1,
            n_symbols=50,
            segments=(),
            gap_checksums=(segment_checksum(np.zeros(50, dtype=np.int64)),),
        )
        assert ack.is_ack
        decoded = decode_feedback(encode_feedback(ack))
        assert decoded.is_ack and decoded.seq == 1

    def test_bit_cost_matches_encoding(self):
        packet = self._packet()
        cost = feedback_bit_cost(packet)
        encoded_bits = len(encode_feedback(packet)) * 8
        assert cost <= encoded_bits < cost + 8  # byte padding only

    def test_checksum_count_validated(self):
        with pytest.raises(ValueError, match="checksums"):
            FeedbackPacket(
                seq=0, n_symbols=10, segments=((0, 5),), gap_checksums=()
            )

    @given(
        st.integers(0, 0xFFFF),
        st.lists(
            st.tuples(st.integers(0, 200), st.integers(1, 30)),
            max_size=6,
        ),
    )
    @settings(max_examples=40, deadline=None)
    def test_roundtrip_property(self, seq, raw_segments):
        n_symbols = 300
        # Normalise to sorted, disjoint segments.
        segments = []
        cursor = 0
        for offset, length in sorted(raw_segments):
            start = max(cursor, offset)
            end = min(start + length, n_symbols)
            if end > start:
                segments.append((start, end))
                cursor = end
        segments = tuple(segments)
        gaps = gaps_for_segments(segments, n_symbols)
        packet = FeedbackPacket(
            seq=seq,
            n_symbols=n_symbols,
            segments=segments,
            gap_checksums=tuple(17 for _ in gaps),
        )
        assert decode_feedback(encode_feedback(packet)) == packet


class TestRetransmissionRoundtrip:
    def _packet(self, rng):
        seg1 = SegmentData(start=4, symbols=rng.integers(0, 16, 6))
        seg2 = SegmentData(start=20, symbols=rng.integers(0, 16, 3))
        spans = ((4, 10), (20, 23))
        gaps = gaps_for_segments(spans, 40)
        return RetransmissionPacket(
            seq=9,
            n_symbols=40,
            segments=(seg1, seg2),
            gap_checksums=tuple(5 for _ in gaps),
        )

    def test_roundtrip(self, rng):
        packet = self._packet(rng)
        decoded = decode_retransmission(encode_retransmission(packet))
        assert decoded.seq == packet.seq
        assert decoded.segment_spans() == packet.segment_spans()
        for a, b in zip(decoded.segments, packet.segments, strict=True):
            assert np.array_equal(a.symbols, b.symbols)
        assert decoded.gap_checksums == packet.gap_checksums

    def test_corrupted_segment_rejected_on_decode(self, rng):
        packet = self._packet(rng)
        encoded = bytearray(encode_retransmission(packet))
        # Flip a bit inside the first segment's symbol data (the field
        # layout places it after seq+len+count+offset+length+crc).
        encoded[10] ^= 0x40
        with pytest.raises(ValueError, match="checksum"):
            decode_retransmission(bytes(encoded))

    def test_segment_validation(self):
        with pytest.raises(ValueError):
            SegmentData(start=-1, symbols=np.array([1]))
