"""Tests for the PP-ARQ protocol state machines and session driver."""

import numpy as np
import pytest

from repro.arq.feedback import FeedbackPacket, segment_checksum
from repro.arq.fullarq import FullPacketArqSession
from repro.arq.protocol import (
    MAX_ROUNDS,
    PpArqReceiver,
    PpArqSender,
    PpArqSession,
    _merge_ranges,
)
from repro.phy.chipchannel import transmit_chipwords
from repro.phy.spreading import bytes_to_symbols
from repro.phy.symbols import SoftPacket
from repro.utils.crc import CRC32_IEEE
from repro.utils.rng import ensure_rng


def _soft(symbols, hints=None, truth=None):
    symbols = np.asarray(symbols, dtype=np.int64)
    return SoftPacket(
        symbols=symbols,
        hints=np.zeros(symbols.size) if hints is None else np.asarray(hints),
        truth=symbols if truth is None else truth,
    )


def _clean_channel(symbols):
    return _soft(symbols)


def _make_bursty_channel(codebook, rng, burst=(0.2, 0.5), p_burst=0.4):
    def channel(symbols):
        symbols = np.asarray(symbols, dtype=np.int64)
        if symbols.size == 0:
            return _soft(symbols)
        p = np.full(symbols.size, 0.005)
        frac = rng.uniform(*burst)
        length = max(1, int(frac * symbols.size))
        start = rng.integers(0, max(1, symbols.size - length))
        p[start : start + length] = p_burst
        words = codebook.encode_words(symbols)
        received = transmit_chipwords(words, p, rng)
        decoded, dist = codebook.decode_hard(received)
        return SoftPacket(
            symbols=decoded, hints=dist.astype(float), truth=symbols
        )

    return channel


class TestSender:
    def test_ack_releases_state(self):
        sender = PpArqSender()
        wire = bytes_to_symbols(b"data" + CRC32_IEEE.compute_bytes(b"data"))
        sender.register_packet(1, wire)
        ack = FeedbackPacket(
            seq=1,
            n_symbols=wire.size,
            segments=(),
            gap_checksums=(segment_checksum(wire),),
        )
        assert sender.handle_feedback(ack) is None
        with pytest.raises(KeyError, match="unknown sequence"):
            sender.handle_feedback(ack)

    def test_retransmits_requested_segment(self):
        sender = PpArqSender()
        wire = bytes_to_symbols(b"0123456789")
        sender.register_packet(2, wire)
        from repro.arq.feedback import gaps_for_segments

        segments = ((4, 8),)
        gaps = gaps_for_segments(segments, wire.size)
        fb = FeedbackPacket(
            seq=2,
            n_symbols=wire.size,
            segments=segments,
            gap_checksums=tuple(
                segment_checksum(wire[s:e]) for s, e in gaps
            ),
        )
        rt = sender.handle_feedback(fb)
        assert rt.segment_spans() == ((4, 8),)
        assert np.array_equal(rt.segments[0].symbols, wire[4:8])

    def test_mismatched_gap_checksum_widens_retransmission(self):
        """The miss-recovery path: a gap the receiver thinks is good
        but whose checksum disagrees gets retransmitted too."""
        sender = PpArqSender()
        wire = bytes_to_symbols(b"0123456789")
        sender.register_packet(3, wire)
        from repro.arq.feedback import gaps_for_segments

        segments = ((4, 8),)
        gaps = gaps_for_segments(segments, wire.size)
        checksums = [segment_checksum(wire[s:e]) for s, e in gaps]
        checksums[0] ^= 0xFF  # receiver's copy of gap 0 is wrong
        fb = FeedbackPacket(
            seq=3,
            n_symbols=wire.size,
            segments=segments,
            gap_checksums=tuple(checksums),
        )
        rt = sender.handle_feedback(fb)
        # Gap (0,4) merged with request (4,8) into one segment.
        assert rt.segment_spans() == ((0, 8),)

    def test_unknown_seq_rejected(self):
        sender = PpArqSender()
        fb = FeedbackPacket(
            seq=9, n_symbols=4, segments=(), gap_checksums=(0,)
        )
        with pytest.raises(KeyError):
            sender.handle_feedback(fb)

    def test_merge_ranges(self):
        assert _merge_ranges([(0, 3), (3, 5), (8, 9)]) == [(0, 5), (8, 9)]
        assert _merge_ranges([(2, 6), (0, 4)]) == [(0, 6)]
        assert _merge_ranges([]) == []


class TestReceiver:
    def test_complete_after_clean_reception(self):
        receiver = PpArqReceiver()
        payload = b"hello pp-arq"
        wire = payload + CRC32_IEEE.compute_bytes(payload)
        receiver.receive_data(1, _soft(bytes_to_symbols(wire)))
        assert receiver.is_complete(1)
        assert receiver.reassembled_payload(1) == payload

    def test_incomplete_with_bad_symbols(self):
        receiver = PpArqReceiver()
        payload = b"hello pp-arq"
        wire = payload + CRC32_IEEE.compute_bytes(payload)
        symbols = bytes_to_symbols(wire)
        corrupted = symbols.copy()
        corrupted[3] = (corrupted[3] + 1) % 16
        hints = np.zeros(symbols.size)
        hints[3] = 12.0
        receiver.receive_data(1, _soft(corrupted, hints, truth=symbols))
        assert not receiver.is_complete(1)
        fb = receiver.build_feedback(1)
        assert any(s <= 3 < e for s, e in fb.segments)

    def test_second_reception_improves_symbols(self):
        receiver = PpArqReceiver()
        truth = bytes_to_symbols(b"abcdef")
        bad = truth.copy()
        bad[0] = (bad[0] + 1) % 16
        hints_bad = np.zeros(truth.size)
        hints_bad[0] = 10.0
        receiver.receive_data(5, _soft(bad, hints_bad, truth=truth))
        receiver.receive_data(5, _soft(truth))
        state = receiver._states[5]
        assert state.symbols[0] == truth[0]

    def test_reassembled_payload_requires_completion(self):
        receiver = PpArqReceiver()
        with pytest.raises(KeyError):
            receiver.build_feedback(1)
        assert not receiver.is_complete(1)
        with pytest.raises(ValueError, match="not complete"):
            receiver.reassembled_payload(1)

    def test_decoded_symbols_accessor(self):
        """Public read-only view of the reassembly buffer, so sessions
        need not reach into the private per-packet state."""
        receiver = PpArqReceiver()
        truth = bytes_to_symbols(b"abcdef")
        receiver.receive_data(2, _soft(truth))
        symbols = receiver.decoded_symbols(2)
        assert np.array_equal(symbols, truth)
        assert not symbols.flags.writeable
        with pytest.raises((ValueError, RuntimeError)):
            symbols[0] = 1
        with pytest.raises(KeyError):
            receiver.decoded_symbols(99)


class TestSessions:
    def test_clean_channel_single_round(self):
        session = PpArqSession(_clean_channel)
        log = session.transfer(1, b"payload bytes here")
        assert log.delivered
        assert log.rounds == 1
        assert log.total_retransmit_bytes == 0

    def test_bursty_channel_converges(self, codebook, rng):
        channel = _make_bursty_channel(codebook, rng)
        session = PpArqSession(channel)
        payload = bytes(rng.integers(0, 256, 200, dtype=np.uint8))
        log = session.transfer(7, payload)
        assert log.delivered
        assert session.receiver.reassembled_payload(7) == payload

    def test_retransmissions_smaller_than_packet(self, codebook, rng):
        channel = _make_bursty_channel(codebook, rng, burst=(0.1, 0.3))
        session = PpArqSession(channel)
        payload = bytes(rng.integers(0, 256, 250, dtype=np.uint8))
        total_sizes = []
        for seq in range(10):
            log = session.transfer(seq, payload)
            total_sizes.extend(log.retransmit_packet_bytes)
        assert total_sizes, "bursty channel should force retransmissions"
        assert np.median(total_sizes) < 254

    def test_max_rounds_limits_looping(self, codebook, rng):
        def hopeless_channel(symbols):
            symbols = np.asarray(symbols, dtype=np.int64)
            if symbols.size == 0:
                return _soft(symbols)
            garbage = (symbols + 1) % 16
            return SoftPacket(
                symbols=garbage,
                hints=np.zeros(symbols.size),  # all misses!
                truth=symbols,
            )

        session = PpArqSession(hopeless_channel)
        log = session.transfer(1, b"doomed")
        assert log.rounds == MAX_ROUNDS
        assert not log.delivered


class TestFullArqBaseline:
    def test_clean_channel_one_attempt(self):
        session = FullPacketArqSession(_clean_channel)
        log = session.transfer(1, b"easy")
        assert log.delivered and log.attempts == 1
        assert log.total_retransmit_bytes == 0

    def test_retransmits_whole_packets(self, codebook, rng):
        channel = _make_bursty_channel(
            codebook, rng, burst=(0.3, 0.5), p_burst=0.45
        )
        session = FullPacketArqSession(channel)
        payload = bytes(rng.integers(0, 256, 100, dtype=np.uint8))
        log = session.transfer(1, payload)
        if log.retransmit_packet_bytes:
            assert all(
                size == 104 for size in log.retransmit_packet_bytes
            )


class TestCrossComparison:
    def test_pparq_cheaper_than_full_arq(self, codebook):
        """On the same bursty channel statistics, PP-ARQ's byte cost is
        below whole-packet ARQ's — Table 1's headline claim."""
        rng_a = ensure_rng(5)
        rng_b = ensure_rng(5)
        pp = PpArqSession(_make_bursty_channel(codebook, rng_a))
        full = FullPacketArqSession(_make_bursty_channel(codebook, rng_b))
        payload = bytes((np.arange(200) % 256).astype(np.uint8))
        pp_bytes = sum(
            pp.transfer(seq, payload).total_retransmit_bytes
            for seq in range(12)
        )
        full_bytes = sum(
            full.transfer(seq, payload).total_retransmit_bytes
            for seq in range(12)
        )
        assert pp_bytes < full_bytes
