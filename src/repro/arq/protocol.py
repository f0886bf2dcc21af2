"""PP-ARQ sender/receiver state machines and the session driver (§5.2).

Protocol round trip:

1. The sender transmits the full packet (wire payload = application
   payload + CRC-32, exactly the PPR scheme's frame).
2. The receiver decodes (possibly partially), labels codewords with the
   threshold rule, runs the Eq. 4/5 DP, and sends feedback: requested
   segments plus CRC-8s of the gaps it believes correct.
3. The sender checks the receiver's gap checksums against the sent
   truth.  A mismatched gap means SoftPHY *missed* an error there
   (§7.4.1), so the sender widens the retransmission to cover that gap.
   It then retransmits the union of segments, with per-segment CRCs and
   its own gap checksums.
4. The receiver patches verified segments, confirms gaps against the
   sender's checksums, and loops until the packet CRC-32 verifies.

Modelling note (documented substitution): the *structured fields* of
feedback and retransmission packets (offsets, lengths, checksums) are
assumed to arrive intact, while retransmitted *data symbols* cross the
same lossy channel as ordinary data.  This mirrors the paper's
implementation, where control information rides in robustly-coded
frames and the streaming-ACK reverse link is itself protected, and it
keeps the accounting honest: every retransmitted symbol can be
corrupted again and re-requested.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.arq.chunking import plan_chunks
from repro.arq.feedback import (
    FeedbackPacket,
    RetransmissionPacket,
    SegmentData,
    encode_retransmission,
    feedback_bit_cost,
    gaps_for_segments,
    segment_checksum,
)
from repro.arq.runlength import PAPER_ETA, RunLengthPacket
from repro.phy.symbols import SoftPacket
from repro.utils.crc import CRC32_IEEE

# A channel takes transmitted symbols and returns the receiver's view:
# decoded symbols + hints (a SoftPacket with truth attached).
ChannelFn = Callable[[np.ndarray], SoftPacket]

# Rounds a session spends on one packet before giving up.
MAX_ROUNDS = 50

# Bits of each good run's checksum in the receiver's feedback.
_RUN_CHECKSUM_BITS = 8


@dataclass
class TransferLog:
    """Byte/bit accounting for one PP-ARQ packet transfer."""

    seq: int
    rounds: int = 0
    data_symbols_sent: int = 0
    retransmit_packet_bytes: list[int] = field(default_factory=list)
    feedback_bits: list[int] = field(default_factory=list)
    delivered: bool = False

    @property
    def total_retransmit_bytes(self) -> int:
        """Bytes of all retransmission packets for this transfer."""
        return sum(self.retransmit_packet_bytes)


class PpArqSender:
    """Sender side: stores sent packets, answers feedback."""

    def __init__(self) -> None:
        self._packets: dict[int, np.ndarray] = {}

    def register_packet(self, seq: int, wire_symbols: np.ndarray) -> None:
        """Remember the transmitted wire-payload symbols for ``seq``."""
        self._packets[seq] = np.asarray(wire_symbols, dtype=np.int64).copy()

    def release(self, seq: int) -> None:
        """Drop state for an acknowledged packet."""
        self._packets.pop(seq, None)

    def handle_feedback(
        self, feedback: FeedbackPacket
    ) -> RetransmissionPacket | None:
        """Build the retransmission a feedback packet asks for.

        Returns ``None`` for a pure ACK.  Receiver gap checksums that
        do not match the sent data widen the retransmission to the
        whole mismatched gap (the miss-recovery path).
        """
        if feedback.seq not in self._packets:
            raise KeyError(f"unknown sequence number {feedback.seq}")
        truth = self._packets[feedback.seq]
        if feedback.n_symbols != truth.size:
            raise ValueError(
                f"feedback claims {feedback.n_symbols} symbols, sender "
                f"has {truth.size}"
            )
        requested = list(feedback.segments)
        gaps = gaps_for_segments(feedback.segments, truth.size)
        for (start, end), rx_checksum in zip(gaps, feedback.gap_checksums, strict=True):
            if segment_checksum(truth[start:end]) != rx_checksum:
                requested.append((start, end))
        if not requested:
            # A genuine ACK: nothing requested AND every gap checksum
            # matches.  An empty request with a bad checksum is a miss
            # storm (incorrect codewords all labelled good), which must
            # trigger retransmission, not release.
            self.release(feedback.seq)
            return None
        requested.sort()
        merged = _merge_ranges(requested)
        segments = tuple(
            SegmentData(start=start, symbols=truth[start:end])
            for start, end in merged
        )
        final_gaps = gaps_for_segments(
            tuple(merged), truth.size
        )
        gap_checksums = tuple(
            segment_checksum(truth[start:end]) for start, end in final_gaps
        )
        return RetransmissionPacket(
            seq=feedback.seq,
            n_symbols=truth.size,
            segments=segments,
            gap_checksums=gap_checksums,
        )


def _merge_ranges(ranges: list[tuple[int, int]]) -> list[tuple[int, int]]:
    """Merge overlapping/adjacent [start, end) ranges."""
    merged: list[tuple[int, int]] = []
    for start, end in sorted(ranges):
        if merged and start <= merged[-1][1]:
            merged[-1] = (merged[-1][0], max(merged[-1][1], end))
        else:
            merged.append((start, end))
    return merged


@dataclass
class _ReceiverState:
    """Receiver-side per-packet reassembly state."""

    symbols: np.ndarray
    hints: np.ndarray
    verified: np.ndarray  # symbols confirmed correct via checksums


class PpArqReceiver:
    """Receiver side: reassembles packets across PP-ARQ rounds, labelling
    codewords at the paper's threshold ``PAPER_ETA``."""

    def __init__(self) -> None:
        self._states: dict[int, _ReceiverState] = {}

    def receive_data(self, seq: int, soft: SoftPacket) -> None:
        """Ingest the initial (or a repeated) full-packet reception.

        If the packet is already partially reassembled, the new copy
        only replaces symbols whose stored hint is worse.
        """
        if seq not in self._states:
            self._states[seq] = _ReceiverState(
                symbols=soft.symbols.copy(),
                hints=soft.hints.copy(),
                verified=np.zeros(soft.symbols.size, dtype=bool),
            )
            return
        state = self._states[seq]
        if state.symbols.size != soft.symbols.size:
            raise ValueError(
                f"packet {seq} length changed between receptions"
            )
        better = (soft.hints < state.hints) & ~state.verified
        state.symbols[better] = soft.symbols[better]
        state.hints[better] = soft.hints[better]

    def build_feedback(self, seq: int) -> FeedbackPacket:
        """Label, run the DP, and produce the feedback packet."""
        state = self._require(seq)
        good = (state.hints <= PAPER_ETA) | state.verified
        if good.all() and not self.is_complete(seq):
            # Miss storm: every symbol *looks* good but the packet
            # CRC-32 disagrees, so the hints (and possibly a colliding
            # run checksum) are lying.  Fall back to re-requesting
            # everything not yet verified — or the whole packet if
            # even the verified set can't be trusted.
            good = state.verified.copy()
            if good.all():
                good[:] = False
        runs = RunLengthPacket.from_labels(good)
        plan = plan_chunks(runs, checksum_bits=_RUN_CHECKSUM_BITS)
        gaps = gaps_for_segments(plan.segments, state.symbols.size)
        gap_checksums = tuple(
            segment_checksum(state.symbols[start:end])
            for start, end in gaps
        )
        return FeedbackPacket(
            seq=seq,
            n_symbols=state.symbols.size,
            segments=plan.segments,
            gap_checksums=gap_checksums,
        )

    def receive_retransmission(
        self,
        packet: RetransmissionPacket,
        channel_view: SoftPacket | None = None,
    ) -> None:
        """Patch retransmitted segments into the reassembly buffer.

        ``channel_view`` carries the symbols/hints as actually received
        across the lossy channel (same length as the retransmitted
        symbol concatenation, in segment order).  Without it the
        retransmission is treated as clean (useful for unit tests).
        Segments whose received data fails the segment CRC stay
        unpatched — their hints are forced bad so the next round
        re-requests them.
        """
        state = self._require(packet.seq)
        if packet.n_symbols != state.symbols.size:
            raise ValueError("retransmission disagrees on packet length")
        cursor = 0
        for seg in packet.segments:
            length = int(seg.symbols.size)
            if channel_view is None:
                rx_symbols = seg.symbols
                rx_hints = np.zeros(length, dtype=np.float64)
            else:
                rx_symbols = channel_view.symbols[cursor : cursor + length]
                rx_hints = channel_view.hints[cursor : cursor + length]
            cursor += length
            span = slice(seg.start, seg.start + length)
            expected = segment_checksum(seg.symbols)
            actual = segment_checksum(rx_symbols)
            if expected == actual:
                state.symbols[span] = rx_symbols
                state.hints[span] = 0.0
                state.verified[span] = True
            else:
                # The retransmission itself crossed a lossy channel:
                # treat it like any partial reception.  Symbols whose
                # hints look good are patched in (tentatively — the
                # next round's gap-checksum exchange verifies them);
                # hint-bad symbols stay marked for re-request.  Without
                # per-symbol patching a channel that corrupts part of
                # every frame would re-request the same whole segment
                # forever.
                seg_symbols = state.symbols[span]
                seg_hints = state.hints[span]
                unverified = ~state.verified[span]
                take = (rx_hints <= PAPER_ETA) & unverified
                seg_symbols[take] = rx_symbols[take]
                seg_hints[take] = rx_hints[take]
                still_bad = (rx_hints > PAPER_ETA) & unverified
                seg_hints[still_bad] = np.maximum(
                    seg_hints[still_bad], PAPER_ETA + 1.0
                )
        # Confirm gaps against the sender's checksums.
        spans = packet.segment_spans()
        gaps = gaps_for_segments(spans, packet.n_symbols)
        for (start, end), sender_crc in zip(gaps, packet.gap_checksums, strict=True):
            mine = segment_checksum(state.symbols[start:end])
            if mine == sender_crc:
                state.verified[start:end] = True
                state.hints[start:end] = np.minimum(
                    state.hints[start:end], 0.0
                )
            else:
                state.hints[start:end] = np.maximum(
                    state.hints[start:end], PAPER_ETA + 1.0
                )
                state.verified[start:end] = False

    def decoded_symbols(self, seq: int) -> np.ndarray:
        """The current reassembled symbol buffer for ``seq`` (read-only).

        Public accessor for callers (sessions, diagnostics) that need
        the receiver's best-so-far symbols — e.g. to checksum a fully
        decoded packet into an ACK — without reaching into the
        per-packet reassembly state.
        """
        symbols = self._require(seq).symbols.view()
        symbols.flags.writeable = False
        return symbols

    def is_complete(self, seq: int) -> bool:
        """True when the reassembled wire payload passes its CRC-32."""
        state = self._states.get(seq)
        if state is None:
            return False
        wire = _symbols_to_wire_bytes(state.symbols)
        if len(wire) < 4:
            return False
        return CRC32_IEEE.compute_bytes(wire[:-4]) == wire[-4:]

    def reassembled_payload(self, seq: int) -> bytes:
        """The delivered application payload (raises if incomplete)."""
        if not self.is_complete(seq):
            raise ValueError(f"packet {seq} is not complete yet")
        wire = _symbols_to_wire_bytes(self._states[seq].symbols)
        return wire[:-4]

    def _require(self, seq: int) -> _ReceiverState:
        if seq not in self._states:
            raise KeyError(f"no reception state for sequence {seq}")
        return self._states[seq]


def _symbols_to_wire_bytes(symbols: np.ndarray) -> bytes:
    from repro.phy.spreading import symbols_to_bytes

    usable = symbols.size - symbols.size % 2
    return symbols_to_bytes(symbols[:usable])


class PpArqSession:
    """Drives sender and receiver across rounds over a lossy channel.

    ``data_channel`` models the forward link, for full packets and
    retransmission payloads alike; a packet gets at most
    ``MAX_ROUNDS`` rounds.  Returns a :class:`TransferLog` per packet
    with the sizes the Fig. 16 experiment needs.
    """

    def __init__(self, data_channel: ChannelFn) -> None:
        self._data_channel = data_channel
        self._sender = PpArqSender()
        self._receiver = PpArqReceiver()

    @property
    def receiver(self) -> PpArqReceiver:
        """The session's receiver (for inspection in tests)."""
        return self._receiver

    def transfer(self, seq: int, payload: bytes) -> TransferLog:
        """Send one packet to completion (or round exhaustion)."""
        wire = payload + CRC32_IEEE.compute_bytes(payload)
        from repro.phy.spreading import bytes_to_symbols

        wire_symbols = bytes_to_symbols(wire)
        self._sender.register_packet(seq, wire_symbols)
        log = TransferLog(seq=seq)

        soft = self._data_channel(wire_symbols)
        log.data_symbols_sent += wire_symbols.size
        self._receiver.receive_data(seq, soft)

        for _ in range(MAX_ROUNDS):
            log.rounds += 1
            if self._receiver.is_complete(seq):
                feedback = FeedbackPacket(
                    seq=seq,
                    n_symbols=wire_symbols.size,
                    segments=(),
                    gap_checksums=(
                        segment_checksum(
                            self._receiver.decoded_symbols(seq)
                        ),
                    ),
                )
                log.feedback_bits.append(feedback_bit_cost(feedback))
                self._sender.handle_feedback(feedback)
                log.delivered = True
                return log
            feedback = self._receiver.build_feedback(seq)
            log.feedback_bits.append(feedback_bit_cost(feedback))
            retransmission = self._sender.handle_feedback(feedback)
            if retransmission is None:
                log.delivered = True
                return log
            encoded = encode_retransmission(retransmission)
            log.retransmit_packet_bytes.append(len(encoded))
            all_symbols = (
                np.concatenate(
                    [s.symbols for s in retransmission.segments]
                )
                if retransmission.segments
                else np.zeros(0, dtype=np.int64)
            )
            log.data_symbols_sent += int(all_symbols.size)
            channel_view = self._data_channel(all_symbols)
            self._receiver.receive_retransmission(
                retransmission, channel_view
            )
        log.delivered = self._receiver.is_complete(seq)
        return log
