"""Bit-exact PP-ARQ feedback and retransmission packets (paper §5.2).

The receiver's feedback names the chunks it wants retransmitted and
carries a short checksum of every *gap* (non-requested range) so the
sender can detect SoftPHY *misses* — incorrect codewords that slipped
through labelled good (§7.4.1).  The sender's retransmission carries
the requested segments (offsets, lengths, data, per-segment CRC) plus
its own checksums of the gaps so the receiver "can be certain that the
bits in the non-retransmitted portions are correct".

Field widths:

=================  ======
sequence number    16 bit
segment count       8 bit
symbol offset      16 bit
symbol length      16 bit
gap checksum        8 bit (CRC-8 over the gap's nibble-packed symbols)
segment checksum    8 bit
=================  ======
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.utils.bitops import BitReader, BitWriter
from repro.utils.crc import crc8

SEQ_BITS = 16
COUNT_BITS = 8
OFFSET_BITS = 16
LENGTH_BITS = 16
CHECKSUM_BITS = 8


def segment_checksum(symbols: np.ndarray) -> int:
    """CRC-8 over a symbol range, nibble-packed (pad nibble = 0)."""
    symbols = np.asarray(symbols, dtype=np.int64)
    if symbols.size and (symbols.min() < 0 or symbols.max() > 15):
        raise ValueError("symbols must be 4-bit values")
    padded = symbols
    if symbols.size % 2:
        padded = np.concatenate([symbols, [0]])
    pairs = padded.reshape(-1, 2)
    data = (pairs[:, 0] | (pairs[:, 1] << 4)).astype(np.uint8).tobytes()
    return crc8(data)


def gaps_for_segments(
    segments: tuple[tuple[int, int], ...], n_symbols: int
) -> list[tuple[int, int]]:
    """Complement of the requested segments within [0, n_symbols)."""
    gaps: list[tuple[int, int]] = []
    pos = 0
    for start, end in sorted(segments):
        if start < pos:
            raise ValueError(f"segments overlap at {start}")
        if end > n_symbols:
            raise ValueError(
                f"segment end {end} beyond packet of {n_symbols} symbols"
            )
        if start > pos:
            gaps.append((pos, start))
        pos = end
    if pos < n_symbols:
        gaps.append((pos, n_symbols))
    return gaps


@dataclass(frozen=True)
class FeedbackPacket:
    """Receiver -> sender: requested segments + gap checksums.

    ``segments`` are symbol ranges to retransmit; ``gap_checksums[k]``
    is the CRC-8 the receiver computed over its decoding of the k-th
    gap.  An empty ``segments`` is a pure ACK (§5.2 step 3: the
    acknowledgement "may be empty, if the receiver can verify the
    forward link packet's checksum").
    """

    seq: int
    n_symbols: int
    segments: tuple[tuple[int, int], ...]
    gap_checksums: tuple[int, ...]

    def __post_init__(self) -> None:
        gaps = gaps_for_segments(self.segments, self.n_symbols)
        if len(gaps) != len(self.gap_checksums):
            raise ValueError(
                f"{len(gaps)} gaps but {len(self.gap_checksums)} checksums"
            )

    @property
    def is_ack(self) -> bool:
        """True when nothing is requested."""
        return not self.segments


def encode_feedback(packet: FeedbackPacket) -> bytes:
    """Serialise a feedback packet to its on-air bytes."""
    writer = BitWriter()
    writer.write_uint(packet.seq, SEQ_BITS)
    writer.write_uint(packet.n_symbols, OFFSET_BITS)
    writer.write_uint(len(packet.segments), COUNT_BITS)
    for start, end in packet.segments:
        writer.write_uint(start, OFFSET_BITS)
        writer.write_uint(end - start, LENGTH_BITS)
    for checksum in packet.gap_checksums:
        writer.write_uint(checksum, CHECKSUM_BITS)
    return writer.getvalue()


def decode_feedback(data: bytes) -> FeedbackPacket:
    """Parse bytes produced by :func:`encode_feedback`."""
    reader = BitReader(data)
    seq = reader.read_uint(SEQ_BITS)
    n_symbols = reader.read_uint(OFFSET_BITS)
    n_segments = reader.read_uint(COUNT_BITS)
    segments = []
    for _ in range(n_segments):
        start = reader.read_uint(OFFSET_BITS)
        length = reader.read_uint(LENGTH_BITS)
        segments.append((start, start + length))
    segments = tuple(segments)
    n_gaps = len(gaps_for_segments(segments, n_symbols))
    checksums = tuple(reader.read_uint(CHECKSUM_BITS) for _ in range(n_gaps))
    return FeedbackPacket(
        seq=seq,
        n_symbols=n_symbols,
        segments=segments,
        gap_checksums=checksums,
    )


@dataclass(frozen=True)
class SegmentData:
    """One retransmitted segment: where it goes and its symbols."""

    start: int
    symbols: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "symbols", np.asarray(self.symbols, dtype=np.int64)
        )
        if self.start < 0:
            raise ValueError(f"start must be >= 0, got {self.start}")

    @property
    def end(self) -> int:
        """One past the segment's last symbol index."""
        return self.start + int(self.symbols.size)


@dataclass(frozen=True)
class RetransmissionPacket:
    """Sender -> receiver: requested segments + sender gap checksums."""

    seq: int
    n_symbols: int
    segments: tuple[SegmentData, ...]
    gap_checksums: tuple[int, ...]

    def segment_spans(self) -> tuple[tuple[int, int], ...]:
        """The (start, end) ranges carried by this packet."""
        return tuple((s.start, s.end) for s in self.segments)


def encode_retransmission(packet: RetransmissionPacket) -> bytes:
    """Serialise a retransmission packet to its on-air bytes.

    Layout: seq, n_symbols, count, then per segment offset + length +
    CRC-8 + the 4-bit symbols themselves, then the gap checksums.
    """
    writer = BitWriter()
    writer.write_uint(packet.seq, SEQ_BITS)
    writer.write_uint(packet.n_symbols, OFFSET_BITS)
    writer.write_uint(len(packet.segments), COUNT_BITS)
    for seg in packet.segments:
        writer.write_uint(seg.start, OFFSET_BITS)
        writer.write_uint(int(seg.symbols.size), LENGTH_BITS)
        writer.write_uint(segment_checksum(seg.symbols), CHECKSUM_BITS)
        for sym in seg.symbols:
            writer.write_uint(int(sym), 4)
    for checksum in packet.gap_checksums:
        writer.write_uint(checksum, CHECKSUM_BITS)
    return writer.getvalue()


def decode_retransmission(data: bytes) -> RetransmissionPacket:
    """Parse bytes produced by :func:`encode_retransmission`."""
    reader = BitReader(data)
    seq = reader.read_uint(SEQ_BITS)
    n_symbols = reader.read_uint(OFFSET_BITS)
    n_segments = reader.read_uint(COUNT_BITS)
    segments = []
    declared_checksums = []
    for _ in range(n_segments):
        start = reader.read_uint(OFFSET_BITS)
        length = reader.read_uint(LENGTH_BITS)
        declared_checksums.append(reader.read_uint(CHECKSUM_BITS))
        symbols = np.array(
            [reader.read_uint(4) for _ in range(length)], dtype=np.int64
        )
        segments.append(SegmentData(start=start, symbols=symbols))
    spans = tuple((s.start, s.end) for s in segments)
    n_gaps = len(gaps_for_segments(spans, n_symbols))
    gap_checksums = tuple(
        reader.read_uint(CHECKSUM_BITS) for _ in range(n_gaps)
    )
    packet = RetransmissionPacket(
        seq=seq,
        n_symbols=n_symbols,
        segments=tuple(segments),
        gap_checksums=gap_checksums,
    )
    for seg, declared in zip(packet.segments, declared_checksums, strict=True):
        if segment_checksum(seg.symbols) != declared:
            raise ValueError(
                f"segment at {seg.start} failed its checksum in decode"
            )
    return packet


def feedback_bit_cost(packet: FeedbackPacket) -> int:
    """True encoded size in bits (before byte padding).

    The Eq. 4/5 DP uses a *model* of this quantity; experiments compare
    the model against this exact count.
    """
    bits = SEQ_BITS + OFFSET_BITS + COUNT_BITS
    bits += len(packet.segments) * (OFFSET_BITS + LENGTH_BITS)
    bits += len(packet.gap_checksums) * CHECKSUM_BITS
    return bits
