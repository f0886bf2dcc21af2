"""PPR frame layout (paper Fig. 2).

On-air structure::

    preamble(8 sym) SFD(2 sym) | header | wire payload | trailer |
    postamble(8 sym) EFD(2 sym)

* **Header** (10 bytes): length(2) src(2) dst(2) seq(2) crc16(2).  The
  CRC-16 covers the first eight header bytes so the header verifies on
  its own — a preamble-path receiver needs a trustworthy length field
  before the rest of the frame arrives.
* **Wire payload**: produced by the active delivery scheme; for the
  packet-CRC and PPR schemes this is ``payload + CRC-32(payload)``, for
  fragmented CRC it is per-fragment CRCs (see
  :mod:`repro.link.schemes`).  ``length`` in the header/trailer is the
  *wire payload* byte count.
* **Trailer** (10 bytes): the same fields replicated with their own
  CRC-16, so a postamble-path receiver can recover frame boundaries by
  rolling back (paper §4).

Every field is a whole number of bytes, hence a whole number of 4-bit
symbols, keeping codeword alignment trivial.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from repro.phy.spreading import bytes_to_symbols
from repro.phy.sync import (
    EFD_SYMBOLS,
    POSTAMBLE_SYMBOLS,
    PREAMBLE_SYMBOLS,
    SFD_SYMBOLS,
)
from repro.utils.crc import CRC16_CCITT, crc16

HEADER_BYTES = 10
TRAILER_BYTES = 10
CRC32_BYTES = 4
SYMBOLS_PER_BYTE = 2
MAX_WIRE_PAYLOAD = 0xFFFF

_HEADER_STRUCT = struct.Struct(">HHHHH")


@dataclass(frozen=True)
class FrameHeader:
    """Header/trailer fields: wire-payload length, addresses, sequence."""

    length: int
    src: int
    dst: int
    seq: int

    def __post_init__(self) -> None:
        for name in ("length", "src", "dst", "seq"):
            value = getattr(self, name)
            if not 0 <= value <= 0xFFFF:
                raise ValueError(
                    f"{name} must fit in 16 bits, got {value}"
                )

    def pack(self) -> bytes:
        """Serialise to 10 bytes with a CRC-16 over the first eight."""
        body = struct.pack(">HHHH", self.length, self.src, self.dst, self.seq)
        return body + struct.pack(">H", crc16(body))


def parse_header_bytes(data: bytes) -> tuple[FrameHeader, bool]:
    """Parse 10 header bytes; returns ``(header, crc_ok)``.

    Parsing never raises on corrupt content — a receiver must be able
    to look at a damaged header and judge it by its CRC.
    """
    if len(data) != HEADER_BYTES:
        raise ValueError(
            f"header must be exactly {HEADER_BYTES} bytes, got {len(data)}"
        )
    length, src, dst, seq, crc = _HEADER_STRUCT.unpack(data)
    ok = crc16(data[:8]) == crc
    return FrameHeader(length=length, src=src, dst=dst, seq=seq), ok


def parse_trailer_bytes(data: bytes) -> tuple[FrameHeader, bool]:
    """Parse 10 trailer bytes (same layout as the header)."""
    if len(data) != TRAILER_BYTES:
        raise ValueError(
            f"trailer must be exactly {TRAILER_BYTES} bytes, got {len(data)}"
        )
    return parse_header_bytes(data)


def header_rows_ok(symbols: np.ndarray) -> np.ndarray:
    """CRC verdicts of many received headers (or trailers) at once.

    ``symbols`` is ``(n, 2 * HEADER_BYTES)``, one header's nibbles per
    row, low nibble of each byte first; entry ``i`` of the result is
    the ``crc_ok`` that :func:`parse_header_bytes` gives the bytes of
    row ``i``.
    """
    nibbles = np.asarray(symbols).astype(np.uint8)
    data = nibbles[:, 0::2] | (nibbles[:, 1::2] << 4)
    sent = (data[:, 8].astype(np.uint64) << np.uint64(8)) | data[:, 9]
    return CRC16_CCITT.checksum_many(data[:, :8]) == sent


def body_symbol_count(wire_payload_len: int) -> int:
    """Symbols in the frame body for a wire payload of given bytes."""
    if wire_payload_len < 0:
        raise ValueError(
            f"wire_payload_len must be non-negative, got {wire_payload_len}"
        )
    return SYMBOLS_PER_BYTE * (HEADER_BYTES + wire_payload_len + TRAILER_BYTES)


def payload_slice(n_body: int) -> slice:
    """Where the wire payload sits in a frame body of given symbols.

    Everything before the slice is the header, everything after it
    the trailer.
    """
    return slice(
        SYMBOLS_PER_BYTE * HEADER_BYTES,
        n_body - SYMBOLS_PER_BYTE * TRAILER_BYTES,
    )


@dataclass(frozen=True)
class PprFrame:
    """A fully-formed PPR frame ready for (simulated) transmission."""

    header: FrameHeader
    wire_payload: bytes

    @classmethod
    def build(
        cls, src: int, dst: int, seq: int, wire_payload: bytes
    ) -> "PprFrame":
        """Construct a frame around an already-scheme-encoded payload."""
        if len(wire_payload) > MAX_WIRE_PAYLOAD:
            raise ValueError(
                f"wire payload too large: {len(wire_payload)} bytes"
            )
        header = FrameHeader(
            length=len(wire_payload), src=src, dst=dst, seq=seq
        )
        return cls(header=header, wire_payload=bytes(wire_payload))

    # -- symbol-domain views -------------------------------------------------

    def body_bytes(self) -> bytes:
        """Header + wire payload + trailer as bytes."""
        h = self.header.pack()
        return h + self.wire_payload + h

    def on_air_symbols(self) -> np.ndarray:
        """Complete on-air symbol stream including sync fields."""
        return np.concatenate(
            [
                np.array(PREAMBLE_SYMBOLS + SFD_SYMBOLS, dtype=np.int64),
                bytes_to_symbols(self.body_bytes()),
                np.array(POSTAMBLE_SYMBOLS + EFD_SYMBOLS, dtype=np.int64),
            ]
        )
