"""Whole-packet stop-and-wait ARQ — the status-quo baseline.

The comparison point for PP-ARQ's retransmission savings (paper Table 1:
"PP-ARQ achieves significant end-to-end savings in retransmission cost,
a median factor of 50% reduction"): when the packet CRC fails, the
entire packet is retransmitted, however few bits were wrong.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.arq.protocol import ChannelFn
from repro.phy.spreading import bytes_to_symbols, symbols_to_bytes
from repro.utils.crc import CRC32_IEEE

# Attempts a session spends on one packet before giving up.
MAX_ATTEMPTS = 50


@dataclass
class FullArqLog:
    """Accounting for one whole-packet ARQ transfer."""

    seq: int
    attempts: int = 0
    data_symbols_sent: int = 0
    retransmit_packet_bytes: list[int] = field(default_factory=list)
    delivered: bool = False

    @property
    def total_retransmit_bytes(self) -> int:
        """Bytes of all retransmissions (attempts after the first)."""
        return sum(self.retransmit_packet_bytes)


class FullPacketArqSession:
    """Retransmit the full packet until its CRC-32 verifies."""

    def __init__(self, data_channel: ChannelFn) -> None:
        self._channel = data_channel

    def transfer(self, seq: int, payload: bytes) -> FullArqLog:
        """Send one packet to completion (or attempt exhaustion)."""
        wire = payload + CRC32_IEEE.compute_bytes(payload)
        wire_symbols = bytes_to_symbols(wire)
        log = FullArqLog(seq=seq)
        for attempt in range(MAX_ATTEMPTS):
            log.attempts += 1
            log.data_symbols_sent += int(wire_symbols.size)
            if attempt > 0:
                log.retransmit_packet_bytes.append(len(wire))
            soft = self._channel(wire_symbols)
            decoded = symbols_to_bytes(soft.symbols)
            if CRC32_IEEE.compute_bytes(decoded[:-4]) == decoded[-4:]:
                log.delivered = True
                return log
        return log
