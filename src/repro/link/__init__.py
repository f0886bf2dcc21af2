"""Link layer: PPR framing, delivery schemes, and hint thresholding.

The frame layout mirrors paper Fig. 2 (header + payload + packet CRC +
trailer, bracketed by preamble and postamble).  Delivery schemes
implement the three contenders of §7.2 — whole-packet CRC, fragmented
CRC, and PPR with SoftPHY hints — behind one interface so the
experiment harness treats them uniformly.  Beyond the paper,
:class:`SpracScheme` adds segmented-RLNC coded repair (S-PRAC) on top
of the fragmented-CRC layout.  Every scheme is scored on recorded
traces; the packet-CRC and PPR schemes also build and check wire
bytes, the spec those trace evaluators are pinned against.
"""

from repro.link.frame import (
    CRC32_BYTES,
    HEADER_BYTES,
    SYMBOLS_PER_BYTE,
    TRAILER_BYTES,
    FrameHeader,
    PprFrame,
    body_symbol_count,
    parse_header_bytes,
    parse_trailer_bytes,
)
from repro.link.schemes import (
    DeliveryResult,
    DeliveryScheme,
    FragmentedCrcScheme,
    PacketCrcScheme,
    PprScheme,
    SicScheme,
    SpracScheme,
)
from repro.link.quality import LinkObservation, LinkStats

__all__ = [
    "CRC32_BYTES",
    "HEADER_BYTES",
    "SYMBOLS_PER_BYTE",
    "TRAILER_BYTES",
    "FrameHeader",
    "PprFrame",
    "body_symbol_count",
    "parse_header_bytes",
    "parse_trailer_bytes",
    "DeliveryResult",
    "DeliveryScheme",
    "FragmentedCrcScheme",
    "PacketCrcScheme",
    "PprScheme",
    "SicScheme",
    "SpracScheme",
    "LinkObservation",
    "LinkStats",
]
