"""Payload fragmentation for the fragmented-CRC baseline (paper §3.4)."""

from __future__ import annotations


def fragment_payload(payload: bytes, n_fragments: int) -> list[bytes]:
    """Split ``payload`` into ``n_fragments`` nearly-equal pieces.

    Leading fragments get the remainder bytes, matching
    :class:`repro.link.schemes.FragmentedCrcScheme`.  If the payload is
    shorter than the fragment count, one byte per fragment is used and
    the count shrinks; an empty payload yields one empty fragment.
    """
    if n_fragments < 1:
        raise ValueError(f"n_fragments must be >= 1, got {n_fragments}")
    if len(payload) == 0:
        return [b""]
    n = min(n_fragments, len(payload))
    base, extra = divmod(len(payload), n)
    out = []
    offset = 0
    for i in range(n):
        size = base + (1 if i < extra else 0)
        out.append(payload[offset : offset + size])
        offset += size
    return out
