"""Bit-level primitives used across the PHY, link, and ARQ layers.

The PHY works with *bit arrays* — numpy ``uint8`` arrays whose elements
are 0 or 1, most-significant bit first within each byte.  The ARQ
feedback encoder needs *bit-exact* variable-width integer packing, which
``BitWriter``/``BitReader`` provide.  Chip words (32 chips) are packed
into ``uint32`` for vectorised XOR/popcount decoding.
"""

from __future__ import annotations

import numpy as np

# ---------------------------------------------------------------------------
# byte <-> bit-array conversions
# ---------------------------------------------------------------------------


def bytes_to_bits(data: bytes | bytearray | memoryview) -> np.ndarray:
    """Expand ``data`` into a bit array (uint8 of 0/1), MSB first.

    >>> bytes_to_bits(b"\\x80").tolist()
    [1, 0, 0, 0, 0, 0, 0, 0]
    """
    arr = np.frombuffer(bytes(data), dtype=np.uint8)
    return np.unpackbits(arr)


def bits_to_bytes(bits: np.ndarray) -> bytes:
    """Pack a bit array (MSB first) back into bytes.

    The length of ``bits`` must be a multiple of 8.
    """
    bits = np.asarray(bits, dtype=np.uint8)
    if bits.size % 8 != 0:
        raise ValueError(
            f"bit array length {bits.size} is not a multiple of 8"
        )
    return np.packbits(bits).tobytes()


def bits_to_int(bits: np.ndarray) -> int:
    """Decode a big-endian bit array into a Python int."""
    value = 0
    for b in np.asarray(bits, dtype=np.uint8):
        value = (value << 1) | int(b)
    return value


# ---------------------------------------------------------------------------
# chip-word packing: 32 chips <-> uint32, for vectorised decoding
# ---------------------------------------------------------------------------


def pack_bits_to_uint32(bits: np.ndarray) -> np.ndarray:
    """Pack an ``(n, 32)`` array of 0/1 chips into ``n`` uint32 words.

    Chip 0 lands in the most significant bit (big-endian chip order).
    """
    bits = np.asarray(bits, dtype=np.uint8)
    if bits.ndim != 2 or bits.shape[1] != 32:
        raise ValueError(f"expected shape (n, 32), got {bits.shape}")
    # packbits emits MSB-first bytes, so chip 0 becomes the high bit of
    # the first byte; reading the four bytes big-endian puts it in the
    # word's MSB.  (An integer matmul against bit weights computes the
    # same thing ~10x slower: numpy has no BLAS path for integers.)
    packed = np.packbits(bits, axis=1)
    return (
        np.ascontiguousarray(packed)
        .view(np.dtype(">u4"))
        .ravel()
        .astype(np.uint32)
    )


def popcount32(words: np.ndarray) -> np.ndarray:
    """Per-element popcount of a uint32 array (uint8 counts)."""
    return np.bitwise_count(np.asarray(words, dtype=np.uint32))


# ---------------------------------------------------------------------------
# bit-exact streaming writer / reader (ARQ feedback encoding)
# ---------------------------------------------------------------------------


class BitWriter:
    """Append-only bit stream with variable-width integer fields.

    Used by the PP-ARQ feedback encoder, where every bit of feedback
    counts against the cost model of Section 5 of the paper.
    """

    def __init__(self) -> None:
        self._bits: list[int] = []

    def __len__(self) -> int:
        return len(self._bits)

    def write_uint(self, value: int, width: int) -> "BitWriter":
        """Append ``value`` as a ``width``-bit big-endian unsigned field."""
        if width < 0:
            raise ValueError(f"width must be non-negative, got {width}")
        if value < 0 or (width < 64 and value >= (1 << width)):
            raise ValueError(f"value {value} does not fit in {width} bits")
        for i in range(width - 1, -1, -1):
            self._bits.append((value >> i) & 1)
        return self

    def getvalue(self) -> bytes:
        """Return the stream padded with zero bits to a byte boundary."""
        bits = np.array(self._bits, dtype=np.uint8)
        pad = (-bits.size) % 8
        if pad:
            bits = np.concatenate([bits, np.zeros(pad, dtype=np.uint8)])
        return bits_to_bytes(bits) if bits.size else b""


class BitReader:
    """Sequential reader matching :class:`BitWriter`'s layout."""

    def __init__(self, data: bytes | np.ndarray) -> None:
        if isinstance(data, (bytes, bytearray, memoryview)):
            self._bits = bytes_to_bits(data)
        else:
            self._bits = np.asarray(data, dtype=np.uint8)
        self._pos = 0

    @property
    def remaining(self) -> int:
        """Bits left to read."""
        return int(self._bits.size - self._pos)

    def read_uint(self, width: int) -> int:
        """Read a ``width``-bit big-endian unsigned field."""
        if width < 0:
            raise ValueError(f"width must be non-negative, got {width}")
        if self._pos + width > self._bits.size:
            raise EOFError(
                f"requested {width} bits but only {self.remaining} remain"
            )
        value = bits_to_int(self._bits[self._pos : self._pos + width])
        self._pos += width
        return value

    def read_bits(self, count: int) -> np.ndarray:
        """Read ``count`` raw bits as a 0/1 array."""
        if self._pos + count > self._bits.size:
            raise EOFError(
                f"requested {count} bits but only {self.remaining} remain"
            )
        out = self._bits[self._pos : self._pos + count].copy()
        self._pos += count
        return out

    def read_bytes(self, count: int) -> bytes:
        """Read ``count`` whole bytes."""
        return bits_to_bytes(self.read_bits(count * 8))
