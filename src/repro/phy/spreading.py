"""Byte <-> symbol conversions for DSSS spreading.

802.15.4 sends each byte as two 4-bit symbols, low nibble first, with
the least-significant bit of the nibble as the first bit on air.  The
functions here implement that mapping.
"""

from __future__ import annotations

import numpy as np


def bytes_to_symbols(data: bytes) -> np.ndarray:
    """Convert bytes to symbol indices (low nibble of each byte first).

    Byte ``0xA3`` becomes symbols ``[3, 10]``.
    """
    arr = np.frombuffer(bytes(data), dtype=np.uint8)
    out = np.empty(arr.size * 2, dtype=np.int64)
    out[0::2] = arr & 0xF
    out[1::2] = arr >> 4
    return out


def symbols_to_bytes(symbols: np.ndarray) -> bytes:
    """Inverse of :func:`bytes_to_symbols`."""
    symbols = np.asarray(symbols, dtype=np.int64)
    if symbols.size % 2 != 0:
        raise ValueError(
            f"symbol count {symbols.size} is not a multiple of 2"
        )
    if symbols.size and (symbols.min() < 0 or symbols.max() > 0xF):
        raise ValueError("symbol values must fit in 4 bits")
    pairs = symbols.reshape(-1, 2)
    return (pairs[:, 0] | pairs[:, 1] << 4).astype(np.uint8).tobytes()
