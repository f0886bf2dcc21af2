"""Byte <-> symbol conversions for DSSS spreading.

802.15.4 sends each byte as two 4-bit symbols, low nibble first, with
the least-significant bit of the nibble as the first bit on air.  The
functions here implement that mapping for arbitrary ``bits_per_symbol``
so alternative codebooks keep working.
"""

from __future__ import annotations

import numpy as np


def bytes_to_symbols(data: bytes, bits_per_symbol: int = 4) -> np.ndarray:
    """Convert bytes to symbol indices (low nibble of each byte first).

    For the Zigbee case (4 bits/symbol) byte ``0xA3`` becomes symbols
    ``[3, 10]``.
    """
    if 8 % bits_per_symbol != 0:
        raise ValueError(
            f"bits_per_symbol must divide 8, got {bits_per_symbol}"
        )
    arr = np.frombuffer(bytes(data), dtype=np.uint8)
    per_byte = 8 // bits_per_symbol
    mask = (1 << bits_per_symbol) - 1
    out = np.empty(arr.size * per_byte, dtype=np.int64)
    for i in range(per_byte):
        out[i::per_byte] = (arr >> (bits_per_symbol * i)) & mask
    return out


def symbols_to_bytes(symbols: np.ndarray, bits_per_symbol: int = 4) -> bytes:
    """Inverse of :func:`bytes_to_symbols`."""
    if 8 % bits_per_symbol != 0:
        raise ValueError(
            f"bits_per_symbol must divide 8, got {bits_per_symbol}"
        )
    symbols = np.asarray(symbols, dtype=np.int64)
    per_byte = 8 // bits_per_symbol
    if symbols.size % per_byte != 0:
        raise ValueError(
            f"symbol count {symbols.size} is not a multiple of {per_byte}"
        )
    if symbols.size and (symbols.min() < 0 or symbols.max() >= (1 << bits_per_symbol)):
        raise ValueError(f"symbol values must fit in {bits_per_symbol} bits")
    groups = symbols.reshape(-1, per_byte)
    out = np.zeros(groups.shape[0], dtype=np.int64)
    for i in range(per_byte):
        out |= groups[:, i] << (bits_per_symbol * i)
    return out.astype(np.uint8).tobytes()
