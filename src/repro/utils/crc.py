"""Cyclic redundancy checks.

The PPR frame format (paper Fig. 2) carries a whole-packet CRC, the
fragmented-CRC baseline (paper §3.4) places one CRC per fragment, and
PP-ARQ feedback (paper §5) checksums good runs.  We implement a generic
reflected/unreflected CRC engine plus the three concrete algorithms the
system uses:

* **CRC-32 (IEEE 802.3)** — packet and fragment checksums, as in the
  paper's "32-bit CRC check" (§7.2).
* **CRC-16-CCITT** — the 802.15.4 frame check sequence, used by the
  frame trailer.
* **CRC-8 (ATM HEC)** — the short run checksum λ_C in PP-ARQ feedback,
  where feedback bits are precious.

The engine's byte table (Rocksoft model) is the reference for all
three.  A single message's CRC-32 and CRC-16 come from the standard
library's C kernels (:func:`zlib.crc32`, :func:`binascii.crc_hqx`),
which compute the same values; CRC-8's kernel is the table loop
specialised to its parameters.
"""

from __future__ import annotations

import binascii
import zlib
from dataclasses import dataclass, field
from typing import Callable

import numpy as np


Buffer = bytes | bytearray | memoryview


def _reflect(value: int, width: int) -> int:
    out = 0
    for _ in range(width):
        out = (out << 1) | (value & 1)
        value >>= 1
    return out


@dataclass(frozen=True)
class CrcAlgorithm:
    """A parameterised CRC (Rocksoft model).

    Attributes mirror the classic Rocksoft parameter set: polynomial,
    width, initial value, reflect-in/out, and final XOR.  ``kernel``
    computes one message's CRC and must agree with the byte-table loop
    :meth:`compute_table` on every input.
    """

    name: str
    width: int
    poly: int
    init: int
    refin: bool
    refout: bool
    xorout: int
    kernel: Callable[[Buffer], int] = field(repr=False, compare=False)
    _table: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "_table", self._build_table())

    def _build_table(self) -> tuple[int, ...]:
        mask = (1 << self.width) - 1
        top = 1 << (self.width - 1)
        table = []
        for byte in range(256):
            if self.refin:
                byte_val = _reflect(byte, 8)
            else:
                byte_val = byte
            reg = byte_val << (self.width - 8) if self.width >= 8 else byte_val
            for _ in range(8):
                if reg & top:
                    reg = ((reg << 1) ^ self.poly) & mask
                else:
                    reg = (reg << 1) & mask
            if self.refin:
                reg = _reflect(reg, self.width)
            table.append(reg)
        return tuple(table)

    def compute(self, data: Buffer) -> int:
        """Compute the CRC of ``data`` and return it as an int."""
        return self.kernel(data)

    def compute_table(self, data: Buffer) -> int:
        """The CRC of ``data`` by the byte-table loop (the reference)."""
        mask = (1 << self.width) - 1
        reg = self.init
        table = self._table
        if self.refin:
            for byte in bytes(data):
                reg = (reg >> 8) ^ table[(reg ^ byte) & 0xFF]
        else:
            shift = self.width - 8
            for byte in bytes(data):
                reg = ((reg << 8) & mask) ^ table[
                    ((reg >> shift) ^ byte) & 0xFF
                ]
        if self.refin != self.refout:
            reg = _reflect(reg, self.width)
        return (reg ^ self.xorout) & mask

    def compute_bytes(self, data: bytes) -> bytes:
        """Compute the CRC and return it big-endian, width/8 bytes."""
        return self.compute(data).to_bytes(self.width // 8, "big")

    def checksum_many(self, rows: np.ndarray) -> np.ndarray:
        """CRCs of many equal-length byte rows in one array-batched pass.

        ``rows`` is an ``(n, L)`` uint8 array, one message per row.
        Returns the ``(n,)`` uint64 CRC values, identical to calling
        :meth:`compute` on each row.

        The register update runs once per byte *column* over all rows
        at once (the frame-header pattern: many short messages of one
        length), instead of one Python call and one Python byte loop
        per message.
        """
        rows = np.asarray(rows, dtype=np.uint8)
        if rows.ndim != 2:
            raise ValueError(f"rows must be 2-D, got shape {rows.shape}")
        mask = np.uint64((1 << self.width) - 1)
        table = np.array(self._table, dtype=np.uint64)
        reg = np.full(rows.shape[0], self.init, dtype=np.uint64)
        for col in range(rows.shape[1]):
            byte = rows[:, col].astype(np.uint64)
            if self.refin:
                reg = (reg >> np.uint64(8)) ^ table[
                    ((reg ^ byte) & np.uint64(0xFF)).astype(np.int64)
                ]
            else:
                shift = np.uint64(self.width - 8)
                reg = ((reg << np.uint64(8)) & mask) ^ table[
                    (((reg >> shift) ^ byte) & np.uint64(0xFF)).astype(
                        np.int64
                    )
                ]
        if self.refin != self.refout:
            reg = np.array(
                [_reflect(int(r), self.width) for r in reg],
                dtype=np.uint64,
            )
        return (reg ^ np.uint64(self.xorout)) & mask


def _crc16_ccitt_false(data: Buffer) -> int:
    return binascii.crc_hqx(data, 0xFFFF)


CRC32_IEEE = CrcAlgorithm(
    name="CRC-32/IEEE",
    width=32,
    poly=0x04C11DB7,
    init=0xFFFFFFFF,
    refin=True,
    refout=True,
    xorout=0xFFFFFFFF,
    kernel=zlib.crc32,
)

CRC16_CCITT = CrcAlgorithm(
    name="CRC-16/CCITT-FALSE",
    width=16,
    poly=0x1021,
    init=0xFFFF,
    refin=False,
    refout=False,
    xorout=0x0000,
    kernel=_crc16_ccitt_false,
)

def _crc8_atm(data: Buffer) -> int:
    # Zero init, no reflection and no final XOR leave the byte-table
    # step of an 8-bit CRC as one lookup.
    reg = 0
    for byte in bytes(data):
        reg = _CRC8_ATM_TABLE[reg ^ byte]
    return reg


CRC8_ATM = CrcAlgorithm(
    name="CRC-8/ATM",
    width=8,
    poly=0x07,
    init=0x00,
    refin=False,
    refout=False,
    xorout=0x00,
    kernel=_crc8_atm,
)
_CRC8_ATM_TABLE = bytes(CRC8_ATM._table)


def crc16(data: bytes) -> int:
    """CRC-16-CCITT (as used for the 802.15.4 FCS) of ``data``."""
    return CRC16_CCITT.compute(data)


def crc8(data: bytes) -> int:
    """CRC-8 (ATM HEC polynomial) of ``data``."""
    return CRC8_ATM.compute(data)
