"""Low-level utilities shared by every PPR subsystem.

This subpackage deliberately contains no wireless-specific logic: it is
bit manipulation, checksums, random-number plumbing, and the dBm to
milliwatt conversion.  Everything here is pure and deterministic.
"""

from repro.utils.bitops import (
    BitReader,
    BitWriter,
    bits_to_int,
    bytes_to_bits,
    pack_bits_to_uint32,
    popcount32,
)
from repro.utils.crc import (
    CRC8_ATM,
    CRC16_CCITT,
    CRC32_IEEE,
    CrcAlgorithm,
    crc8,
    crc16,
)
from repro.utils.rng import (
    derive_key,
    derive_rng,
    ensure_rng,
    keyed_rng,
)
from repro.utils.units import dbm_to_mw

__all__ = [
    "BitReader",
    "BitWriter",
    "bits_to_int",
    "bytes_to_bits",
    "pack_bits_to_uint32",
    "popcount32",
    "CRC8_ATM",
    "CRC16_CCITT",
    "CRC32_IEEE",
    "CrcAlgorithm",
    "crc8",
    "crc16",
    "derive_key",
    "derive_rng",
    "ensure_rng",
    "keyed_rng",
    "dbm_to_mw",
]
