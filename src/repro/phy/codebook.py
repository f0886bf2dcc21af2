"""DSSS codebooks: the symbol -> chip-sequence mapping.

The paper's senders are CC2420 radios: 802.15.4 DSSS at 2 Mchip/s with
``B = 32`` chip codewords, each encoding ``b = 4`` data bits (16
codewords).  The Hamming distance between a received 32-chip word and
the nearest codeword is PPR's SoftPHY hint (paper §3.2), so the
codebook is the heart of the hint machinery.

:class:`ZigbeeCodebook` reproduces the IEEE 802.15.4 2450 MHz chip
sequences: symbols 1..7 are 4-chip cyclic rotations of the symbol-0
sequence, and symbols 8..15 invert the odd-indexed (Q-phase) chips.
"""

from __future__ import annotations

import numpy as np

from repro.utils.bitops import pack_bits_to_uint32, popcount32

# IEEE 802.15.4-2006 Table 24 (2450 MHz O-QPSK PHY), chip sequence for
# data symbol 0, chips c0..c31.
_ZIGBEE_BASE_CHIPS = np.array(
    [1, 1, 0, 1, 1, 0, 0, 1, 1, 1, 0, 0, 0, 0, 1, 1,
     0, 1, 0, 1, 0, 0, 1, 0, 0, 0, 1, 0, 1, 1, 1, 0],
    dtype=np.uint8,
)

# decode_hard handles received words in blocks of this many
# (codeword, word) keys, so its transient stays in cache whatever the
# input size, and a call on a few words costs a handful of array ops.
_DECODE_BLOCK_KEYS = 1 << 16


class Codebook:
    """A symbol -> chip-word mapping with vectorised nearest decoding.

    Parameters
    ----------
    codewords:
        ``(n_symbols, chips_per_symbol)`` array of 0/1 chips.  The
        number of symbols must be a power of two so that each symbol
        encodes an integer number of bits.
    """

    def __init__(self, codewords: np.ndarray) -> None:
        codewords = np.asarray(codewords, dtype=np.uint8)
        if codewords.ndim != 2:
            raise ValueError(f"codewords must be 2-D, got {codewords.ndim}-D")
        n, width = codewords.shape
        if n < 2 or (n & (n - 1)) != 0:
            raise ValueError(
                f"number of codewords must be a power of two >= 2, got {n}"
            )
        if width != 32:
            raise ValueError(
                "this implementation packs chip words into uint32; "
                f"chips_per_symbol must be 32, got {width}"
            )
        if len({tuple(row) for row in codewords.tolist()}) != n:
            raise ValueError("codewords must be distinct")
        self._chips = codewords
        self._words = pack_bits_to_uint32(codewords)
        self._bits_per_symbol = int(np.log2(n))
        # decode_hard's key: the distance (0..width) above the symbol
        # index, in the narrowest unsigned type that holds both.
        self._key_dtype = np.min_scalar_type(
            (width << self._bits_per_symbol) | (n - 1)
        )
        self._key_index = np.arange(n, dtype=self._key_dtype)[:, None]

    # -- geometry ----------------------------------------------------------

    @property
    def n_symbols(self) -> int:
        """Number of codewords (2**bits_per_symbol)."""
        return self._chips.shape[0]

    @property
    def chips_per_symbol(self) -> int:
        """Chips per codeword (the paper's B)."""
        return self._chips.shape[1]

    # -- encode / decode ---------------------------------------------------

    def encode(self, symbols: np.ndarray) -> np.ndarray:
        """Map symbol indices to a flat chip array.

        Returns a 1-D uint8 array of length
        ``len(symbols) * chips_per_symbol``.
        """
        symbols = np.asarray(symbols, dtype=np.int64)
        if symbols.size and (symbols.min() < 0 or symbols.max() >= self.n_symbols):
            raise ValueError(
                f"symbol indices must be in [0, {self.n_symbols}), "
                f"got range [{symbols.min()}, {symbols.max()}]"
            )
        return self._chips[symbols].reshape(-1)

    def encode_words(self, symbols: np.ndarray) -> np.ndarray:
        """Map symbol indices to packed uint32 chip words."""
        symbols = np.asarray(symbols, dtype=np.int64)
        if symbols.size and (symbols.min() < 0 or symbols.max() >= self.n_symbols):
            raise ValueError(
                f"symbol indices must be in [0, {self.n_symbols})"
            )
        return self._words[symbols]

    def decode_hard(
        self, received_words: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Nearest-codeword decode of packed uint32 chip words.

        Returns ``(symbols, distances)`` where ``distances[i]`` is the
        Hamming distance from received word *i* to the codeword it was
        decoded to — exactly the SoftPHY hint of paper §3.2.

        Each word takes the minimum over codewords *k* of the key
        ``(popcount(rx ^ w_k) << s) | k``, with ``s`` bits reserved for
        the symbol index.  Because the index sits in the low bits,
        equal distances compare by index: ties resolve to the lowest
        symbol index, which matches a deterministic hardware correlator
        bank.  Words are keyed a block at a time, so the decode never
        holds an ``(n_received, n_symbols)`` distance matrix.
        """
        received_words = np.asarray(received_words, dtype=np.uint32)
        shift, key_dtype = self._bits_per_symbol, self._key_dtype
        best = np.empty(received_words.shape, key_dtype)
        block = max(1, _DECODE_BLOCK_KEYS // self.n_symbols)
        for lo in range(0, received_words.size, block):
            rx = received_words[None, lo : lo + block]
            key = popcount32(self._words[:, None] ^ rx).astype(key_dtype)
            key <<= shift
            key |= self._key_index
            key.min(axis=0, out=best[lo : lo + block])
        symbols = best & ((1 << shift) - 1)
        distances = best >> shift
        return symbols.astype(np.int64), distances.astype(np.int64)

    # -- distance structure ------------------------------------------------

    def pairwise_distances(self) -> np.ndarray:
        """(n, n) matrix of Hamming distances between codewords."""
        xor = self._words[:, None] ^ self._words[None, :]
        return popcount32(xor)

    def min_distance(self) -> int:
        """Minimum Hamming distance between distinct codewords."""
        d = self.pairwise_distances()
        n = d.shape[0]
        return int(d[~np.eye(n, dtype=bool)].min())


class ZigbeeCodebook(Codebook):
    """The IEEE 802.15.4 2450 MHz codebook: 16 codewords of 32 chips.

    Symbol *k* for k in 1..7 is the symbol-0 sequence cyclically rotated
    right by 4k chips; symbols 8..15 are symbols 0..7 with the
    odd-indexed chips inverted (Q-phase conjugation).
    """

    def __init__(self) -> None:
        rows = []
        for k in range(8):
            rows.append(np.roll(_ZIGBEE_BASE_CHIPS, 4 * k))
        odd_mask = np.zeros(32, dtype=np.uint8)
        odd_mask[1::2] = 1
        for k in range(8):
            rows.append(rows[k] ^ odd_mask)
        super().__init__(np.stack(rows))
