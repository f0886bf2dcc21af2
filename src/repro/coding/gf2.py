"""Vectorized GF(2) linear algebra on bit-packed uint64 words.

Random linear network coding over GF(2) reduces to two kernels:

* **encode** — a coded block is the XOR of the source blocks selected
  by one row of a coefficient matrix.  Blocks are byte rows packed
  eight-bytes-per-word into uint64, so one ``^`` combines 64 bits.
* **eliminate** — given the coefficient vectors of the blocks that
  survived (intact source blocks contribute unit vectors, valid coded
  blocks their coefficient rows), batched Gaussian elimination to
  reduced row-echelon form recovers every source block whose
  coordinate is uniquely determined.  Row operations XOR whole packed
  rows (coefficient words and payload words together), so the inner
  loop is one vectorized XOR over all rows that carry the pivot bit.

Both kernels keep their original pure-Python loop implementations
(``gf2_encode_reference``, ``gf2_eliminate_reference``) as executable
specifications, pinned bit-for-bit by the equivalence suite.

Coefficient matrices come from the counter-based keyed streams of
:mod:`repro.utils.rng`, so a ``(seed, label, *ids)`` tuple always
names the same matrix on sender and receiver, in any process.
"""

from __future__ import annotations

import numpy as np

from repro.utils.rng import keyed_rng

_WORD_BITS = 64
_WORD_BYTES = 8


def pack_bytes_to_words(rows: np.ndarray) -> np.ndarray:
    """Pack ``(n, L)`` uint8 byte rows into ``(n, ceil(L/8))`` uint64.

    Byte 0 of a row lands in the most significant byte of word 0
    (big-endian within the word, matching the MSB-first convention of
    :mod:`repro.utils.bitops`); rows are zero-padded to a whole number
    of words.
    """
    rows = np.asarray(rows, dtype=np.uint8)
    if rows.ndim != 2:
        raise ValueError(f"rows must be 2-D, got shape {rows.shape}")
    n, n_bytes = rows.shape
    n_words = -(-n_bytes // _WORD_BYTES) if n_bytes else 0
    padded = np.zeros((n, n_words * _WORD_BYTES), dtype=np.uint8)
    padded[:, :n_bytes] = rows
    return (
        np.ascontiguousarray(padded)
        .view(np.dtype(">u8"))
        .astype(np.uint64)
        .reshape(n, n_words)
    )


def unpack_words_to_bytes(words: np.ndarray, n_bytes: int) -> np.ndarray:
    """Inverse of :func:`pack_bytes_to_words`: keep the first ``n_bytes``."""
    words = np.asarray(words, dtype=np.uint64)
    if words.ndim != 2:
        raise ValueError(f"words must be 2-D, got shape {words.shape}")
    if n_bytes > words.shape[1] * _WORD_BYTES:
        raise ValueError(
            f"cannot unpack {n_bytes} bytes from "
            f"{words.shape[1]} words per row"
        )
    as_bytes = words.astype(np.dtype(">u8")).view(np.uint8)
    return as_bytes.reshape(words.shape[0], -1)[:, :n_bytes]


def gf2_coefficients(
    seed: int, label: str, *ids: int, shape: tuple[int, int]
) -> np.ndarray:
    """A keyed random ``shape`` 0/1 coefficient matrix.

    Drawn from the counter-based stream addressed by
    ``(seed, label, *ids, 2)``, so sender and receiver derive identical
    matrices without exchanging them.  The trailing ``2`` is part of
    the committed stream address: dropping it would draw different
    coefficients and move every coded-recovery result, so it stays.
    All-zero rows (probability ``2**-k`` per row)
    would be useless equations, so they are deterministically replaced
    by all-ones rows.
    """
    m, k = shape
    if m < 0 or k <= 0:
        raise ValueError(f"shape must be (m >= 0, k >= 1), got {shape}")
    rng = keyed_rng(seed, label, *ids, 2)
    coeffs = rng.integers(0, 2, size=(m, k), dtype=np.uint8)
    zero_rows = ~coeffs.any(axis=1)
    coeffs[zero_rows] = 1
    return coeffs


def gf2_encode(coeffs: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Coded rows: XOR of the packed ``rows`` selected by each
    coefficient row.

    ``coeffs`` is ``(m, k)`` 0/1; ``rows`` is ``(k, w)`` uint64.
    Returns the ``(m, w)`` coded words in one fused where/XOR-reduce.
    """
    coeffs = np.asarray(coeffs, dtype=np.uint8)
    rows = np.asarray(rows, dtype=np.uint64)
    if coeffs.ndim != 2 or rows.ndim != 2:
        raise ValueError("coeffs and rows must be 2-D")
    if coeffs.shape[1] != rows.shape[0]:
        raise ValueError(
            f"coeffs select {coeffs.shape[1]} rows but {rows.shape[0]} "
            "were given"
        )
    selected = np.where(
        coeffs[:, :, None].astype(bool), rows[None, :, :], np.uint64(0)
    )
    return np.bitwise_xor.reduce(selected, axis=1)


def gf2_encode_reference(
    coeffs: np.ndarray, rows: np.ndarray
) -> np.ndarray:
    """Loop specification of :func:`gf2_encode` (pinned bit-for-bit)."""
    coeffs = np.asarray(coeffs, dtype=np.uint8)
    rows = np.asarray(rows, dtype=np.uint64)
    m = coeffs.shape[0]
    out = np.zeros((m, rows.shape[1]), dtype=np.uint64)
    for i in range(m):
        for j in range(coeffs.shape[1]):
            if coeffs[i, j]:
                for w in range(rows.shape[1]):
                    out[i, w] ^= rows[j, w]
    return out


def _pack_coeff_bits(coeffs: np.ndarray) -> np.ndarray:
    """Pack ``(m, k)`` 0/1 coefficients into ``(m, ceil(k/64))``
    uint64 words, bit ``j`` of a row at bit ``63 - (j % 64)`` of word
    ``j // 64`` (MSB-first, like the byte packing)."""
    m, k = coeffs.shape
    n_bytes = -(-k // 8)
    packed = np.packbits(coeffs.astype(np.uint8), axis=1)
    out = np.zeros((m, -(-k // _WORD_BITS) * _WORD_BYTES), dtype=np.uint8)
    out[:, :n_bytes] = packed
    return (
        np.ascontiguousarray(out)
        .view(np.dtype(">u8"))
        .astype(np.uint64)
        .reshape(m, -1)
    )


def gf2_eliminate(
    coeffs: np.ndarray, payload: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Batched Gaussian elimination over GF(2).

    ``coeffs`` is the ``(m, k)`` 0/1 matrix of the available
    equations; ``payload`` the ``(m, w)`` uint64 packed right-hand
    sides.  Reduces the augmented system to reduced row-echelon form —
    each pivot step XORs the pivot row into *every* other row carrying
    the pivot bit, coefficient words and payload words in one
    vectorized operation — and reads off the unknowns that are
    uniquely determined.

    Returns ``(recovered, solved)``: ``recovered`` is the ``(k,)``
    bool mask of source rows the system pins down, ``solved`` the
    ``(k, w)`` uint64 rows (zeros where not recovered).
    """
    coeffs = np.asarray(coeffs, dtype=np.uint8)
    payload = np.asarray(payload, dtype=np.uint64)
    if coeffs.ndim != 2 or payload.ndim != 2:
        raise ValueError("coeffs and payload must be 2-D")
    m, k = coeffs.shape
    if payload.shape[0] != m:
        raise ValueError(
            f"{m} equations but {payload.shape[0]} payload rows"
        )
    w = payload.shape[1]
    recovered = np.zeros(k, dtype=bool)
    solved = np.zeros((k, w), dtype=np.uint64)
    if m == 0:
        return recovered, solved
    coeff_words = _pack_coeff_bits(coeffs)
    cw = coeff_words.shape[1]
    aug = np.concatenate([coeff_words, payload], axis=1)
    pivots: list[tuple[int, int]] = []  # (row, column)
    row = 0
    for col in range(k):
        word, bit = divmod(col, _WORD_BITS)
        bit_mask = np.uint64(1) << np.uint64(_WORD_BITS - 1 - bit)
        candidates = (aug[row:, word] & bit_mask) != 0
        if not candidates.any():
            continue
        pivot = row + int(np.argmax(candidates))
        if pivot != row:
            aug[[row, pivot]] = aug[[pivot, row]]
        carriers = (aug[:, word] & bit_mask) != 0
        carriers[row] = False
        aug[carriers] ^= aug[row]
        pivots.append((row, col))
        row += 1
        if row == m:
            break
    for prow, pcol in pivots:
        # Unique determination: the row's coefficient part is exactly
        # the unit vector at pcol.
        word, bit = divmod(pcol, _WORD_BITS)
        unit = np.zeros(cw, dtype=np.uint64)
        unit[word] = np.uint64(1) << np.uint64(_WORD_BITS - 1 - bit)
        if np.array_equal(aug[prow, :cw], unit):
            recovered[pcol] = True
            solved[pcol] = aug[prow, cw:]
    return recovered, solved


def gf2_eliminate_reference(
    coeffs: np.ndarray, payload: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Loop specification of :func:`gf2_eliminate` (pinned bit-for-bit).

    Same pivot choices (first carrier row, columns left to right) on
    plain Python ints, so swaps and XOR order match exactly.
    """
    coeffs = np.asarray(coeffs, dtype=np.uint8)
    payload = np.asarray(payload, dtype=np.uint64)
    m, k = coeffs.shape
    w = payload.shape[1]
    recovered = np.zeros(k, dtype=bool)
    solved = np.zeros((k, w), dtype=np.uint64)
    if m == 0:
        return recovered, solved
    rows = [
        (
            [int(c) for c in coeffs[i]],
            [int(p) for p in payload[i]],
        )
        for i in range(m)
    ]
    pivots: list[tuple[int, int]] = []
    row = 0
    for col in range(k):
        pivot = next(
            (i for i in range(row, m) if rows[i][0][col]), None
        )
        if pivot is None:
            continue
        rows[row], rows[pivot] = rows[pivot], rows[row]
        for i in range(m):
            if i != row and rows[i][0][col]:
                rows[i] = (
                    [a ^ b for a, b in zip(rows[i][0], rows[row][0], strict=True)],
                    [a ^ b for a, b in zip(rows[i][1], rows[row][1], strict=True)],
                )
        pivots.append((row, col))
        row += 1
        if row == m:
            break
    for prow, pcol in pivots:
        cvec, pvec = rows[prow]
        if sum(cvec) == 1 and cvec[pcol] == 1:
            recovered[pcol] = True
            solved[pcol] = np.array(pvec, dtype=np.uint64)
    return recovered, solved
