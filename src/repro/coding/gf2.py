"""Vectorized GF(2) elimination on bit-packed uint64 words.

Random linear network coding over GF(2) asks one question of a set of
surviving equations: which unknowns do they pin down?  Intact source
blocks contribute unit vectors, valid coded blocks their coefficient
rows, and batched Gaussian elimination to reduced row-echelon form
answers it.  Coefficient rows are packed 64 bits to a uint64 word, so
each pivot step is one vectorized XOR over all rows that carry the
pivot bit.

The kernel keeps its original pure-Python loop implementation
(``gf2_eliminate_reference``) as the executable specification, pinned
by the equivalence suite.

Coefficient matrices come from the counter-based keyed streams of
:mod:`repro.utils.rng`, so a ``(seed, label, *ids)`` tuple always
names the same matrix on sender and receiver, in any process.
"""

from __future__ import annotations

import numpy as np

from repro.utils.rng import keyed_rng

_WORD_BITS = 64
_WORD_BYTES = 8
# _BIT_MASKS[b] selects bit b of a word, MSB first
_BIT_MASKS = np.uint64(1) << np.arange(
    _WORD_BITS - 1, -1, -1, dtype=np.uint64
)


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


def _pack_coeff_bits(coeffs: np.ndarray) -> np.ndarray:
    """Pack ``(m, k)`` 0/1 coefficients into ``(m, ceil(k/64))``
    uint64 words, bit ``j`` of a row at bit ``63 - (j % 64)`` of word
    ``j // 64`` (MSB-first)."""
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


def gf2_eliminate(coeffs: np.ndarray) -> np.ndarray:
    """Which unknowns a system of GF(2) equations pins down.

    ``coeffs`` is the ``(m, k)`` 0/1 matrix of the available
    equations.  Reduces it to reduced row-echelon form — each pivot
    step XORs the pivot row into *every* other row carrying the pivot
    bit, in one vectorized operation — and returns the ``(k,)`` bool
    mask of unknowns whose pivot row is exactly their unit vector.
    """
    coeffs = np.asarray(coeffs, dtype=np.uint8)
    if coeffs.ndim != 2:
        raise ValueError("coeffs must be 2-D")
    m, k = coeffs.shape
    recovered = np.zeros(k, dtype=bool)
    if m == 0:
        return recovered
    rows = _pack_coeff_bits(coeffs)
    prows: list[int] = []
    pcols: list[int] = []
    row = 0
    for col in range(k):
        word = col // _WORD_BITS
        carriers = (rows[:, word] & _BIT_MASKS[col % _WORD_BITS]) != 0
        below = np.flatnonzero(carriers[row:])
        if below.size == 0:
            continue
        pivot = row + int(below[0])
        if pivot != row:
            swapped = rows[row].copy()
            rows[row] = rows[pivot]
            rows[pivot] = swapped
            carriers[pivot] = carriers[row]
        carriers[row] = False
        rows[carriers] ^= rows[row]
        prows.append(row)
        pcols.append(col)
        row += 1
        if row == m:
            break
    # Unique determination: a pivot row is exactly the unit vector at
    # its column.
    pcol = np.array(pcols, dtype=np.intp)
    unit = np.zeros((pcol.size, rows.shape[1]), dtype=np.uint64)
    unit[np.arange(pcol.size), pcol // _WORD_BITS] = _BIT_MASKS[
        pcol % _WORD_BITS
    ]
    recovered[pcol[(rows[prows] == unit).all(axis=1)]] = True
    return recovered


def gf2_eliminate_reference(coeffs: np.ndarray) -> np.ndarray:
    """Loop specification of :func:`gf2_eliminate` (pinned).

    Same pivot choices (first carrier row, columns left to right) on
    plain Python ints, so swaps and XOR order match exactly.
    """
    coeffs = np.asarray(coeffs, dtype=np.uint8)
    m, k = coeffs.shape
    recovered = np.zeros(k, dtype=bool)
    if m == 0:
        return recovered
    rows = [[int(c) for c in coeffs[i]] for i in range(m)]
    pivots: list[tuple[int, int]] = []
    row = 0
    for col in range(k):
        pivot = next((i for i in range(row, m) if rows[i][col]), None)
        if pivot is None:
            continue
        rows[row], rows[pivot] = rows[pivot], rows[row]
        for i in range(m):
            if i != row and rows[i][col]:
                rows[i] = [
                    a ^ b for a, b in zip(rows[i], rows[row], strict=True)
                ]
        pivots.append((row, col))
        row += 1
        if row == m:
            break
    for prow, pcol in pivots:
        cvec = rows[prow]
        if sum(cvec) == 1 and cvec[pcol] == 1:
            recovered[pcol] = True
    return recovered
