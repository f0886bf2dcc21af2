"""Vectorized GF(2) elimination on bit-packed uint64 words.

Random linear network coding over GF(2) asks one question of a set of
surviving equations: which unknowns do they pin down?  Intact source
blocks contribute unit vectors, valid coded blocks their coefficient
rows, and batched Gaussian elimination to reduced row-echelon form
answers it.  Coefficient rows are packed 64 bits to a uint64 word, and
a whole stack of systems is reduced at once, so each pivot step is one
vectorized XOR over every row of every system that carries its
system's pivot bit.

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
_ONE = np.uint64(1)


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
    """Pack ``(..., k)`` 0/1 coefficients into ``(..., ceil(k/64))``
    uint64 words, bit ``j`` of a row at bit ``63 - (j % 64)`` of word
    ``j // 64`` (MSB-first)."""
    k = coeffs.shape[-1]
    n_words = -(-k // _WORD_BITS)
    packed = np.packbits(coeffs.astype(np.uint8), axis=-1)
    out = np.zeros(coeffs.shape[:-1] + (n_words * _WORD_BYTES,), dtype=np.uint8)
    out[..., : packed.shape[-1]] = packed
    return out.view(np.dtype(">u8")).astype(np.uint64)


def gf2_eliminate(coeffs: np.ndarray) -> np.ndarray:
    """Which unknowns each of a stack of GF(2) systems pins down.

    ``coeffs`` is one ``(m, k)`` 0/1 matrix of available equations, or
    a ``(P, m, k)`` stack of ``P`` such systems; the answer is the
    ``(k,)`` or ``(P, k)`` bool mask of unknowns whose unit vector lies
    in the row space.  All systems are reduced together, one row index
    per step: row ``i`` of every system takes its lowest set bit as its
    pivot and is XORed into every other row of its system carrying
    that bit.  Afterwards no two rows share a pivot and no row carries
    another's pivot, so a unit vector lies in the row space iff it is
    one of the rows: an unknown is pinned down iff its pivot row holds
    no other bit.
    """
    coeffs = np.asarray(coeffs, dtype=np.uint8)
    if coeffs.ndim not in (2, 3):
        raise ValueError("coeffs must be one 2-D system or a 3-D stack")
    stack = coeffs if coeffs.ndim == 3 else coeffs[None]
    n_systems, m, k = stack.shape
    rows = _pack_coeff_bits(stack)
    systems = np.arange(n_systems)
    pivot_word = np.zeros((n_systems, m), dtype=np.intp)
    pivot_bit = np.zeros((n_systems, m), dtype=np.uint64)  # 0: no pivot
    for i in range(m if k else 0):
        row = rows[:, i, :]
        word = (row != 0).argmax(axis=1)
        bits = row[systems, word]
        pivot = bits & (~bits + _ONE)  # lowest set bit; 0 for a zero row
        carriers = (rows[systems, :, word] & pivot[:, None]) != 0
        carriers[:, i] = False
        rows ^= row[:, None, :] * carriers[:, :, None]
        pivot_word[:, i] = word
        pivot_bit[:, i] = pivot
        # Past k rows, a full rank has cleared every row still to come.
        if i + 1 >= k and not rows[:, i + 1 :].any():
            break
    # Bit b (from the least significant) of word w is column 64 w + 63 - b.
    col = (pivot_word + 1) * _WORD_BITS - 1 - np.bitwise_count(pivot_bit - _ONE)
    unit = (pivot_bit != 0) & (np.bitwise_count(rows).sum(axis=2) == 1)
    recovered = np.zeros((n_systems, k), dtype=bool)
    recovered[np.nonzero(unit)[0], col[unit]] = True
    return recovered.reshape(coeffs.shape[:-2] + (k,))


def gf2_eliminate_reference(coeffs: np.ndarray) -> np.ndarray:
    """Loop specification of :func:`gf2_eliminate` for one ``(m, k)``
    system (pinned system by system).

    Gauss-Jordan elimination to reduced row-echelon form on plain
    Python ints, leftmost pivots first.  Its pivots differ from the
    batched kernel's, but which unit vectors lie in the row space does
    not depend on them.
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
