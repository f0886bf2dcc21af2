"""The PP-ARQ chunk-selection dynamic program (paper §5.1, Eqs. 4-5).

The receiver must pick *chunks* — groups of consecutive bad runs
(including the good runs between them) — to request for retransmission,
trading feedback-description bits against needlessly retransmitted good
symbols.  The paper's cost model::

    C(c_ii)  = log S + log λb_i + min(λg_i, λ_C)                  (Eq. 4)
    C(c_ij)  = min( 2 log S + Σ_{l=i}^{j-1} λg_l ,
                    min_{i<=k<j} C(c_ik) + C(c_{k+1,j}) )         (Eq. 5)

with S the packet length in symbols and λ_C the checksum length.  The
problem has optimal substructure; we memoise over (i, j) intervals,
O(L^2) states with O(L) transitions — the O(L^3) bottom-up table the
paper describes.

Costs use real-valued log2 exactly as written (they are a *model* of
feedback size; the concrete encoder in :mod:`repro.arq.feedback`
reports its true bit count).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.arq.runlength import RunLengthPacket


@dataclass(frozen=True)
class ChunkPlan:
    """Output of the DP: which chunks to request.

    ``chunks`` lists (i, j) pairs of 0-based bad-run indices, each
    denoting chunk c_{i,j}; ``segments`` gives the corresponding symbol
    ranges [start, end); ``cost_bits`` is the Eq. 4/5 model cost of the
    whole plan.
    """

    chunks: tuple[tuple[int, int], ...]
    segments: tuple[tuple[int, int], ...]
    cost_bits: float


def _log2(value: float) -> float:
    if value <= 0:
        raise ValueError(f"log2 argument must be positive, got {value}")
    return math.log2(value)


def _unfold_splits(
    n_runs: int, split_of: Callable[[int, int], int | None]
) -> list[tuple[int, int]]:
    """Iteratively unfold a split table into the sorted chunk list.

    ``split_of(i, j)`` returns the DP's chosen split point for the
    interval, or a negative value / ``None`` for "keep whole".  An
    explicit stack replaces the old recursion, which hit Python's
    recursion limit on packets with ~1000 bad runs (worst-case split
    chains recurse once per run).
    """
    chunks: list[tuple[int, int]] = []
    stack: list[tuple[int, int]] = [(0, n_runs - 1)]
    while stack:
        i, j = stack.pop()
        split = split_of(i, j)
        if split is None or split < i:
            chunks.append((i, j))
        else:
            stack.append((split + 1, j))
            stack.append((i, split))
    chunks.sort()
    return chunks


def plan_chunks(
    runs: RunLengthPacket,
    checksum_bits: int = 32,
) -> ChunkPlan:
    """Run the Eq. 4/5 DP and return the optimal chunking.

    The O(L^3) table fills one anti-diagonal (interval span) at a time;
    within a span, the minimization over split points ``k`` runs as a
    single 2-D numpy reduction over every interval of that span at
    once.  Costs and chosen splits are float-identical to
    :func:`plan_chunks_reference` (ties resolve to the smallest ``k``,
    and a split must beat keeping the chunk whole *strictly*).

    Parameters
    ----------
    runs:
        The packet's run-length representation.
    checksum_bits:
        λ_C, the checksum length in bits, measured against good-run
        lengths in *symbols worth of bits* — we convert good-run symbol
        counts to bits (4 bits/symbol) before comparing, since both
        terms of min(λg, λ_C) are feedback payload sizes.
    """
    if checksum_bits <= 0:
        raise ValueError(
            f"checksum_bits must be positive, got {checksum_bits}"
        )
    if runs.all_good:
        return ChunkPlan(chunks=(), segments=(), cost_bits=0.0)

    n_runs = runs.n_bad_runs
    log_syms = _log2(max(runs.n_symbols, 2))
    bits_per_symbol = 4
    good_bits = np.array(
        [g * bits_per_symbol for g in runs.good], dtype=np.int64
    )
    bad = np.asarray(runs.bad, dtype=np.int64)

    # cost[i, j] / split[i, j] over 0 <= i <= j < n_runs; split < i
    # encodes "keep as one chunk".
    cost = np.zeros((n_runs, n_runs))
    split = np.full((n_runs, n_runs), -1, dtype=np.int64)

    # Base cases (Eq. 4), matching the reference's operation order
    # (log_syms + log2 + min) so the floats agree to the last ulp.
    diag = np.arange(n_runs)
    cost[diag, diag] = (
        log_syms + np.log2(np.maximum(bad, 2))
    ) + np.minimum(good_bits, checksum_bits)

    # Interior-good prefix sums: sum(good_bits[i:j]) = prefix[j] -
    # prefix[i], exact in int64.
    prefix = np.concatenate([[0], np.cumsum(good_bits)])
    two_log_syms = 2 * log_syms

    # Bottom-up over interval spans (Eq. 5), one diagonal per pass.
    for span in range(2, n_runs + 1):
        i_idx = np.arange(n_runs - span + 1)
        j_idx = i_idx + span - 1
        # Keep c_{i,j} whole: describe one range, resend the interior
        # good runs.
        whole = two_log_syms + (prefix[j_idx] - prefix[i_idx])
        # Split candidates k = i + m: left interval ends at k, right
        # starts at k + 1.
        m_idx = np.arange(span - 1)
        left = cost[i_idx[:, None], i_idx[:, None] + m_idx]
        right = cost[i_idx[:, None] + m_idx + 1, j_idx[:, None]]
        totals = left + right
        best_m = np.argmin(totals, axis=1)
        best_split_cost = totals[i_idx, best_m]
        # The reference scan starts from "whole" and replaces only on
        # strictly smaller, taking the first minimizing k (argmin is
        # first-match too).
        use_split = best_split_cost < whole
        cost[i_idx, j_idx] = np.where(use_split, best_split_cost, whole)
        split[i_idx, j_idx] = np.where(use_split, i_idx + best_m, -1)

    chunks = _unfold_splits(n_runs, lambda i, j: int(split[i, j]))
    segments = tuple(runs.chunk_span(i, j) for i, j in chunks)
    return ChunkPlan(
        chunks=tuple(chunks),
        segments=segments,
        cost_bits=float(cost[0, n_runs - 1]),
    )


def plan_chunks_reference(
    runs: RunLengthPacket,
    checksum_bits: int = 32,
) -> ChunkPlan:
    """Pure-Python Eq. 4/5 DP — the executable specification.

    Retained as the ground truth :func:`plan_chunks` is pinned against
    by the equivalence suite; see that function for the cost model.
    """
    if checksum_bits <= 0:
        raise ValueError(
            f"checksum_bits must be positive, got {checksum_bits}"
        )
    if runs.all_good:
        return ChunkPlan(chunks=(), segments=(), cost_bits=0.0)

    n_runs = runs.n_bad_runs
    log_syms = _log2(max(runs.n_symbols, 2))
    bits_per_symbol = 4
    good_bits = [g * bits_per_symbol for g in runs.good]
    bad = runs.bad

    # memo[(i, j)] = (cost, split) where split is None for "keep as one
    # chunk" or k for "split into c_{i,k} + c_{k+1,j}".
    memo: dict[tuple[int, int], tuple[float, int | None]] = {}

    # Base cases (Eq. 4).
    for i in range(n_runs):
        cost = (
            log_syms
            + _log2(max(bad[i], 2))
            + min(good_bits[i], checksum_bits)
        )
        memo[(i, i)] = (cost, None)

    # Bottom-up over interval lengths (Eq. 5).
    for span in range(2, n_runs + 1):
        for i in range(n_runs - span + 1):
            j = i + span - 1
            # Keep c_{i,j} whole: describe one range, resend the
            # interior good runs.
            whole = 2 * log_syms + sum(good_bits[i:j])
            best_cost = whole
            best_split: int | None = None
            for k in range(i, j):
                cost = memo[(i, k)][0] + memo[(k + 1, j)][0]
                if cost < best_cost:
                    best_cost = cost
                    best_split = k
            memo[(i, j)] = (best_cost, best_split)

    chunks = _unfold_splits(
        n_runs, lambda i, j: memo[(i, j)][1]
    )
    segments = tuple(runs.chunk_span(i, j) for i, j in chunks)
    return ChunkPlan(
        chunks=tuple(chunks),
        segments=segments,
        cost_bits=memo[(0, n_runs - 1)][0],
    )


def chunk_cost_naive(runs: RunLengthPacket, checksum_bits: int = 32) -> float:
    """Cost of the naive per-bad-run feedback (no merging).

    This is the "send back the bit ranges of each chunk believed to be
    wrong" strawman of §5: every bad run becomes its own chunk.  Useful
    as the comparison baseline for the DP's savings.
    """
    if runs.all_good:
        return 0.0
    log_syms = _log2(max(runs.n_symbols, 2))
    bits_per_symbol = 4
    total = 0.0
    for b, g in zip(runs.bad, runs.good, strict=True):
        total += (
            log_syms
            + _log2(max(b, 2))
            + min(g * bits_per_symbol, checksum_bits)
        )
    return total


def merged_single_chunk_cost(
    runs: RunLengthPacket, checksum_bits: int = 32
) -> float:
    """Cost of requesting one chunk spanning every bad run.

    The other extreme from :func:`chunk_cost_naive`; the DP should
    never do worse than the better of the two.
    """
    if runs.all_good:
        return 0.0
    if runs.n_bad_runs == 1:
        return plan_chunks(runs, checksum_bits).cost_bits
    log_syms = _log2(max(runs.n_symbols, 2))
    bits_per_symbol = 4
    interior_good = sum(runs.good[:-1]) * bits_per_symbol
    return 2 * log_syms + interior_good
