"""Benchmarks for the GF(2) elimination kernel (network-coded recovery).

The acceptance bar mirrors ``test_bench_waveform.py``: the vectorized
kernel must beat its retained loop reference by at least 5x on a
realistic problem size while agreeing exactly (the equivalence suite
proves the latter; a spot check here keeps the bench honest).  Two
sizes are gated: one 90x60 coded system (tens of segments of a
1500-byte payload), and a stack of S-PRAC erasure patterns the size of
one coded-recovery scoring call, which the kernel reduces in one
batched call against the reference run system by system.

Each bench times a fixed number of rounds: the gates time their own
``perf_counter`` pairs, so calibration rounds would buy nothing.
"""

import time

import numpy as np

from repro.coding.gf2 import gf2_eliminate, gf2_eliminate_reference
from repro.coding.rlnc import SegmentedRlncCodec

K_SEGMENTS = 60
N_CODED = 90
ROUNDS = 20

# One S-PRAC scoring call's distinct erasure patterns, coded-recovery
# sized: k = 30 data segments, r = 15 repair segments.
STACK_K = 30
STACK_R = 15
N_PATTERNS = 825


def _assert_speedup(fast_s, slow_s, what):
    speedup = slow_s / fast_s
    assert speedup >= 5.0, (
        f"{what} only {speedup:.1f}x faster than the loop reference "
        f"({fast_s:.4f}s vs {slow_s:.4f}s)"
    )


def test_bench_gf2_eliminate(benchmark):
    """Batched GF(2) Gaussian elimination of a 90x60 coded system,
    with the >= 5x gate against the bit-list loop reference."""
    rng = np.random.default_rng(1)
    coeffs = rng.integers(0, 2, (N_CODED, K_SEGMENTS)).astype(np.uint8)
    recovered = benchmark.pedantic(
        gf2_eliminate, args=(coeffs,), rounds=ROUNDS, iterations=1
    )
    assert recovered.all()
    start = time.perf_counter()
    fast_result = gf2_eliminate(coeffs)
    fast_s = time.perf_counter() - start
    start = time.perf_counter()
    slow_result = gf2_eliminate_reference(coeffs)
    slow_s = time.perf_counter() - start
    assert np.array_equal(fast_result, slow_result)
    if benchmark.enabled:
        # Wall-clock gates only when actually benchmarking; under
        # --benchmark-disable (CI) a contended runner would flake.
        _assert_speedup(fast_s, slow_s, "vectorized gf2_eliminate")


def _pattern_stack(rng):
    """S-PRAC systems of random bursty erasure patterns: each pattern
    loses a random number of data and repair segments, and its system
    is the surviving repair rows over the erased columns."""
    coeffs = SegmentedRlncCodec(STACK_K, STACK_R).coefficients()
    loss = rng.uniform(0.0, 0.6, (N_PATTERNS, 1)) ** 2
    erased = rng.random((N_PATTERNS, STACK_K)) < loss
    repair_ok = rng.random((N_PATTERNS, STACK_R)) >= loss
    return (coeffs & repair_ok[:, :, None] & erased[:, None, :]).astype(np.uint8)


def test_bench_gf2_eliminate_pattern_stack(benchmark):
    """One batched elimination of 825 S-PRAC erasure systems, with
    the >= 5x gate against the reference applied per system."""
    stack = _pattern_stack(np.random.default_rng(2))
    recovered = benchmark.pedantic(
        gf2_eliminate, args=(stack,), rounds=ROUNDS, iterations=1
    )
    assert recovered.shape == (N_PATTERNS, STACK_K) and recovered.any()
    start = time.perf_counter()
    fast_result = gf2_eliminate(stack)
    fast_s = time.perf_counter() - start
    start = time.perf_counter()
    slow_result = [gf2_eliminate_reference(system) for system in stack]
    slow_s = time.perf_counter() - start
    assert np.array_equal(fast_result, np.array(slow_result))
    if benchmark.enabled:
        _assert_speedup(fast_s, slow_s, "batched gf2_eliminate")
