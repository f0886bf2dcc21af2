"""Benchmark for the GF(2) elimination kernel (network-coded recovery).

The acceptance bar mirrors ``test_bench_waveform.py``: the vectorized
kernel must beat its retained loop reference by at least 5x on a
realistic problem size while agreeing exactly (the equivalence suite
proves the latter; a spot check here keeps the bench honest).  The
size matches the segmented RLNC use: tens of segments of a 1500-byte
payload.
"""

import time

import numpy as np

from repro.coding.gf2 import gf2_eliminate, gf2_eliminate_reference

K_SEGMENTS = 60
N_CODED = 90


def test_bench_gf2_eliminate(benchmark):
    """Batched GF(2) Gaussian elimination of a 90x60 coded system,
    with the >= 5x gate against the bit-list loop reference."""
    rng = np.random.default_rng(1)
    coeffs = rng.integers(0, 2, (N_CODED, K_SEGMENTS)).astype(np.uint8)
    recovered = benchmark(gf2_eliminate, coeffs)
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
        speedup = slow_s / fast_s
        assert speedup >= 5.0, (
            f"vectorized gf2_eliminate only {speedup:.1f}x faster than "
            f"the loop reference ({fast_s:.4f}s vs {slow_s:.4f}s)"
        )
