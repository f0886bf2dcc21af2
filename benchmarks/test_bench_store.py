"""Benchmarks for the durable run store.

The store only earns its place if a warm hit is *much* cheaper than
simulating the point — otherwise the memory → disk → simulate ladder
would be pointless.  The gate below requires a >= 20x advantage at the
benchmark's simulation scale (the measured ratio grows with duration:
simulation cost is superlinear in offered load x time, while a warm
read is one file read into a buffer the arrays are views of).
"""

import time
import timeit

import numpy as np

from repro.experiments.common import RunCache, _simulate_config
from repro.store import RunStore

_STORE_DURATION_S = 15.0
_STORE_SEED = 7


def _store_point():
    cache = RunCache(duration_s=_STORE_DURATION_S, seed=_STORE_SEED)
    return cache.config_for(load=13800.0, carrier_sense=False)


def _best_of_three(fn, *args):
    return min(timeit.repeat(lambda: fn(*args), number=1, repeat=3))


def test_bench_store_warm_hit(benchmark, tmp_path):
    """Warm store hit vs simulating the same point (>= 20x gate)."""
    config = _store_point()
    result = _simulate_config(config)
    store = RunStore(tmp_path)
    store.put(config, result)

    loaded = benchmark(store.get, config)
    assert loaded is not None
    assert loaded.config == config
    assert len(loaded.records) == len(result.records)
    assert all(
        np.array_equal(a.payload, b.payload)
        for a, b in zip(loaded.records, result.records, strict=True)
    )

    if benchmark.enabled:
        # Wall-clock gates only when actually benchmarking; under
        # --benchmark-disable (CI) a contended runner would flake.
        # Both sides are the fastest of three timed calls, so a
        # scheduler stall of a shared host moves neither.
        simulate_s = _best_of_three(_simulate_config, config)
        warm_s = _best_of_three(store.get, config)
        advantage = simulate_s / warm_s
        assert advantage >= 20.0, (
            f"warm store hit only {advantage:.1f}x cheaper than "
            f"simulating ({warm_s:.4f}s vs {simulate_s:.4f}s)"
        )


def test_bench_store_put(benchmark, tmp_path):
    """Entry write cost (arrays hashed and written straight to a temp
    file, then renamed into place)."""
    config = _store_point()
    result = _simulate_config(config)
    store = RunStore(tmp_path)

    path = benchmark(store.put, config, result)
    assert path.is_file()
    if benchmark.enabled:
        start = time.perf_counter()
        store.put(config, result)
        put_s = time.perf_counter() - start
        # Writing must stay a small fraction of simulating, or the
        # cold pass of a warm-store workflow would not be worth it.
        assert put_s < 1.0, f"store write took {put_s:.2f}s"
