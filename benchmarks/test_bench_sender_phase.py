"""Benchmarks for the sender-side generation phase.

Carrier-sense queries used to rescan the full, ever-growing
transmission history on every attempt, making phase 1 O(n^2) in
offered load x duration.  The simulation now keeps an end-time-pruned
active set; the guard here replays a recorded query workload through
both strategies and gates on the asymptotic win, so a regression back
to history scans fails loudly rather than just slowing experiments.
"""

import heapq
import time

import numpy as np

from repro.sim.network import NetworkSimulation, SimulationConfig


def _synthetic_workload(n: int, seed: int = 0):
    """Start-ordered (start, end) windows plus time-ordered queries."""
    rng = np.random.default_rng(seed)
    starts = np.cumsum(rng.exponential(0.002, n))
    ends = starts + rng.uniform(0.005, 0.012, n)
    queries = np.sort(rng.uniform(0.0, starts[-1], n))
    return starts, ends, queries


def _replay_naive(starts, ends, queries) -> int:
    """The old strategy: filter the whole history per query."""
    total = 0
    for q in queries:
        total += sum(
            1 for s, e in zip(starts, ends, strict=True) if s <= q < e
        )
    return total


def _replay_pruned(starts, ends, queries) -> int:
    """The new strategy: end-time-pruned heap, O(active) per query."""
    total = 0
    heap: list[tuple[float, int]] = []
    i = 0
    for q in queries:
        while i < starts.size and starts[i] <= q:
            heapq.heappush(heap, (float(ends[i]), i))
            i += 1
        while heap and heap[0][0] <= q:
            heapq.heappop(heap)
        total += len(heap)
    return total


def test_bench_carrier_sense_active_set(benchmark):
    """Pruned active-set replay of 4000 queries over 4000 windows,
    gated >= 5x over the full-history rescan it replaced."""
    starts, ends, queries = _synthetic_workload(4000)

    pruned_total = benchmark(_replay_pruned, starts, ends, queries)

    t0 = time.perf_counter()
    naive_total = _replay_naive(starts, ends, queries)
    naive_s = time.perf_counter() - t0
    t0 = time.perf_counter()
    again = _replay_pruned(starts, ends, queries)
    pruned_s = time.perf_counter() - t0

    assert pruned_total == naive_total == again
    if benchmark.enabled:
        speedup = naive_s / pruned_s
        assert speedup >= 5.0, (
            f"pruned active set only {speedup:.1f}x faster than the "
            f"history rescan ({pruned_s:.3f}s vs {naive_s:.3f}s)"
        )


def test_bench_generate_transmissions_heavy(benchmark):
    """Absolute cost of phase 1 at heavy load (the regime where the
    O(n^2) rescan used to dominate)."""
    config = SimulationConfig(
        load_bits_per_s_per_node=13800.0,
        payload_bytes=400,
        duration_s=8.0,
        carrier_sense=True,
        seed=5,
    )

    def generate():
        return NetworkSimulation(config)._generate_transmissions()

    txs, _air = benchmark(generate)
    assert len(txs) > 100
