"""Benchmarks for the counter-based chip channel and trial sharding.

The counter-based channel removes the shared sequential RNG stream
that forced pair-by-pair transit, so a whole trial's corruption runs
as one fused array program; the chip error probabilities that feed it
come from one evaluation per interference segment of the whole run;
sharding then fans independent simulation points across worker
processes.  Each must stay bit-identical to its unfused/unsharded
equivalent — asserted here alongside the timings, so the benchmarks
double as equivalence guards.
"""

import os
import time

import numpy as np

from repro.experiments.common import RunCache
from repro.phy.chipchannel import transmit_chipwords_batch
from repro.phy.codebook import ZigbeeCodebook
from repro.sim.network import (
    NetworkSimulation,
    SimulationConfig,
    hot_codewords,
    hot_codewords_reference,
)
from repro.utils.rng import derive_key

N_PAIRS = 1500
WORDS_PER_PAIR = 40


def _pair_workload(seed: int = 7):
    """N_PAIRS receptions' hot words with per-pair keys, pre-flattened."""
    codebook = ZigbeeCodebook()
    rng = np.random.default_rng(seed)
    per_pair = []
    for pair in range(N_PAIRS):
        words = codebook.encode_words(
            rng.integers(0, 16, WORDS_PER_PAIR)
        )
        p = rng.uniform(0.0, 0.3, WORDS_PER_PAIR)
        key = derive_key(0, "chip-channel", pair, 23)
        per_pair.append((words, p, key))
    flat = (
        np.concatenate([w for w, _, _ in per_pair]),
        np.concatenate([p for _, p, _ in per_pair]),
        [WORDS_PER_PAIR] * N_PAIRS,
        np.stack([k for _, _, k in per_pair]),
    )
    return per_pair, flat


def test_bench_fused_chip_channel(benchmark):
    """One fused transit of 1500 pairs' words, gated >= 1.5x over
    per-pair calls (the python dispatch and per-call pack/XOR overhead
    the fusion removes) and asserted bit-identical to them."""
    per_pair, flat = _pair_workload()

    fused = benchmark(transmit_chipwords_batch, *flat)

    t0 = time.perf_counter()
    unfused = np.concatenate(
        [
            transmit_chipwords_batch(w, p, [w.size], k[None, :])
            for w, p, k in per_pair
        ]
    )
    per_pair_s = time.perf_counter() - t0
    t0 = time.perf_counter()
    again = transmit_chipwords_batch(*flat)
    fused_s = time.perf_counter() - t0

    assert np.array_equal(fused, unfused)
    assert np.array_equal(fused, again)
    if benchmark.enabled:
        speedup = per_pair_s / fused_s
        assert speedup >= 1.5, (
            f"fused transit only {speedup:.1f}x faster than per-pair "
            f"calls ({fused_s:.3f}s vs {per_pair_s:.3f}s)"
        )


def test_bench_hot_codewords_segments(benchmark):
    """A heavy run's chip error probabilities from its interference
    segments, gated >= 5x over the per-pair, per-symbol reference and
    asserted bit-identical to it."""
    config = SimulationConfig(
        load_bits_per_s_per_node=13800.0,
        duration_s=15.0,
        carrier_sense=False,
        seed=2007,
    )
    sim = NetworkSimulation(config)
    transmissions = sim._generate_transmissions()
    args = (
        sim.medium,
        transmissions,
        sim.testbed.receiver_ids,
        sim._draw_fades(transmissions),
        config.min_rx_snr_db,
    )

    fast = benchmark(hot_codewords, *args)

    t0 = time.perf_counter()
    ref = hot_codewords_reference(*args)
    reference_s = time.perf_counter() - t0
    t0 = time.perf_counter()
    again = hot_codewords(*args)
    segments_s = time.perf_counter() - t0

    for name in ("tx_index", "receiver", "sizes", "index", "prob"):
        assert np.array_equal(getattr(fast, name), getattr(ref, name))
        assert np.array_equal(getattr(fast, name), getattr(again, name))
    if benchmark.enabled:
        speedup = reference_s / segments_s
        assert speedup >= 5.0, (
            f"segment evaluation only {speedup:.1f}x faster than the "
            f"per-pair loop ({segments_s:.3f}s vs {reference_s:.3f}s)"
        )


def test_bench_sharded_capacity_points(benchmark):
    """Two capacity points prefetched with jobs=2 vs sequentially:
    always bit-identical; wall-clock gated only on multi-core hosts
    (workers cannot beat one process on a single core)."""
    duration_s, seed = 6.0, 2007

    def points(cache: RunCache):
        return [
            cache.config_for(load=13800.0, carrier_sense=False),
            cache.config_for(load=13800.0, carrier_sense=True),
        ]

    def sharded():
        runs = RunCache(duration_s=duration_s, seed=seed, jobs=2)
        runs.prefetch(points(runs))
        return runs

    par = benchmark.pedantic(sharded, rounds=1, iterations=1)

    t0 = time.perf_counter()
    seq = RunCache(duration_s=duration_s, seed=seed, jobs=1)
    seq.prefetch(points(seq))
    sequential_s = time.perf_counter() - t0

    for config in points(seq):
        a, b = seq.get(config), par.get(config)
        assert len(a.records) == len(b.records)
        for ra, rb in zip(a.records, b.records, strict=True):
            assert ra.tx.tx_id == rb.tx.tx_id
            assert np.array_equal(ra.body_symbols, rb.body_symbols)
            assert np.array_equal(ra.body_hints, rb.body_hints)

    if benchmark.enabled and (os.cpu_count() or 1) >= 2:
        t0 = time.perf_counter()
        again = RunCache(duration_s=duration_s, seed=seed, jobs=2)
        again.prefetch(points(again))
        sharded_s = time.perf_counter() - t0
        assert sharded_s < sequential_s, (
            f"jobs=2 ({sharded_s:.1f}s) not faster than sequential "
            f"({sequential_s:.1f}s) on a {os.cpu_count()}-core host"
        )
