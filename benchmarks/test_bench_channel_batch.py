"""Benchmarks for the counter-based chip channel and trial sharding.

The counter-based channel removes the shared sequential RNG stream
that forced pair-by-pair transit, so many pairs' corruption runs as
one fused array program (the simulation fuses bounded blocks of
pairs); the chip error probabilities that feed it come from one
evaluation per interference segment of the whole run, as runs;
sharding then fans independent simulation points across worker
processes.  Each must stay bit-identical to its unfused/unsharded
equivalent — asserted here alongside the timings, so the benchmarks
double as equivalence guards.  The chip channel and the
nearest-codeword decode are also gated against the implementations
they replaced, kept as private references in the equivalence suite.
"""

import os
import sys
import time
import timeit
from pathlib import Path

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

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))
from test_vectorized_equivalence import (  # noqa: E402
    _assert_hot_equal,
    _decode_hard_reference,
    _transmit_chipwords_batch_reference,
)

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


def _best_of(runs, fn, *args):
    """Fastest of ``runs`` timed calls: the host is shared and noisy."""
    best = float("inf")
    for _ in range(runs):
        t0 = time.perf_counter()
        fn(*args)
        best = min(best, time.perf_counter() - t0)
    return best


def test_bench_chip_channel_raw_words(benchmark):
    """The 1500-pair transit from raw Philox words under integer
    limits, gated >= 1.5x over per-pair ``Generator.integers`` draws
    under float64 thresholds and asserted bit-identical to them."""
    _, flat = _pair_workload()

    fast = benchmark(transmit_chipwords_batch, *flat)

    assert np.array_equal(fast, _transmit_chipwords_batch_reference(*flat))
    if benchmark.enabled:
        reference_s = _best_of(3, _transmit_chipwords_batch_reference, *flat)
        raw_s = _best_of(3, transmit_chipwords_batch, *flat)
        speedup = reference_s / raw_s
        assert speedup >= 1.5, (
            f"raw-word transit only {speedup:.1f}x faster than the "
            f"float-threshold draw ({raw_s:.3f}s vs {reference_s:.3f}s)"
        )


def test_bench_decode_hard_min_key(benchmark):
    """Nearest-codeword decode of 1M noisy words by a blocked minimum
    over (distance, index) keys, gated >= 2.5x over the (n, 16)
    distance matrix, no slower on a 16-word call, and asserted
    bit-identical to it."""
    codebook = ZigbeeCodebook()
    rng = np.random.default_rng(3)
    sent = codebook.encode_words(rng.integers(0, 16, 1 << 20))
    received = sent ^ (
        rng.integers(0, 2**32, sent.size, dtype=np.uint32)
        & rng.integers(0, 2**32, sent.size, dtype=np.uint32)
        & rng.integers(0, 2**32, sent.size, dtype=np.uint32)
    )

    symbols, hints = benchmark(codebook.decode_hard, received)

    ref_symbols, ref_hints = _decode_hard_reference(codebook, received)
    assert np.array_equal(symbols, ref_symbols)
    assert np.array_equal(hints, ref_hints)
    if benchmark.enabled:
        reference_s = _best_of(3, _decode_hard_reference, codebook, received)
        keyed_s = _best_of(3, codebook.decode_hard, received)
        speedup = reference_s / keyed_s
        assert speedup >= 2.5, (
            f"minimum-key decode only {speedup:.1f}x faster than "
            f"the distance matrix ({keyed_s:.3f}s vs {reference_s:.3f}s)"
        )
        # The waveform receiver and fig16 decode a few words per call,
        # where a per-codeword loop of array ops would cost ~8x more.
        # One call takes ~20 us, so a slow moment of the host can
        # decide a short comparison: alternate the two sides over 25
        # short batches, so both see the same moments, and keep each
        # side's best batch.
        few = received[:16]
        reference_few_s = few_s = float("inf")
        for _ in range(25):
            reference_few_s = min(
                reference_few_s,
                timeit.timeit(
                    lambda: _decode_hard_reference(codebook, few), number=100
                ),
            )
            few_s = min(
                few_s,
                timeit.timeit(lambda: codebook.decode_hard(few), number=100),
            )
        assert few_s <= 1.5 * reference_few_s, (
            f"16-word decode {few_s / reference_few_s:.1f}x the cost of "
            "the distance matrix"
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
    transmissions, _air = sim._generate_transmissions()
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

    _assert_hot_equal(fast, ref)
    _assert_hot_equal(fast, again)
    if benchmark.enabled:
        speedup = reference_s / segments_s
        assert speedup >= 5.0, (
            f"segment evaluation only {speedup:.1f}x faster than the "
            f"per-pair loop ({segments_s:.3f}s vs {reference_s:.3f}s)"
        )


def test_bench_sharded_capacity_points(benchmark):
    """Four 15 s capacity points (carrier sense off/on x two seeds)
    prefetched with jobs=2 vs sequentially: always bit-identical;
    wall-clock gated only on multi-core hosts (workers cannot beat one
    process on a single core).  Four points of this length keep the
    two workers' start-up well below the simulation they share."""
    duration_s, seed = 15.0, 2007

    def points(cache: RunCache):
        return [
            cache.config_for(
                load=13800.0, carrier_sense=carrier_sense, seed=point_seed
            )
            for point_seed in (seed, seed + 1)
            for carrier_sense in (False, True)
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
            assert np.array_equal(ra.payload, rb.payload)

    if benchmark.enabled and (os.cpu_count() or 1) >= 2:
        t0 = time.perf_counter()
        again = RunCache(duration_s=duration_s, seed=seed, jobs=2)
        again.prefetch(points(again))
        sharded_s = time.perf_counter() - t0
        assert sharded_s < sequential_s, (
            f"jobs=2 ({sharded_s:.1f}s) not faster than sequential "
            f"({sequential_s:.1f}s) on a {os.cpu_count()}-core host"
        )
