"""Microbenchmarks of the library's hot paths.

These measure the kernels every experiment leans on: vectorised
nearest-codeword decoding, the chip channel, the PP-ARQ dynamic
program, feedback encoding, and columnar trace evaluation.
Regressions here multiply directly into experiment wall-clock time.
"""

import time
from dataclasses import asdict

import numpy as np

from repro.arq.chunking import plan_chunks
from repro.arq.feedback import (
    FeedbackPacket,
    decode_feedback,
    encode_feedback,
    gaps_for_segments,
)
from repro.arq.runlength import RunLengthPacket
from repro.link.schemes import (
    FragmentedCrcScheme,
    PacketCrcScheme,
    PprScheme,
    SpracScheme,
)
from repro.phy.batch import BatchReceptionEngine
from repro.phy.chipchannel import transmit_chipwords
from repro.phy.codebook import ZigbeeCodebook
from repro.phy.modulation import MskModulator
from repro.sim.metrics import evaluate_schemes, evaluate_schemes_reference
from repro.sim.network import NetworkSimulation, SimulationConfig
from repro.utils.crc import CRC32_IEEE


def test_bench_decode_hard_throughput(benchmark):
    """Nearest-codeword decode of 10k codewords (the per-reception cost)."""
    codebook = ZigbeeCodebook()
    rng = np.random.default_rng(0)
    words = codebook.encode_words(rng.integers(0, 16, 10_000))
    received = transmit_chipwords(words, 0.1, rng)
    symbols, hints = benchmark(codebook.decode_hard, received)
    assert symbols.size == 10_000
    assert hints.mean() > 0


def test_bench_chip_channel(benchmark):
    """BSC transit of 10k codewords with per-symbol probabilities."""
    codebook = ZigbeeCodebook()
    rng = np.random.default_rng(1)
    words = codebook.encode_words(rng.integers(0, 16, 10_000))
    p = rng.uniform(0.0, 0.3, 10_000)

    received = benchmark(
        lambda: transmit_chipwords(words, p, np.random.default_rng(2))
    )
    assert received.size == 10_000


def test_bench_chunking_dp(benchmark):
    """The O(L^3) DP on a packet with 40 bad runs."""
    rng = np.random.default_rng(3)
    mask = np.ones(3000, dtype=bool)
    starts = np.sort(rng.choice(2900, size=40, replace=False))
    for s in starts:
        mask[s : s + int(rng.integers(1, 8))] = False
    runs = RunLengthPacket.from_labels(mask)
    plan = benchmark(plan_chunks, runs)
    requested = sum(end - start for start, end in plan.segments)
    assert requested >= (~mask).sum()


def test_bench_chunking_dp_dense(benchmark):
    """The per-diagonal vectorized DP on a packet with 120 bad runs —
    the regime where the old O(L^3) Python loops dominated."""
    rng = np.random.default_rng(30)
    mask = np.ones(6000, dtype=bool)
    starts = np.sort(rng.choice(5800, size=120, replace=False))
    for s in starts:
        mask[s : s + int(rng.integers(1, 6))] = False
    runs = RunLengthPacket.from_labels(mask)
    plan = benchmark(plan_chunks, runs)
    requested = sum(end - start for start, end in plan.segments)
    assert requested >= (~mask).sum()


def test_bench_batched_reception(benchmark):
    """Fused nearest-codeword decode of 200 receptions' corrupted
    words in one BatchReceptionEngine call (the per-trial pattern)."""
    codebook = ZigbeeCodebook()
    rng = np.random.default_rng(31)
    arrays = []
    for _ in range(200):
        words = codebook.encode_words(
            rng.integers(0, 16, int(rng.integers(20, 120)))
        )
        arrays.append(transmit_chipwords(words, 0.15, rng))
    engine = BatchReceptionEngine(codebook)
    decoded = benchmark(engine.decode_hard_ragged, arrays)
    assert len(decoded) == 200


def test_bench_feedback_roundtrip(benchmark):
    """Encode + decode of a 12-segment feedback packet."""
    n_symbols = 3000
    segments = tuple((i * 200, i * 200 + 40) for i in range(12))
    gaps = gaps_for_segments(segments, n_symbols)
    packet = FeedbackPacket(
        seq=1,
        n_symbols=n_symbols,
        segments=segments,
        gap_checksums=tuple(7 for _ in gaps),
    )

    def roundtrip():
        return decode_feedback(encode_feedback(packet))

    decoded = benchmark(roundtrip)
    assert decoded.segments == segments


def test_bench_msk_modulation(benchmark):
    """Waveform synthesis of a 100-symbol frame at 4 samples/chip."""
    codebook = ZigbeeCodebook()
    rng = np.random.default_rng(4)
    symbols = rng.integers(0, 16, 100)
    modulator = MskModulator()
    wave = benchmark(modulator.modulate_symbols, symbols, codebook)
    assert wave.size > 0


def test_bench_checksum_many(benchmark):
    """Batched CRC-32 of 64 equal-length 50-byte rows in one pass,
    spot-checked against per-row compute()."""
    rng = np.random.default_rng(6)
    rows = rng.integers(0, 256, (64, 50)).astype(np.uint8)

    crcs = benchmark(CRC32_IEEE.checksum_many, rows)
    assert crcs.shape == (64,)
    spot = rng.integers(0, 64, 8)
    for i in spot:
        assert int(crcs[i]) == CRC32_IEEE.compute(rows[i].tobytes())


def _trace_schemes():
    return [
        PacketCrcScheme(),
        FragmentedCrcScheme(n_fragments=30),
        PprScheme(eta=6.0),
        SpracScheme(n_segments=30, n_repair=15),
    ]


def test_bench_evaluate_schemes(benchmark):
    """Columnar evaluation of the paper's three schemes plus S-PRAC on
    a 5 s heavy-load run (both postamble modes), with the >= 5x gate
    against the per-record reference.  Fresh schemes per call, so no
    S-PRAC recovery memo carries over between calls."""
    result = NetworkSimulation(
        SimulationConfig(
            load_bits_per_s_per_node=13800.0,
            payload_bytes=400,
            duration_s=5.0,
            carrier_sense=False,
            seed=7,
        )
    ).run()
    evaluations = benchmark(
        lambda: evaluate_schemes(result, _trace_schemes())
    )
    assert len(evaluations) == 8

    start = time.perf_counter()
    fast = evaluate_schemes(result, _trace_schemes())
    fast_s = time.perf_counter() - start
    start = time.perf_counter()
    slow = evaluate_schemes_reference(result, _trace_schemes())
    slow_s = time.perf_counter() - start
    for a, b in zip(fast, slow, strict=True):
        assert {link: asdict(a.stats[link]) for link in a.stats.links()} == {
            link: asdict(b.stats[link]) for link in b.stats.links()
        }
    if benchmark.enabled:
        # Wall-clock gate only when actually benchmarking; under
        # --benchmark-disable (CI) a contended runner would flake.
        speedup = slow_s / fast_s
        assert speedup >= 5.0, (
            f"columnar evaluate_schemes only {speedup:.1f}x faster than "
            f"the per-record reference ({fast_s:.4f}s vs {slow_s:.4f}s)"
        )
