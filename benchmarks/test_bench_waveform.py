"""Benchmarks for the vectorized waveform pipeline (paper §4/§6).

The acceptance bar for the waveform batch engine: on a 1500-chip
capture the vectorized MSK matched filter and modulator must beat
their retained per-chip loop references by at least 5x while staying
bit-exact (the equivalence suite proves the latter; spot checks here
keep the bench honest).
"""

import time

import numpy as np

from repro.phy.batch import WaveformBatchEngine
from repro.phy.channelsim import add_awgn
from repro.phy.codebook import ZigbeeCodebook
from repro.phy.demodulation import MskDemodulator
from repro.phy.modulation import MskModulator
from repro.phy.sync import sync_field_symbols

CAPTURE_CHIPS = 1500


def _capture(seed, n_chips=CAPTURE_CHIPS, noise=0.2):
    rng = np.random.default_rng(seed)
    chips = rng.integers(0, 2, n_chips)
    wave = MskModulator().modulate_chips(chips)
    return chips, add_awgn(wave, noise, rng)


def test_bench_msk_demodulator_1500_chips(benchmark):
    """Vectorized matched filter on a 1500-chip capture, with the
    >= 5x speedup gate against the per-chip loop reference."""
    demod = MskDemodulator()
    _, capture = _capture(seed=0)

    soft = benchmark(demod.demodulate_soft, capture, 0, CAPTURE_CHIPS)
    assert soft.size == CAPTURE_CHIPS

    start = time.perf_counter()
    vec = demod.demodulate_soft(capture, 0, CAPTURE_CHIPS)
    vectorized_s = time.perf_counter() - start
    start = time.perf_counter()
    ref = demod.demodulate_soft_reference(capture, 0, CAPTURE_CHIPS)
    reference_s = time.perf_counter() - start

    assert np.array_equal(vec, ref)
    if benchmark.enabled:
        # Wall-clock gates only when actually benchmarking; under
        # --benchmark-disable (CI) a contended runner would flake.
        speedup = reference_s / vectorized_s
        assert speedup >= 5.0, (
            f"vectorized matched filter only {speedup:.1f}x faster "
            f"than the loop reference ({vectorized_s:.4f}s vs "
            f"{reference_s:.4f}s)"
        )


def test_bench_msk_modulator_1500_chips(benchmark):
    """Vectorized rail-split modulator on 1500 chips, with the >= 5x
    speedup gate against the per-chip loop reference."""
    modulator = MskModulator()
    rng = np.random.default_rng(1)
    chips = rng.integers(0, 2, CAPTURE_CHIPS)

    wave = benchmark(modulator.modulate_chips, chips)
    assert wave.size == modulator.samples_for_chips(CAPTURE_CHIPS)

    start = time.perf_counter()
    vec = modulator.modulate_chips(chips)
    vectorized_s = time.perf_counter() - start
    start = time.perf_counter()
    ref = modulator.modulate_chips_reference(chips)
    reference_s = time.perf_counter() - start

    assert np.array_equal(vec.view(np.float64), ref.view(np.float64))
    if benchmark.enabled:
        speedup = reference_s / vectorized_s
        assert speedup >= 5.0, (
            f"vectorized modulator only {speedup:.1f}x faster than "
            f"the loop reference ({vectorized_s:.4f}s vs "
            f"{reference_s:.4f}s)"
        )


def test_bench_waveform_engine_16_captures(benchmark):
    """Full reception (sync + matched filter + decode) of 16
    single-frame captures, one receiver call each."""
    codebook = ZigbeeCodebook()
    engine = WaveformBatchEngine(codebook)
    modulator = MskModulator()
    rng = np.random.default_rng(3)
    n_body = 40
    captures = []
    bodies = []
    for _ in range(16):
        body = rng.integers(0, 16, n_body)
        stream = np.concatenate(
            [
                sync_field_symbols("preamble"),
                body,
                sync_field_symbols("postamble"),
            ]
        )
        wave = modulator.modulate_symbols(stream, codebook)
        captures.append(add_awgn(wave, 0.05, rng))
        bodies.append(body)

    def receive_all():
        return [engine.receive_frames(c, n_body) for c in captures]

    receptions = benchmark(receive_all)
    assert len(receptions) == 16
    assert all(r.acquired for r in receptions)
    assert all(
        np.array_equal(r.symbols, body)
        for r, body in zip(receptions, bodies, strict=True)
    )
