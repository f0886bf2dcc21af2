"""Benchmarks for the collision-recovery hot paths.

The SIC pipeline leans on two kernels hard enough to gate: frame
re-synthesis (one :func:`remodulate_frame` per cancellation) and the
sample-domain sync correlation (re-run on every residual).  Both must
beat their retained loop references by at least 5x, mirroring the
waveform-pipeline gates in ``test_bench_waveform.py``.  The end-to-end
``SicDecoder.decode_pair`` is benchmarked without a gate — it is a
composition, not a kernel.
"""

import time

import numpy as np

from repro.phy.batch import WaveformBatchEngine
from repro.phy.channelsim import add_awgn
from repro.phy.codebook import ZigbeeCodebook
from repro.phy.modulation import SAMPLES_PER_CHIP, MskModulator
from repro.phy.remodulate import (
    remodulate_frame,
    remodulate_frame_reference,
)
from repro.phy.sync import sync_field_symbols
from repro.recovery.sic import SicDecoder

N_BODY = 60


def _frame_symbols(rng, n_body=N_BODY):
    return np.concatenate(
        [
            sync_field_symbols("preamble"),
            rng.integers(0, 16, n_body),
            sync_field_symbols("postamble"),
        ]
    )


def test_bench_remodulate_frame_80_symbols(benchmark):
    """Frame re-synthesis (spread + MSK + complex gain), with the
    >= 5x gate against the per-chip loop reference."""
    codebook = ZigbeeCodebook()
    rng = np.random.default_rng(0)
    stream = _frame_symbols(rng)

    wave = benchmark(
        remodulate_frame, stream, codebook, 0.7, 0.3
    )
    assert wave.size == (stream.size * 32 + 1) * SAMPLES_PER_CHIP

    start = time.perf_counter()
    vec = remodulate_frame(stream, codebook, 0.7, 0.3)
    vectorized_s = time.perf_counter() - start
    start = time.perf_counter()
    ref = remodulate_frame_reference(stream, codebook, 0.7, 0.3)
    reference_s = time.perf_counter() - start

    assert np.array_equal(vec.view(np.float64), ref.view(np.float64))
    if benchmark.enabled:
        speedup = reference_s / vectorized_s
        assert speedup >= 5.0, (
            f"vectorized re-synthesis only {speedup:.1f}x faster than "
            f"the loop reference ({vectorized_s:.4f}s vs "
            f"{reference_s:.4f}s)"
        )


def test_bench_sample_correlation_one_frame(benchmark):
    """Sample-domain sync correlation over one frame-sized capture
    (the SIC residual re-scan), with the >= 5x gate against the
    per-offset loop reference.  The FFT path reassociates the sums,
    so the spot check pins at 1e-12 (see repro.phy.fftcorr)."""
    codebook = ZigbeeCodebook()
    engine = WaveformBatchEngine(codebook)
    modulator = MskModulator()
    rng = np.random.default_rng(1)
    capture = add_awgn(
        modulator.modulate_symbols(_frame_symbols(rng), codebook),
        0.1,
        rng,
    )

    corr = benchmark(engine.correlation, capture, "preamble")
    np.testing.assert_allclose(
        corr,
        engine.correlation_reference(capture, "preamble"),
        rtol=1e-12,
        atol=1e-12,
    )

    start = time.perf_counter()
    engine.correlation(capture, "preamble")
    vectorized_s = time.perf_counter() - start
    start = time.perf_counter()
    engine.correlation_reference(capture, "preamble")
    reference_s = time.perf_counter() - start
    if benchmark.enabled:
        speedup = reference_s / vectorized_s
        assert speedup >= 5.0, (
            f"FFT sample correlation only {speedup:.1f}x faster than "
            f"the loop reference ({vectorized_s:.4f}s vs "
            f"{reference_s:.4f}s)"
        )


def test_bench_sic_decode_pair(benchmark):
    """End-to-end SIC over a two-frame collision: strong decode,
    re-synthesis, cancellation, residual decode."""
    codebook = ZigbeeCodebook()
    modulator = MskModulator()
    rng = np.random.default_rng(2)
    strong = modulator.modulate_symbols(_frame_symbols(rng), codebook)
    weak = modulator.modulate_symbols(_frame_symbols(rng), codebook)
    offset = 40 * 32 * SAMPLES_PER_CHIP
    capture = np.zeros(offset + weak.size, dtype=np.complex128)
    capture[: strong.size] += strong
    capture[offset : offset + weak.size] += 0.4 * weak
    capture = add_awgn(capture, 0.01, rng)
    decoder = SicDecoder(codebook)

    result = benchmark(decoder.decode_pair, capture, N_BODY)
    assert result.cancelled
    assert result.strong is not None
    assert result.weak is not None
