"""Benchmarks for the GF(2) coding kernels (network-coded recovery).

The acceptance bar mirrors ``test_bench_waveform.py``: each
vectorized kernel must beat its retained loop reference by at least 5x
on a realistic problem size while agreeing bit-for-bit (the
equivalence suite proves the latter; spot checks here keep the bench
honest).  Sizes match the segmented
RLNC use: tens of segments of a 1500-byte payload.
"""

import time

import numpy as np

from repro.coding.gf2 import (
    gf2_eliminate,
    gf2_eliminate_reference,
    gf2_encode,
    gf2_encode_reference,
    pack_bytes_to_words,
)
from repro.coding.rlnc import SegmentedRlncCodec

K_SEGMENTS = 60
N_CODED = 90
SEGMENT_BYTES = 64  # ~a 60-way split of a 1500+ byte payload, padded


def _gf2_problem(seed):
    rng = np.random.default_rng(seed)
    rows = pack_bytes_to_words(
        rng.integers(0, 256, (K_SEGMENTS, SEGMENT_BYTES)).astype(
            np.uint8
        )
    )
    coeffs = rng.integers(0, 2, (N_CODED, K_SEGMENTS)).astype(np.uint8)
    return coeffs, rows


def _speedup_gate(benchmark, fast, slow, label):
    start = time.perf_counter()
    fast_result = fast()
    fast_s = time.perf_counter() - start
    start = time.perf_counter()
    slow_result = slow()
    slow_s = time.perf_counter() - start
    if isinstance(fast_result, tuple):
        for a, b in zip(fast_result, slow_result, strict=True):
            assert np.array_equal(a, b)
    else:
        assert np.array_equal(fast_result, slow_result)
    if benchmark.enabled:
        # Wall-clock gates only when actually benchmarking; under
        # --benchmark-disable (CI) a contended runner would flake.
        speedup = slow_s / fast_s
        assert speedup >= 5.0, (
            f"vectorized {label} only {speedup:.1f}x faster than the "
            f"loop reference ({fast_s:.4f}s vs {slow_s:.4f}s)"
        )


def test_bench_gf2_encode(benchmark):
    """90 coded combinations of 60 packed segments, with the >= 5x
    gate against the per-row XOR loop reference."""
    coeffs, rows = _gf2_problem(seed=0)
    coded = benchmark(gf2_encode, coeffs, rows)
    assert coded.shape == (N_CODED, rows.shape[1])
    _speedup_gate(
        benchmark,
        lambda: gf2_encode(coeffs, rows),
        lambda: gf2_encode_reference(coeffs, rows),
        "gf2_encode",
    )


def test_bench_gf2_eliminate(benchmark):
    """Batched GF(2) Gaussian elimination of a 90x60 coded system,
    with the >= 5x gate against the bit-list loop reference."""
    coeffs, rows = _gf2_problem(seed=1)
    payload = gf2_encode(coeffs, rows)
    recovered, _ = benchmark(gf2_eliminate, coeffs, payload)
    assert recovered.all()
    _speedup_gate(
        benchmark,
        lambda: gf2_eliminate(coeffs, payload),
        lambda: gf2_eliminate_reference(coeffs, payload),
        "gf2_eliminate",
    )


def test_bench_rlnc_codec_roundtrip(benchmark):
    """Encode + corrupt + decode of a 1500-byte payload at k=30,
    r=15 — the full coded-recovery path one reception costs."""
    codec = SegmentedRlncCodec(30, 15)
    rng = np.random.default_rng(5)
    payload = bytes(rng.integers(0, 256, 1500, dtype=np.uint8))
    wire = codec.encode(payload)
    corrupt = bytearray(wire)
    for idx in (2, 9, 17, 25):
        offset, _ = codec.data_spans(1500)[idx]
        corrupt[offset] ^= 0xFF
    corrupt = bytes(corrupt)

    result = benchmark(codec.decode, corrupt)
    assert result.delivered.all()
    assert result.payload() == payload
