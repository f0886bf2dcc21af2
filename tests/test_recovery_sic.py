"""The SIC recovery pipeline on synthetic collided captures.

Every capture here is constructed sample-by-sample from known symbol
streams, gains, and offsets, so the tests can assert exact recovery:
the strong frame decodes through the interference (capture effect),
the cancellation estimate lands near the true complex gain, and the
weak frame decodes from the residual.  The chunk fallback and the
:class:`SicScheme` trace evaluation are pinned on hand-built hints.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.link.schemes import PprScheme, SicScheme
from repro.phy.channelsim import add_awgn
from repro.phy.modulation import SAMPLES_PER_CHIP, MskModulator
from repro.phy.remodulate import (
    estimate_complex_scale,
    remodulate_frame,
    subtract_frame,
)
from repro.phy.sync import sync_field_symbols
from repro.recovery import SicDecoder, plan_chunk_recovery
from repro.sim.metrics import trace_deliver

N_BODY = 30


def _frame_symbols(rng, n_body=N_BODY):
    return np.concatenate(
        [
            sync_field_symbols("preamble"),
            rng.integers(0, 16, n_body),
            sync_field_symbols("postamble"),
        ]
    )


def _collision(
    codebook,
    rng,
    weak_gain=0.45,
    weak_phase=0.9,
    offset=20 * 32 * SAMPLES_PER_CHIP,
    noise=0.02,
):
    """A two-frame capture: unit-gain strong + scaled, offset weak."""
    modulator = MskModulator()
    strong_syms = _frame_symbols(rng)
    weak_syms = _frame_symbols(rng)
    strong = modulator.modulate_symbols(strong_syms, codebook)
    weak = modulator.modulate_symbols(weak_syms, codebook)
    capture = np.zeros(
        max(strong.size, offset + weak.size), dtype=np.complex128
    )
    capture[: strong.size] += strong
    capture[offset : offset + weak.size] += (
        weak_gain * np.exp(1j * weak_phase) * weak
    )
    capture = add_awgn(capture, noise, rng)
    return capture, strong_syms, weak_syms


class TestComplexScaleEstimate:
    def test_recovers_known_gain_and_phase(self, codebook, rng):
        stream = _frame_symbols(rng, n_body=10)
        unit = remodulate_frame(stream, codebook)
        true = 0.62 * np.exp(1j * 1.1)
        capture = np.zeros(unit.size + 500, dtype=np.complex128)
        capture[37 : 37 + unit.size] = true * unit
        est = estimate_complex_scale(capture, unit, 37)
        assert abs(est - true) < 1e-12

    def test_noise_perturbs_estimate_mildly(self, codebook, rng):
        stream = _frame_symbols(rng, n_body=10)
        unit = remodulate_frame(stream, codebook)
        capture = add_awgn(0.5 * unit, 0.05, rng)
        est = estimate_complex_scale(capture, unit, 0)
        assert abs(est - 0.5) < 0.05

    def test_partial_overlap_uses_clipped_window(self, codebook, rng):
        """A frame hanging off the capture edge is estimated from the
        overlapping samples only."""
        stream = _frame_symbols(rng, n_body=10)
        unit = remodulate_frame(stream, codebook)
        half = unit.size // 2
        capture = 0.8 * unit[:half].copy()
        est = estimate_complex_scale(capture, unit, 0)
        assert abs(est - 0.8) < 1e-12

    def test_no_overlap_is_zero(self, codebook, rng):
        stream = _frame_symbols(rng, n_body=5)
        unit = remodulate_frame(stream, codebook)
        capture = np.zeros(100, dtype=np.complex128)
        assert estimate_complex_scale(capture, unit, 100) == 0j
        assert estimate_complex_scale(capture, unit, -unit.size) == 0j


class TestSubtractFrame:
    def test_exact_cancellation(self, codebook, rng):
        stream = _frame_symbols(rng, n_body=8)
        frame = remodulate_frame(stream, codebook)
        capture = np.zeros(frame.size + 200, dtype=np.complex128)
        capture[60 : 60 + frame.size] = frame
        residual = subtract_frame(capture, frame, 60)
        assert np.allclose(residual, 0.0)

    def test_input_capture_untouched(self, codebook, rng):
        stream = _frame_symbols(rng, n_body=8)
        frame = remodulate_frame(stream, codebook)
        capture = add_awgn(
            np.zeros(frame.size, dtype=np.complex128), 1.0, rng
        )
        before = capture.copy()
        subtract_frame(capture, frame, 0)
        assert np.array_equal(capture, before)

    def test_offsets_past_either_edge_clip(self, codebook, rng):
        stream = _frame_symbols(rng, n_body=8)
        frame = remodulate_frame(stream, codebook)
        capture = np.ones(frame.size, dtype=np.complex128)
        # Hanging off the tail: only the head of the frame lands.
        tail = subtract_frame(capture, frame, capture.size - 10)
        assert np.array_equal(tail[:-10], capture[:-10])
        assert np.array_equal(
            tail[-10:], capture[-10:] - frame[:10]
        )
        # Hanging off the head: only the tail of the frame lands.
        head = subtract_frame(capture, frame, -(frame.size - 10))
        assert np.array_equal(head[10:], capture[10:])
        assert np.array_equal(
            head[:10], capture[:10] - frame[-10:]
        )


class TestSicDecodePair:
    def test_recovers_both_frames_of_an_offset_collision(
        self, codebook, rng
    ):
        capture, strong_syms, weak_syms = _collision(codebook, rng)
        decoder = SicDecoder(codebook)
        result = decoder.decode_pair(capture, N_BODY)
        assert result.cancelled
        assert result.strong is not None
        assert result.weak is not None
        assert result.weak.via_residual
        assert np.array_equal(
            result.strong.reception.symbols,
            strong_syms[10:-10],
        )
        assert np.array_equal(
            result.weak.reception.symbols, weak_syms[10:-10]
        )
        assert all(frame.clean for frame in result.frames)
        # The gain estimates land on the true channel scales.
        assert abs(result.strong.scale - 1.0) < 0.02
        assert abs(abs(result.weak.scale) - 0.45) < 0.03

    def test_recovers_an_aligned_collision(self, codebook, rng):
        """Frame starts one symbol apart — the capture-effect blind
        spot where a plain receiver never sees the weak preamble."""
        capture, strong_syms, weak_syms = _collision(
            codebook, rng, offset=2 * 32 * SAMPLES_PER_CHIP
        )
        decoder = SicDecoder(codebook)
        result = decoder.decode_pair(capture, N_BODY)
        assert result.cancelled
        assert result.weak is not None
        assert np.array_equal(
            result.weak.reception.symbols, weak_syms[10:-10]
        )

    def test_empty_capture_acquires_nothing(self, codebook, rng):
        noise = add_awgn(
            np.zeros(4000, dtype=np.complex128), 0.02, rng
        )
        result = SicDecoder(codebook).decode_pair(
            noise, N_BODY
        )
        assert not result.cancelled
        assert result.frames == []
        assert np.array_equal(result.residual, noise)

    def test_lone_frame_yields_no_phantom_weak(self, codebook, rng):
        """Cancelling the only frame must not re-detect its own
        remnant as a second transmission."""
        modulator = MskModulator()
        stream = _frame_symbols(rng)
        capture = add_awgn(
            modulator.modulate_symbols(stream, codebook), 0.02, rng
        )
        result = SicDecoder(codebook).decode_pair(
            capture, N_BODY
        )
        assert result.cancelled
        assert result.strong is not None
        assert result.weak is None

    def test_residual_energy_drops_where_strong_stood(
        self, codebook, rng
    ):
        capture, _, _ = _collision(codebook, rng)
        decoder = SicDecoder(codebook)
        result = decoder.decode_pair(capture, N_BODY)
        strong_span = slice(0, 5 * 32 * SAMPLES_PER_CHIP)  # weak-free head
        before = float(np.sum(np.abs(capture[strong_span]) ** 2))
        after = float(
            np.sum(np.abs(result.residual[strong_span]) ** 2)
        )
        # What's left is the injected noise (power 0.02/sample); the
        # strong frame itself (unit power) is gone.
        noise_energy = 0.02 * (strong_span.stop - strong_span.start)
        assert after < 2.0 * noise_energy
        assert after < 0.15 * before


class TestChunkFallback:
    def test_clean_hints_need_no_plan(self):
        recovery = plan_chunk_recovery(np.zeros(40), eta=6.0)
        assert recovery.clean
        assert recovery.n_bad_symbols == 0
        assert not recovery.cost_bits > 0

    def test_bad_run_yields_a_costed_plan(self):
        hints = np.zeros(60)
        hints[20:30] = 9.0
        recovery = plan_chunk_recovery(hints, eta=6.0)
        assert not recovery.clean
        assert recovery.n_bad_symbols == 10
        assert recovery.cost_bits > 0
        assert recovery.plan is not None

    def test_threshold_rule_is_inclusive(self):
        hints = np.full(10, 6.0)
        assert plan_chunk_recovery(hints, eta=6.0).clean

    def test_rejects_negative_eta(self):
        with pytest.raises(ValueError):
            plan_chunk_recovery(np.zeros(4), eta=-0.5)

    def test_noisy_weak_frame_falls_back_to_chunks(
        self, codebook, rng
    ):
        """Heavy noise leaves the residual decode with bad symbols;
        the SicFrame then carries a chunk plan instead of claiming a
        clean recovery."""
        capture, _, _ = _collision(codebook, rng, noise=0.2)
        decoder = SicDecoder(codebook, threshold=0.4)
        result = decoder.decode_pair(capture, N_BODY)
        assert result.weak is not None
        assert not result.weak.clean
        assert result.weak.fallback.n_bad_symbols > 0
        assert result.weak.fallback.cost_bits > 0
        assert result.weak.fallback.plan is not None
        # The strong frame sailed through untouched.
        assert result.strong is not None and result.strong.clean


class TestSicScheme:
    def test_wire_format_matches_ppr(self):
        sic = SicScheme()
        ppr = PprScheme()
        payload = bytes(range(24))
        assert sic.encode_payload(payload) == ppr.encode_payload(
            payload
        )
        assert sic.name == "sic"
        assert "eta=" in repr(sic)

    def test_trace_deliver_dispatches_like_ppr(self, rng):
        correct = rng.random(48) < 0.9
        hints = rng.random(48) * 12.0
        sic = trace_deliver(SicScheme(), correct, hints)
        ppr = trace_deliver(PprScheme(), correct, hints)
        assert sic.scheme == "sic"
        assert sic.delivered_correct_bits == ppr.delivered_correct_bits
        assert (
            sic.delivered_incorrect_bits == ppr.delivered_incorrect_bits
        )
        assert sic.frame_passed == ppr.frame_passed
