"""Tests for the waveform receiver's detection and decoding steps."""

import numpy as np
import pytest

from repro.phy.batch import SyncDetection, WaveformBatchEngine
from repro.phy.channelsim import (
    TransmissionInstance,
    add_awgn,
    awgn_collision_channel,
)
from repro.phy.modulation import MskModulator
from repro.phy.sync import sync_field_symbols


@pytest.fixture()
def engine(codebook):
    return WaveformBatchEngine(codebook)


def _make_frame(codebook, rng, n_body=40):
    body = rng.integers(0, 16, n_body)
    stream = np.concatenate(
        [
            sync_field_symbols("preamble"),
            body,
            sync_field_symbols("postamble"),
        ]
    )
    wave = MskModulator().modulate_symbols(stream, codebook)
    return body, wave


class TestDetection:
    def test_detects_both_sync_fields(self, engine, codebook, rng):
        body, wave = _make_frame(codebook, rng)
        noisy = add_awgn(wave, 0.05, rng)
        pre = engine.detect(noisy, "preamble")
        post = engine.detect(noisy, "postamble")
        assert len(pre) == 1 and pre[0].sample_offset == 0
        expected_post = (10 + body.size) * 32 * 4
        assert len(post) == 1 and post[0].sample_offset == expected_post

    def test_detection_score_reasonable(self, engine, codebook, rng):
        _, wave = _make_frame(codebook, rng)
        det = engine.detect(wave, "preamble")[0]
        assert det.score > 0.95  # noiseless

    def test_no_detection_in_pure_noise(self, engine, rng):
        noise = add_awgn(np.zeros(8000, dtype=complex), 1.0, rng)
        assert engine.detect(noise, "preamble") == []

    def test_phase_estimated(self, engine, codebook, rng):
        _, wave = _make_frame(codebook, rng)
        rotated = wave * np.exp(1j * 0.7)
        det = engine.detect(rotated, "preamble")[0]
        assert det.phase == pytest.approx(0.7, abs=0.1)


class TestDecoding:
    def test_forward_decode_from_preamble(self, engine, codebook, rng):
        body, wave = _make_frame(codebook, rng)
        noisy = add_awgn(wave, 0.1, rng)
        det = engine.detect(noisy, "preamble")[0]
        [(symbols, hints)] = engine.decode(noisy, [det], body.size)
        assert np.array_equal(symbols, body)
        assert hints.mean() < 1.0

    def test_rollback_decode_from_postamble(self, engine, codebook, rng):
        body, wave = _make_frame(codebook, rng)
        noisy = add_awgn(wave, 0.1, rng)
        det = engine.detect(noisy, "postamble")[0]
        [(symbols, _)] = engine.decode(noisy, [det], body.size)
        assert np.array_equal(symbols, body)

    def test_decode_with_phase_offset(self, engine, codebook, rng):
        body, wave = _make_frame(codebook, rng)
        rotated = wave * np.exp(1j * 1.1)
        det = engine.detect(rotated, "preamble")[0]
        [(symbols, _)] = engine.decode(rotated, [det], body.size)
        assert np.array_equal(symbols, body)

    def test_collision_recovery_both_packets(self, engine, codebook, rng):
        """The Fig. 5 scenario: overlapping packets, each recovered
        through the sync field that survived."""
        body1, wave1 = _make_frame(codebook, rng, n_body=60)
        body2, wave2 = _make_frame(codebook, rng, n_body=60)
        overlap_symbols = 25
        offset = (70 - overlap_symbols) * 32 * 4
        capture = awgn_collision_channel(
            [
                TransmissionInstance(samples=wave1, offset=0),
                TransmissionInstance(samples=wave2, offset=offset),
            ],
            noise_power=0.02,
            rng=rng,
        )
        pre = engine.detect(capture, "preamble")
        assert pre and pre[0].sample_offset == 0
        post = engine.detect(capture, "postamble")
        last = max(post, key=lambda d: d.sample_offset)
        (sym1, hints1), (sym2, _) = engine.decode(capture, [pre[0], last], 60)
        clean_region = 60 - overlap_symbols
        assert np.array_equal(sym1[:clean_region], body1[:clean_region])
        assert hints1[:clean_region].mean() < hints1[clean_region:].mean()
        # Packet 2's tail (clear of the collision) decodes perfectly.
        assert np.array_equal(sym2[overlap_symbols:], body2[overlap_symbols:])

    def test_before_capture_rejected(self, engine):
        """A postamble too early for its body to fit rolls back past
        the capture start; the decode refuses rather than wrap."""
        early = SyncDetection(
            kind="postamble", sample_offset=0, phase=0.0, score=1.0
        )
        with pytest.raises(ValueError, match="non-negative"):
            engine.decode(np.zeros(1000, dtype=complex), [early], 2)

    def test_invalid_threshold(self, codebook):
        with pytest.raises(ValueError):
            WaveformBatchEngine(codebook, threshold=1.5)
