"""Tests for the waveform receiver front end."""

import numpy as np
import pytest

from repro.phy.channelsim import (
    TransmissionInstance,
    add_awgn,
    awgn_collision_channel,
)
from repro.phy.frontend import ReceiverFrontend
from repro.phy.modulation import MskModulator
from repro.phy.sync import sync_field_symbols


@pytest.fixture()
def frontend(codebook):
    return ReceiverFrontend(codebook)


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
    def test_detects_both_sync_fields(self, frontend, codebook, rng):
        body, wave = _make_frame(codebook, rng)
        noisy = add_awgn(wave, 0.05, rng)
        pre = frontend.detect(noisy, "preamble")
        post = frontend.detect(noisy, "postamble")
        assert len(pre) == 1 and pre[0].sample_offset == 0
        expected_post = (10 + body.size) * 32 * 4
        assert len(post) == 1 and post[0].sample_offset == expected_post

    def test_detection_score_reasonable(self, frontend, codebook, rng):
        _, wave = _make_frame(codebook, rng)
        det = frontend.detect(wave, "preamble")[0]
        assert det.score > 0.95  # noiseless

    def test_no_detection_in_pure_noise(self, frontend, rng):
        noise = add_awgn(np.zeros(8000, dtype=complex), 1.0, rng)
        assert frontend.detect(noise, "preamble") == []

    def test_phase_estimated(self, frontend, codebook, rng):
        _, wave = _make_frame(codebook, rng)
        rotated = wave * np.exp(1j * 0.7)
        det = frontend.detect(rotated, "preamble")[0]
        assert det.phase == pytest.approx(0.7, abs=0.1)


class TestDecoding:
    def test_forward_decode_from_preamble(self, frontend, codebook, rng):
        body, wave = _make_frame(codebook, rng)
        noisy = add_awgn(wave, 0.1, rng)
        det = frontend.detect(noisy, "preamble")[0]
        symbols, hints = frontend.decode_symbols_at(
            noisy, det.sample_offset, 10, body.size, det.phase
        )
        assert np.array_equal(symbols, body)
        assert hints.mean() < 1.0

    def test_rollback_decode_from_postamble(self, frontend, codebook, rng):
        body, wave = _make_frame(codebook, rng)
        noisy = add_awgn(wave, 0.1, rng)
        det = frontend.detect(noisy, "postamble")[0]
        symbols, _ = frontend.decode_symbols_at(
            noisy, det.sample_offset, -body.size, body.size, det.phase
        )
        assert np.array_equal(symbols, body)

    def test_decode_with_phase_offset(self, frontend, codebook, rng):
        body, wave = _make_frame(codebook, rng)
        rotated = wave * np.exp(1j * 1.1)
        det = frontend.detect(rotated, "preamble")[0]
        symbols, _ = frontend.decode_symbols_at(
            rotated, det.sample_offset, 10, body.size, det.phase
        )
        assert np.array_equal(symbols, body)

    def test_collision_recovery_both_packets(self, frontend, codebook, rng):
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
        pre = frontend.detect(capture, "preamble")
        assert pre and pre[0].sample_offset == 0
        sym1, hints1 = frontend.decode_symbols_at(
            capture, pre[0].sample_offset, 10, 60, pre[0].phase
        )
        clean_region = 60 - overlap_symbols
        assert np.array_equal(sym1[:clean_region], body1[:clean_region])
        assert hints1[:clean_region].mean() < hints1[clean_region:].mean()

        post = frontend.detect(capture, "postamble")
        last = max(post, key=lambda d: d.sample_offset)
        sym2, _ = frontend.decode_symbols_at(
            capture, last.sample_offset, -60, 60, last.phase
        )
        # Packet 2's tail (clear of the collision) decodes perfectly.
        assert np.array_equal(sym2[overlap_symbols:], body2[overlap_symbols:])

    def test_odd_chip_offset_rejected(self, frontend):
        with pytest.raises(ValueError, match="even"):
            frontend.soft_chips_at(
                np.zeros(1000, dtype=complex), 0, 3, 10
            )

    def test_before_capture_rejected(self, frontend):
        with pytest.raises(ValueError, match="before the capture"):
            frontend.soft_chips_at(
                np.zeros(1000, dtype=complex), 0, -2, 2
            )

    def test_invalid_threshold(self, codebook):
        with pytest.raises(ValueError):
            ReceiverFrontend(codebook, threshold=1.5)


class TestBatchApi:
    def test_detect_batch_ragged_matches_single(
        self, frontend, codebook, rng
    ):
        captures = []
        for n_body in (20, 45, 20):
            _, wave = _make_frame(codebook, rng, n_body=n_body)
            captures.append(add_awgn(wave, 0.08, rng))
        captures.append(add_awgn(np.zeros(5000, dtype=complex), 1.0, rng))
        for kind in ("preamble", "postamble"):
            batch = frontend.detect_batch(captures, kind)
            assert len(batch) == len(captures)
            for capture, detections in zip(captures, batch, strict=True):
                assert detections == frontend.detect(capture, kind)

    def test_detect_batch_empty_list(self, frontend):
        assert frontend.detect_batch([], "preamble") == []

    def test_correlation_batch_single_row(self, frontend, codebook, rng):
        _, wave = _make_frame(codebook, rng)
        noisy = add_awgn(wave, 0.1, rng)
        rows = frontend.correlation_batch(noisy[None, :], "preamble")
        assert np.array_equal(
            rows[0], frontend.correlation(noisy, "preamble")
        )

    def test_correlation_batch_rejects_1d(self, frontend):
        with pytest.raises(ValueError, match="2-D"):
            frontend.correlation_batch(
                np.zeros(4000, dtype=complex), "preamble"
            )

    def test_extract_batch_matches_soft_chips_at(
        self, frontend, codebook, rng
    ):
        from repro.phy.frontend import ChipExtractRequest

        _, wave1 = _make_frame(codebook, rng, n_body=30)
        _, wave2 = _make_frame(codebook, rng, n_body=50)
        captures = [add_awgn(wave1, 0.1, rng), add_awgn(wave2, 0.1, rng)]
        requests = [
            ChipExtractRequest(0, 320, 0, 96, 0.4),
            ChipExtractRequest(1, 7680, -640, 640, 0.0),
            ChipExtractRequest(0, 0, 320, 32, -0.9),
        ]
        batch = frontend.extract_batch(captures, requests)
        for request, soft in zip(requests, batch, strict=True):
            single = frontend.soft_chips_at(
                captures[request.capture],
                request.anchor_sample,
                request.chip_offset,
                request.n_chips,
                request.phase,
            )
            assert np.array_equal(soft, single)

    def test_extract_batch_validates_requests(self, frontend):
        from repro.phy.frontend import ChipExtractRequest

        captures = [np.zeros(1000, dtype=complex)]
        with pytest.raises(ValueError, match="even"):
            frontend.extract_batch(
                captures, [ChipExtractRequest(0, 0, 3, 10)]
            )
        with pytest.raises(ValueError, match="before the capture"):
            frontend.extract_batch(
                captures, [ChipExtractRequest(0, 0, -2, 2)]
            )
