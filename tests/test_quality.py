"""Tests for per-link delivery bookkeeping."""

import pytest

from repro.link.quality import LinkObservation, LinkStats
from repro.link.schemes import DeliveryResult


def _result(correct=400, incorrect=0, payload=800, passed=False):
    return DeliveryResult(
        scheme="test",
        payload_bits=payload,
        delivered_correct_bits=correct,
        delivered_incorrect_bits=incorrect,
        overhead_bits=32,
        frame_passed=passed,
    )


class TestLinkObservation:
    def test_delivery_rate_per_sent_bit(self):
        obs = LinkObservation()
        obs.record_sent(800)
        obs.record_sent(800)
        obs.record_acquired(_result(correct=400))
        # Only one of two frames acquired, half its bits delivered.
        assert obs.equivalent_frame_delivery_rate == pytest.approx(0.25)

    def test_conditional_rate_per_acquired_bit(self):
        obs = LinkObservation()
        obs.record_sent(800)
        obs.record_sent(800)
        obs.record_acquired(_result(correct=400))
        # the per-acquired-bit efficiency reads these two counters
        assert obs.payload_bits_acquired == 800
        assert obs.delivered_correct_bits == 400

    def test_acquisition_rate(self):
        obs = LinkObservation()
        for _ in range(4):
            obs.record_sent(100)
        obs.record_acquired(_result(payload=100, correct=100))
        assert (obs.frames_acquired, obs.frames_sent) == (1, 4)

    def test_frames_passed_counted(self):
        obs = LinkObservation()
        obs.record_sent(800)
        obs.record_acquired(_result(passed=True))
        assert obs.frames_passed == 1

    def test_zero_division_guards(self):
        obs = LinkObservation()
        assert obs.equivalent_frame_delivery_rate == 0.0


class TestLinkStats:
    def test_links_sorted(self):
        stats = LinkStats()
        stats[(5, 1)].record_sent(8)
        stats[(2, 1)].record_sent(8)
        assert stats.links() == [(2, 1), (5, 1)]

    def test_active_links_by_sent(self):
        stats = LinkStats()
        stats[(0, 1)].record_sent(8)
        stats[(2, 3)]  # touched but nothing sent
        assert stats.active_links() == [(0, 1)]

    def test_delivery_rates_cover_zero_links(self):
        stats = LinkStats()
        stats[(0, 1)].record_sent(800)  # never acquired
        stats[(2, 3)].record_sent(800)
        stats[(2, 3)].record_acquired(_result(correct=800, payload=800))
        rates = stats.delivery_rates()
        assert sorted(rates) == [0.0, 1.0]

    def test_contains_and_len(self):
        stats = LinkStats()
        stats[(1, 2)].record_sent(8)
        assert (1, 2) in stats
        assert len(stats) == 1
