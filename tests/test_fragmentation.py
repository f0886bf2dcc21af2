"""Tests for fragmentation helpers, the post-facto optimal size and the
adaptive fragment sizer."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.link.fragmentation import (
    AdaptiveFragmentSizer,
    delivered_bits_for_fragmentation,
    fragment_payload,
    optimal_fragment_size,
    reassemble_fragments,
)


class TestFragmentPayload:
    def test_even_split(self):
        frags = fragment_payload(b"abcdef", 3)
        assert frags == [b"ab", b"cd", b"ef"]

    def test_remainder_goes_to_leading_fragments(self):
        frags = fragment_payload(b"abcdefg", 3)
        assert frags == [b"abc", b"de", b"fg"]

    def test_more_fragments_than_bytes(self):
        frags = fragment_payload(b"ab", 5)
        assert frags == [b"a", b"b"]

    def test_empty_payload(self):
        assert fragment_payload(b"", 4) == [b""]

    def test_invalid_count(self):
        with pytest.raises(ValueError):
            fragment_payload(b"abc", 0)

    @given(st.binary(max_size=300), st.integers(1, 40))
    def test_concatenation_reconstructs(self, payload, n):
        assert b"".join(fragment_payload(payload, n)) == payload


class TestReassemble:
    def test_all_present(self):
        data, missing = reassemble_fragments([b"ab", b"cd"])
        assert data == b"abcd" and missing == []

    def test_missing_marked(self):
        data, missing = reassemble_fragments([b"ab", None, b"ef"])
        assert data == b"abef"
        assert missing == [1]


class TestDeliveredBits:
    def test_clean_trace_delivers_all(self):
        mask = np.zeros(100, dtype=bool)
        delivered, overhead = delivered_bits_for_fragmentation(mask, 10)
        assert delivered == 400
        assert overhead == 320

    def test_one_error_loses_one_fragment(self):
        mask = np.zeros(100, dtype=bool)
        mask[5] = True
        delivered, _ = delivered_bits_for_fragmentation(mask, 10)
        assert delivered == 4 * 90

    def test_all_errors_deliver_nothing(self):
        mask = np.ones(50, dtype=bool)
        delivered, _ = delivered_bits_for_fragmentation(mask, 5)
        assert delivered == 0

    def test_single_fragment_all_or_nothing(self):
        mask = np.zeros(80, dtype=bool)
        assert delivered_bits_for_fragmentation(mask, 1)[0] == 320
        mask[0] = True
        assert delivered_bits_for_fragmentation(mask, 1)[0] == 0

    def test_invalid_count(self):
        with pytest.raises(ValueError):
            delivered_bits_for_fragmentation(np.zeros(4, dtype=bool), 0)


class TestOptimalFragmentSize:
    def test_clean_traces_prefer_one_fragment(self):
        masks = [np.zeros(600, dtype=bool) for _ in range(10)]
        best, scores = optimal_fragment_size(masks)
        assert best == 1
        assert scores[1] >= scores[300]

    def test_bursty_traces_prefer_intermediate(self, rng):
        masks = []
        for _ in range(30):
            mask = np.zeros(600, dtype=bool)
            start = rng.integers(0, 500)
            mask[start : start + 60] = True
            masks.append(mask)
        best, scores = optimal_fragment_size(
            masks, candidates=[1, 10, 100, 300]
        )
        assert best in (10, 100)
        assert scores[best] > scores[1]
        assert scores[best] > scores[300]

    def test_custom_candidates_respected(self):
        masks = [np.zeros(100, dtype=bool)]
        best, scores = optimal_fragment_size(masks, candidates=[2, 4])
        assert set(scores) == {2, 4}
        assert best in (2, 4)

    def test_empty_corpus_rejected(self):
        with pytest.raises(ValueError):
            optimal_fragment_size([])


class TestAdaptiveFragmentSizer:
    def test_clean_packets_shrink_fragment_count(self):
        sizer = AdaptiveFragmentSizer(initial_fragments=30)
        for _ in range(10):
            sizer.observe_packet([True] * sizer.n_fragments)
        assert sizer.n_fragments == 1

    def test_failures_grow_fragment_count(self):
        sizer = AdaptiveFragmentSizer(initial_fragments=10)
        outcomes = [False] * 3 + [True] * 7
        sizer.observe_packet(outcomes)
        assert sizer.n_fragments == 20

    def test_rare_failures_hold_steady(self):
        sizer = AdaptiveFragmentSizer(
            initial_fragments=30, failure_threshold=0.2
        )
        outcomes = [False] + [True] * 29  # 3.3% failure rate
        assert sizer.observe_packet(outcomes) == 30

    def test_bounds_respected(self):
        sizer = AdaptiveFragmentSizer(
            initial_fragments=4, min_fragments=2, max_fragments=8
        )
        for _ in range(5):
            sizer.observe_packet([False, True])
        assert sizer.n_fragments == 8
        for _ in range(10):
            sizer.observe_packet([True] * sizer.n_fragments)
        assert sizer.n_fragments == 2

    def test_oscillation_converges_to_regime(self):
        """Alternating channel regimes keep the controller inside its
        bounds and responsive in both directions."""
        sizer = AdaptiveFragmentSizer(initial_fragments=30)
        history = []
        for round_idx in range(40):
            bursty = round_idx % 2 == 0
            n = sizer.n_fragments
            outcomes = (
                [False] * max(1, n // 3) + [True] * (n - max(1, n // 3))
                if bursty
                else [True] * n
            )
            history.append(sizer.observe_packet(outcomes))
        assert 1 <= min(history) and max(history) <= 300

    def test_validation(self):
        with pytest.raises(ValueError):
            AdaptiveFragmentSizer(initial_fragments=0)
        with pytest.raises(ValueError):
            AdaptiveFragmentSizer(grow_factor=1.0)
        with pytest.raises(ValueError):
            AdaptiveFragmentSizer(failure_threshold=0)
        sizer = AdaptiveFragmentSizer()
        with pytest.raises(ValueError):
            sizer.observe_packet([])
