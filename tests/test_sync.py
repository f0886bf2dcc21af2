"""Tests for sync fields, sync peak detection and the rollback buffer."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.phy.channelsim import add_awgn
from repro.phy.frontend import ReceiverFrontend
from repro.phy.modulation import SAMPLES_PER_CHIP, MskModulator
from repro.phy.sync import (
    EFD_SYMBOLS,
    POSTAMBLE_SYMBOLS,
    PREAMBLE_SYMBOLS,
    SFD_SYMBOLS,
    RollbackBuffer,
    peak_offsets,
    sync_field_symbols,
)
from repro.utils.rng import ensure_rng


class TestSyncFields:
    def test_preamble_matches_802154(self):
        assert PREAMBLE_SYMBOLS == tuple([0] * 8)
        assert SFD_SYMBOLS == (7, 10)  # 0xA7 low nibble first

    def test_postamble_distinct_from_preamble(self):
        pre = sync_field_symbols("preamble")
        post = sync_field_symbols("postamble")
        assert not np.array_equal(pre, post)
        assert POSTAMBLE_SYMBOLS != PREAMBLE_SYMBOLS
        assert EFD_SYMBOLS != SFD_SYMBOLS

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="preamble.*postamble"):
            sync_field_symbols("midamble")


class TestPeakOffsets:
    """Non-maximum suppression over sync correlation traces: the
    frontend's sample-domain correlation, and synthetic traces."""

    THRESHOLD = 0.70  # ReceiverFrontend's default

    def _capture(self, codebook, pieces, rng, noise=0.0):
        wave = MskModulator().modulate_symbols(
            np.concatenate(pieces), codebook
        )
        return add_awgn(wave, noise, rng)

    def test_multiple_detections(self, codebook, rng):
        frontend = ReceiverFrontend(codebook)
        field = sync_field_symbols("preamble")
        gap = rng.integers(0, 16, 40)
        capture = self._capture(codebook, [field, gap, field], rng)
        corr = frontend.correlation(capture, "preamble")
        pattern = field.size * 32 * SAMPLES_PER_CHIP
        second = (field.size + gap.size) * 32 * SAMPLES_PER_CHIP
        assert peak_offsets(corr, self.THRESHOLD, pattern) == [0, second]

    def test_matches_reference_walk(self, codebook, rng):
        """The np.split non-maximum suppression must group and peak
        exactly like the original per-index walk."""
        frontend = ReceiverFrontend(codebook)
        field = sync_field_symbols("preamble")
        pattern = field.size * 32 * SAMPLES_PER_CHIP
        for _trial in range(5):
            pieces = [field]
            for _ in range(int(rng.integers(1, 4))):
                pieces.append(rng.integers(0, 16, 30))
                pieces.append(field)
            capture = self._capture(codebook, pieces, rng, noise=0.05)
            corr = frontend.correlation(capture, "preamble")
            expected = _reference_nms(corr, self.THRESHOLD, pattern)
            assert len(expected) == len(pieces) // 2 + 1
            assert peak_offsets(corr, self.THRESHOLD, pattern) == expected

    def test_synthetic_groups_split_past_min_gap(self):
        corr = np.zeros(40)
        corr[[2, 3, 4]] = [0.8, 0.95, 0.9]  # one group, peak at 3
        corr[[7, 9]] = [0.9, 0.99]  # gaps of 3 and 2: same group
        corr[[20, 21]] = [0.99, 0.8]  # gap of 11: a new group
        assert peak_offsets(corr, 0.75, min_gap=3) == [9, 20]
        assert peak_offsets(corr, 0.75, min_gap=2) == [3, 9, 20]
        assert peak_offsets(corr, 0.75, min_gap=2) == _reference_nms(
            corr, 0.75, 2
        )

    def test_nothing_above_threshold(self):
        assert peak_offsets(np.full(10, 0.5), 0.75, min_gap=3) == []
        assert peak_offsets(np.zeros(0), 0.75, min_gap=3) == []


def _reference_nms(corr, threshold, min_gap):
    """The original per-index NMS walk, kept as the test's spec."""
    above = np.flatnonzero(corr >= threshold)
    if above.size == 0:
        return []
    detections = []
    group_start = above[0]
    prev = above[0]
    for idx in above[1:]:
        if idx - prev > min_gap:
            segment = corr[group_start : prev + 1]
            detections.append(int(group_start + segment.argmax()))
            group_start = idx
        prev = idx
    segment = corr[group_start : prev + 1]
    detections.append(int(group_start + segment.argmax()))
    return detections


class TestRollbackBuffer:
    def test_basic_append_and_get(self):
        buf = RollbackBuffer(capacity=10)
        buf.append(np.arange(5, dtype=complex))
        assert buf.get_range(2, 3) == pytest.approx([2, 3, 4])

    def test_wraparound(self):
        buf = RollbackBuffer(capacity=8)
        buf.append(np.arange(6, dtype=complex))
        buf.append(np.arange(6, 12, dtype=complex))
        assert buf.get_range(4, 8) == pytest.approx(np.arange(4, 12))

    def test_absolute_indexing(self):
        buf = RollbackBuffer(capacity=16)
        buf.append(np.arange(10, dtype=complex))
        assert buf.get_range(3, 4) == pytest.approx([3, 4, 5, 6])

    def test_evicted_range_rejected(self):
        buf = RollbackBuffer(capacity=4)
        buf.append(np.arange(10, dtype=complex))
        with pytest.raises(ValueError, match="evicted"):
            buf.get_range(0, 2)

    def test_future_range_rejected(self):
        buf = RollbackBuffer(capacity=4)
        buf.append(np.arange(2, dtype=complex))
        with pytest.raises(ValueError, match="not yet written"):
            buf.get_range(0, 5)

    def test_oversized_append_keeps_tail(self):
        buf = RollbackBuffer(capacity=4)
        buf.append(np.arange(10, dtype=complex))
        assert buf.get_range(6, 4) == pytest.approx([6, 7, 8, 9])
        assert buf.oldest_available == 6

    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            RollbackBuffer(capacity=0)

    def test_get_range_spanning_wrap_point(self):
        """A range crossing the circular wrap point is served as two
        contiguous slices; values must match the ground-truth stream."""
        buf = RollbackBuffer(capacity=8)
        buf.append(np.arange(13, dtype=complex))
        # Samples 5..12 live in the buffer; 6..11 wraps (pos 6, 7, 0..3).
        assert buf.get_range(6, 6) == pytest.approx(np.arange(6, 12))
        assert buf.get_range(5, 8) == pytest.approx(np.arange(5, 13))
        assert buf.get_range(8, 2) == pytest.approx([8, 9])
        assert buf.get_range(7, 0).size == 0

    @given(
        st.lists(
            st.integers(min_value=1, max_value=20),
            min_size=1,
            max_size=15,
        ),
        st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=30, deadline=None)
    def test_get_range_matches_reference_stream(self, chunk_sizes, seed):
        """Every retrievable (start, count) window equals the same
        window of the ground-truth concatenated stream."""
        capacity = 16
        buf = RollbackBuffer(capacity=capacity)
        stream = np.zeros(0, dtype=complex)
        value = 0
        for size in chunk_sizes:
            chunk = np.arange(value, value + size, dtype=complex)
            value += size
            buf.append(chunk)
            stream = np.concatenate([stream, chunk])
        rng = ensure_rng(seed)
        oldest = buf.oldest_available
        for _ in range(10):
            start = int(rng.integers(oldest, stream.size + 1))
            count = int(rng.integers(0, stream.size - start + 1))
            assert buf.get_range(start, count) == pytest.approx(
                stream[start : start + count]
            )

    @given(
        st.lists(
            st.integers(min_value=1, max_value=20),
            min_size=1,
            max_size=15,
        )
    )
    @settings(max_examples=30, deadline=None)
    def test_matches_reference_stream(self, chunk_sizes):
        """Whatever the append pattern, retained samples match the
        ground-truth concatenated stream."""
        capacity = 32
        buf = RollbackBuffer(capacity=capacity)
        stream = np.zeros(0, dtype=complex)
        value = 0
        for size in chunk_sizes:
            chunk = np.arange(value, value + size, dtype=complex)
            value += size
            buf.append(chunk)
            stream = np.concatenate([stream, chunk])
        available = min(capacity, stream.size)
        assert buf.get_range(stream.size - available, available) == (
            pytest.approx(stream[-available:])
        )
