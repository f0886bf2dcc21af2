"""Tests for sync fields and sync peak detection."""

import numpy as np
import pytest

from repro.phy.channelsim import add_awgn
from repro.phy.batch import WaveformBatchEngine
from repro.phy.modulation import SAMPLES_PER_CHIP, MskModulator
from repro.phy.sync import (
    EFD_SYMBOLS,
    POSTAMBLE_SYMBOLS,
    PREAMBLE_SYMBOLS,
    SFD_SYMBOLS,
    peak_offsets,
    sync_field_symbols,
)


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
    receiver's sample-domain correlation, and synthetic traces."""

    THRESHOLD = 0.70  # WaveformBatchEngine's default

    def _capture(self, codebook, pieces, rng, noise=0.0):
        wave = MskModulator().modulate_symbols(
            np.concatenate(pieces), codebook
        )
        return add_awgn(wave, noise, rng)

    def test_multiple_detections(self, codebook, rng):
        engine = WaveformBatchEngine(codebook)
        field = sync_field_symbols("preamble")
        gap = rng.integers(0, 16, 40)
        capture = self._capture(codebook, [field, gap, field], rng)
        corr = engine.correlation(capture, "preamble")
        pattern = field.size * 32 * SAMPLES_PER_CHIP
        second = (field.size + gap.size) * 32 * SAMPLES_PER_CHIP
        assert peak_offsets(corr, self.THRESHOLD, pattern) == [0, second]

    def test_matches_reference_walk(self, codebook, rng):
        """The np.split non-maximum suppression must group and peak
        exactly like the original per-index walk."""
        engine = WaveformBatchEngine(codebook)
        field = sync_field_symbols("preamble")
        pattern = field.size * 32 * SAMPLES_PER_CHIP
        for _trial in range(5):
            pieces = [field]
            for _ in range(int(rng.integers(1, 4))):
                pieces.append(rng.integers(0, 16, 30))
                pieces.append(field)
            capture = self._capture(codebook, pieces, rng, noise=0.05)
            corr = engine.correlation(capture, "preamble")
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
