"""Tests for multi-receiver diversity combining (paper §8.4)."""

import numpy as np
import pytest

from repro.link.diversity import combine_soft_packets, diversity_gain
from repro.phy.chipchannel import transmit_chipwords
from repro.phy.symbols import SoftPacket


def _reception(codebook, truth, p, rng):
    words = codebook.encode_words(truth)
    received = transmit_chipwords(words, p, rng)
    decoded, dist = codebook.decode_hard(received)
    return SoftPacket(
        symbols=decoded, hints=dist.astype(float), truth=truth
    )


class TestCombining:
    def test_min_hint_wins(self):
        a = SoftPacket(
            symbols=np.array([1, 2]), hints=np.array([0.0, 9.0])
        )
        b = SoftPacket(
            symbols=np.array([5, 6]), hints=np.array([4.0, 1.0])
        )
        result = combine_soft_packets([a, b])
        assert result.combined.symbols.tolist() == [1, 6]
        assert result.combined.hints.tolist() == [0.0, 1.0]
        assert result.chosen_source.tolist() == [0, 1]

    def test_tie_goes_to_earlier_packet(self):
        a = SoftPacket(symbols=np.array([1]), hints=np.array([2.0]))
        b = SoftPacket(symbols=np.array([9]), hints=np.array([2.0]))
        result = combine_soft_packets([a, b])
        assert result.combined.symbols[0] == 1

    def test_single_packet_identity(self):
        a = SoftPacket(
            symbols=np.array([3, 4]), hints=np.array([1.0, 2.0])
        )
        result = combine_soft_packets([a])
        assert np.array_equal(result.combined.symbols, a.symbols)
        assert result.source_share(0) == 1.0

    def test_length_mismatch_rejected(self):
        a = SoftPacket(symbols=np.array([1]), hints=np.array([0.0]))
        b = SoftPacket(symbols=np.array([1, 2]), hints=np.zeros(2))
        with pytest.raises(ValueError, match="same symbol count"):
            combine_soft_packets([a, b])

    def test_truth_disagreement_rejected(self):
        a = SoftPacket(
            symbols=np.array([1]),
            hints=np.array([0.0]),
            truth=np.array([1]),
        )
        b = SoftPacket(
            symbols=np.array([1]),
            hints=np.array([0.0]),
            truth=np.array([2]),
        )
        with pytest.raises(ValueError, match="ground truth"):
            combine_soft_packets([a, b])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            combine_soft_packets([])


class TestDiversityGain:
    def test_complementary_bursts_fully_recovered(self, codebook, rng):
        """Two receivers hit by different collision bursts: combining
        recovers essentially the whole packet."""
        truth = rng.integers(0, 16, 400)
        p1 = np.full(400, 0.002)
        p1[:150] = 0.45  # burst at receiver 1's head
        p2 = np.full(400, 0.002)
        p2[250:] = 0.45  # burst at receiver 2's tail
        rx1 = _reception(codebook, truth, p1, rng)
        rx2 = _reception(codebook, truth, p2, rng)
        gains = diversity_gain([rx1, rx2], eta=6.0)
        assert gains["combined"] > gains["best_single"]
        assert gains["combined"] > 0.95
        assert gains["combined_miss_fraction"] < 0.02

    def test_identical_receptions_no_gain(self, codebook, rng):
        truth = rng.integers(0, 16, 200)
        p = np.full(200, 0.002)
        p[50:100] = 0.45
        words = codebook.encode_words(truth)
        received = transmit_chipwords(words, p, 3)
        decoded, dist = codebook.decode_hard(received)
        rx = SoftPacket(
            symbols=decoded, hints=dist.astype(float), truth=truth
        )
        gains = diversity_gain([rx, rx], eta=6.0)
        assert gains["combined"] == pytest.approx(gains["best_single"])

    def test_gain_on_simulated_testbed_records(self, small_sim_result):
        """Receptions of the same transmission at different testbed
        receivers combine to at least the best individual delivery."""
        from collections import defaultdict

        by_tx = defaultdict(list)
        for rec in small_sim_result.records:
            if rec.acquired(True):
                by_tx[rec.tx.tx_id].append(rec)
        multi = [recs for recs in by_tx.values() if len(recs) >= 2]
        assert multi, "testbed run must have multi-receiver receptions"
        checked = 0
        for recs in multi[:20]:
            packets = [
                SoftPacket(
                    symbols=r.body_symbols.astype(np.int64),
                    hints=r.body_hints.astype(np.float64),
                    truth=r.body_truth,
                )
                for r in recs
            ]
            gains = diversity_gain(packets, eta=6.0)
            assert gains["combined"] >= gains["best_single"] - 1e-12
            checked += 1
        assert checked > 0
