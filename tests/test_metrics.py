"""Tests for trace post-processing metrics.

The crucial one: ``trace_deliver`` (the CRC-oracle fast path used on
recorded traces) must agree with the real byte-level scheme
implementations on identical channel realisations.
"""

from collections import Counter
from dataclasses import fields, replace

import numpy as np
import pytest

from repro.link.schemes import (
    DeliveryScheme,
    FragmentedCrcScheme,
    PacketCrcScheme,
    PprScheme,
    SpracScheme,
)
from repro.phy.chipchannel import transmit_chipwords
from repro.phy.spreading import bytes_to_symbols
from repro.phy.symbols import SoftPacket
from repro.sim.metrics import (
    evaluate_schemes,
    false_alarm_rates,
    hint_histograms,
    miss_run_length_counts,
    trace_deliver,
)
from repro.sim.network import WRONG, TraceTable
from repro.utils.rng import ensure_rng


def _channel_realisation(codebook, scheme, payload, rng, burst=True):
    """One reception of scheme-encoded payload over a bursty channel."""
    wire = scheme.encode_payload(payload)
    truth = bytes_to_symbols(wire)
    p = np.full(truth.size, 0.01)
    if burst:
        start = rng.integers(0, truth.size // 2)
        p[start : start + truth.size // 4] = 0.4
    words = codebook.encode_words(truth)
    received = transmit_chipwords(words, p, rng)
    decoded, dist = codebook.decode_hard(received)
    return SoftPacket(
        symbols=decoded, hints=dist.astype(float), truth=truth
    )


class TestTraceDeliverEquivalence:
    """trace_deliver's CRC oracle vs the real CRC arithmetic."""

    @pytest.mark.parametrize(
        "scheme",
        [PacketCrcScheme(), PprScheme(eta=6.0)],
        ids=["packet", "ppr"],
    )
    def test_packet_and_ppr_match_real_schemes(self, codebook, scheme):
        rng = ensure_rng(0)
        payload = bytes(rng.integers(0, 256, 200, dtype=np.uint8))
        for _trial in range(10):
            rx = _channel_realisation(codebook, scheme, payload, rng)
            real = scheme.deliver(rx)
            n_payload_syms = 2 * len(payload)
            trace = trace_deliver(
                scheme,
                rx.correct_mask()[:n_payload_syms],
                rx.hints[:n_payload_syms],
            )
            assert trace.frame_passed == real.frame_passed
            assert (
                trace.delivered_correct_bits
                == real.delivered_correct_bits
            )
            assert (
                trace.delivered_incorrect_bits
                == real.delivered_incorrect_bits
            )

    def test_fragmented_matches_on_payload_region(self, codebook):
        """Fragment boundaries differ slightly between the on-wire
        encoding (CRCs interleaved) and the trace evaluation (payload
        only), so compare against a payload-only reference."""
        rng = ensure_rng(1)
        scheme = FragmentedCrcScheme(n_fragments=10)
        payload = bytes(rng.integers(0, 256, 200, dtype=np.uint8))
        truth = bytes_to_symbols(payload)
        for _ in range(5):
            p = np.full(truth.size, 0.02)
            start = rng.integers(0, truth.size // 2)
            p[start : start + 40] = 0.4
            words = codebook.encode_words(truth)
            received = transmit_chipwords(words, p, rng)
            decoded, dist = codebook.decode_hard(received)
            correct = decoded == truth
            result = trace_deliver(scheme, correct, dist.astype(float))
            # Reference: fragments over the payload symbol array.
            bounds = np.linspace(0, truth.size, 11).astype(int)
            expected = sum(
                (hi - lo) * 4
                for lo, hi in zip(bounds[:-1], bounds[1:], strict=True)
                if correct[lo:hi].all()
            )
            assert result.delivered_correct_bits == expected

    def test_unknown_scheme_rejected(self):
        class Weird:
            pass

        with pytest.raises(TypeError):
            trace_deliver(Weird(), np.ones(2, dtype=bool), np.zeros(2))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            trace_deliver(
                PprScheme(), np.ones(3, dtype=bool), np.zeros(2)
            )


class TestEvaluateSchemes:
    def test_scheme_without_trace_evaluation_rejected(self):
        class Opaque(DeliveryScheme):
            def deliver(self, rx):
                raise NotImplementedError

        with pytest.raises(TypeError, match="evaluate_traces"):
            Opaque()

    def test_variants_cover_schemes_and_postamble(self, small_sim_result):
        evals = evaluate_schemes(
            small_sim_result, [PacketCrcScheme(), PprScheme()]
        )
        labels = {e.label for e in evals}
        assert labels == {
            "packet_crc, no postamble",
            "packet_crc, postamble",
            "ppr, no postamble",
            "ppr, postamble",
        }

    def test_postamble_never_reduces_delivery(self, small_sim_result):
        evals = evaluate_schemes(small_sim_result, [PprScheme()])
        by_post = {e.postamble_enabled: e for e in evals}
        for link in by_post[True].stats.links():
            with_post = by_post[True].stats[link].delivered_correct_bits
            without = by_post[False].stats[link].delivered_correct_bits
            assert with_post >= without

    def test_ppr_dominates_packet_crc_per_link(self, small_sim_result):
        evals = evaluate_schemes(
            small_sim_result,
            [PacketCrcScheme(), PprScheme(eta=6.0)],
            postamble_options=(True,),
        )
        by_name = {e.scheme.name: e for e in evals}
        for link in by_name["packet_crc"].stats.links():
            pkt = by_name["packet_crc"].stats[link]
            ppr = by_name["ppr"].stats[link]
            # PPR delivers every bit a passing packet CRC delivers,
            # minus only false-alarmed codewords — but it also delivers
            # on failed frames.  At the link level with eta=6 false
            # alarms are rare enough that PPR >= 95% of packet CRC.
            assert (
                ppr.delivered_correct_bits
                >= 0.95 * pkt.delivered_correct_bits
            )


class TestHintStatistics:
    def test_histogram_totals_match_payload_symbols(self, small_sim_result):
        correct, incorrect = hint_histograms(small_sim_result)
        total = correct.sum() + incorrect.sum()
        expected = sum(
            rec.payload_correct().size
            for rec in small_sim_result.records
            if rec.acquired(True)
        )
        assert total == expected

    def test_rates_monotonic(self, small_sim_result):
        correct, incorrect = hint_histograms(small_sim_result)
        fa = false_alarm_rates(correct)
        assert np.all(np.diff(fa) <= 1e-12)
        assert fa[-1] == pytest.approx(0.0)

    def test_empty_histogram_rejected(self):
        with pytest.raises(ValueError):
            false_alarm_rates(np.zeros(33))

    def test_miss_run_lengths_manual(self, small_sim_result):
        """Wrong codewords at payload symbols 1, 2 and 4, all with hint
        0 (misses at every eta), form one run of 2 and one of 1."""
        table = small_sim_result.table
        one_row = TraceTable(
            **{f.name: getattr(table, f.name)[:1].copy() for f in fields(table)}
        )
        one_row.acquired_preamble[0] = True
        one_row.payload[0] = 0
        one_row.payload[0, [1, 2, 4]] = WRONG
        counts = miss_run_length_counts(
            replace(small_sim_result, table=one_row), etas=(0, 3)
        )
        assert counts == {0: Counter({2: 1, 1: 1}), 3: Counter({2: 1, 1: 1})}

    def test_miss_runs_respect_threshold_ordering(self, small_sim_result):
        counts = miss_run_length_counts(small_sim_result, etas=(1, 4))
        # A miss at eta=1 is also a miss at eta=4.
        total_1 = sum(k * v for k, v in counts[1].items())
        total_4 = sum(k * v for k, v in counts[4].items())
        assert total_4 >= total_1


class TestTraceDeliverSprac:
    def test_clean_trace_delivers_everything(self):
        scheme = SpracScheme(n_segments=10, n_repair=5)
        result = trace_deliver(
            scheme, np.ones(600, dtype=bool), np.zeros(600)
        )
        assert result.delivered_correct_bits == result.payload_bits
        assert result.frame_passed
        # Overhead charges every CRC plus the repair airtime.
        assert result.overhead_bits == 32 * 15 + 5 * 60 * 4

    def test_burst_recovered_via_repair_windows(self):
        scheme = SpracScheme(n_segments=10, n_repair=5)
        correct = np.ones(600, dtype=bool)
        correct[0:55] = False  # erases segment 0 (symbols 0..59)
        result = trace_deliver(scheme, correct, np.zeros(600))
        assert result.frame_passed
        assert result.delivered_correct_bits == result.payload_bits
        assert result.delivered_incorrect_bits == 0

    def test_more_erasures_than_equations_fail_closed(self):
        scheme = SpracScheme(n_segments=10, n_repair=1)
        correct = np.zeros(600, dtype=bool)  # everything wrong
        result = trace_deliver(scheme, correct, np.zeros(600))
        assert not result.frame_passed
        assert result.delivered_correct_bits == 0

    def test_sprac_never_below_equivalent_fragmented(
        self, small_sim_result
    ):
        """Coded repair can only add to what the fragments deliver."""
        k = 20
        frag_eval, sprac_eval = evaluate_schemes(
            small_sim_result,
            [
                FragmentedCrcScheme(n_fragments=k),
                SpracScheme(n_segments=k, n_repair=k // 2),
            ],
            postamble_options=(True,),
        )
        for link in frag_eval.stats.links():
            assert (
                sprac_eval.stats[link].delivered_correct_bits
                >= frag_eval.stats[link].delivered_correct_bits
            )

    def test_empty_trace(self):
        scheme = SpracScheme(n_segments=4, n_repair=2)
        result = trace_deliver(
            scheme,
            np.zeros(0, dtype=bool),
            np.zeros(0),
        )
        assert result.payload_bits == 0
        assert result.frame_passed
