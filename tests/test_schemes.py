"""Tests for the three delivery schemes of paper §7.2."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.link.schemes import (
    FragmentedCrcScheme,
    PacketCrcScheme,
    PprScheme,
    SpracScheme,
    TraceBlock,
    default_schemes,
)
from repro.phy.spreading import bytes_to_symbols
from repro.phy.symbols import SoftPacket
from repro.sim.metrics import trace_deliver


def _clean_rx(scheme, payload):
    wire = scheme.encode_payload(payload)
    symbols = bytes_to_symbols(wire)
    return SoftPacket(
        symbols=symbols, hints=np.zeros(symbols.size), truth=symbols
    )


def _corrupt_rx(scheme, payload, sym_lo, sym_hi, hint=10.0):
    """Corrupt symbols in [sym_lo, sym_hi) with high hints."""
    wire = scheme.encode_payload(payload)
    truth = bytes_to_symbols(wire)
    symbols = truth.copy()
    symbols[sym_lo:sym_hi] = (symbols[sym_lo:sym_hi] + 1) % 16
    hints = np.zeros(truth.size)
    hints[sym_lo:sym_hi] = hint
    return SoftPacket(symbols=symbols, hints=hints, truth=truth)


def _trace_deliver(scheme, payload_len, wrong=()):
    """A scheme's delivery of a ``payload_len``-byte payload trace with
    the symbols in ``wrong`` decoded wrong (hints play no part in the
    CRC-based schemes)."""
    correct = np.ones(2 * payload_len, dtype=bool)
    correct[list(wrong)] = False
    return trace_deliver(scheme, correct, np.zeros(correct.size))


PAYLOAD = bytes(range(120))


class TestPacketCrc:
    def test_clean_delivers_everything(self):
        scheme = PacketCrcScheme()
        result = scheme.deliver(_clean_rx(scheme, PAYLOAD))
        assert result.frame_passed
        assert result.delivered_correct_bits == 8 * len(PAYLOAD)
        assert result.delivered_incorrect_bits == 0
        assert result.delivered_correct_bits == result.payload_bits

    def test_single_corrupt_symbol_kills_packet(self):
        scheme = PacketCrcScheme()
        result = scheme.deliver(_corrupt_rx(scheme, PAYLOAD, 5, 6))
        assert not result.frame_passed
        assert result.delivered_correct_bits == 0
        assert result.delivered_incorrect_bits == 0

    def test_overhead_is_one_crc(self):
        assert _trace_deliver(PacketCrcScheme(), 1500).overhead_bits == 32

    def test_short_wire_rejected(self):
        scheme = PacketCrcScheme()
        rx = SoftPacket(
            symbols=np.zeros(2, dtype=np.int64),
            hints=np.zeros(2),
            truth=np.zeros(2, dtype=np.int64),
        )
        with pytest.raises(ValueError, match="shorter"):
            scheme.deliver(rx)


class TestFragmentedCrc:
    """Delivery through the trace evaluator, over the payload symbols."""

    def test_clean_delivers_everything(self):
        scheme = FragmentedCrcScheme(n_fragments=10)
        result = _trace_deliver(scheme, len(PAYLOAD))
        assert result.frame_passed
        assert result.delivered_correct_bits == 8 * len(PAYLOAD)

    def test_corrupt_fragment_loses_only_that_fragment(self):
        scheme = FragmentedCrcScheme(n_fragments=10)
        # 120-byte payload, 10 fragments of 12 bytes (24 symbols).
        result = _trace_deliver(scheme, len(PAYLOAD), wrong=range(0, 2))
        assert not result.frame_passed
        assert result.delivered_correct_bits == 8 * (len(PAYLOAD) - 12)

    def test_overhead_scales_with_fragments(self):
        assert FragmentedCrcScheme(30).wire_overhead_bytes(1500) == 120
        # 10 bytes are 20 symbols: 20 one-symbol fragments, 20 CRCs.
        assert FragmentedCrcScheme(30).wire_overhead_bytes(10) == 80

    @pytest.mark.parametrize("payload_len", [0, 1, 10, 14, 15, 16, 1500])
    def test_wire_overhead_is_what_the_traces_charge(self, payload_len):
        """The byte overhead table2 derates by is the overhead the
        trace evaluator charges, short payloads included."""
        scheme = FragmentedCrcScheme(n_fragments=30)
        result = _trace_deliver(scheme, payload_len)
        assert result.overhead_bits == 8 * scheme.wire_overhead_bytes(payload_len)

    def test_invalid_fragment_count(self):
        with pytest.raises(ValueError):
            FragmentedCrcScheme(n_fragments=0)

    def test_payload_shorter_than_fragments(self):
        scheme = FragmentedCrcScheme(n_fragments=30)
        result = _trace_deliver(scheme, 3)
        assert result.frame_passed
        assert result.delivered_correct_bits == 24


class TestPpr:
    def test_clean_delivers_everything(self):
        scheme = PprScheme(eta=6)
        result = scheme.deliver(_clean_rx(scheme, PAYLOAD))
        assert result.frame_passed
        assert result.delivered_correct_bits == 8 * len(PAYLOAD)

    def test_partial_delivery_around_burst(self):
        scheme = PprScheme(eta=6)
        result = scheme.deliver(_corrupt_rx(scheme, PAYLOAD, 10, 50))
        assert not result.frame_passed
        # 40 corrupt symbols excluded, everything else delivered.
        assert result.delivered_correct_bits == 4 * (240 - 40)
        assert result.delivered_incorrect_bits == 0

    def test_miss_counts_as_incorrect_delivery(self):
        scheme = PprScheme(eta=6)
        # Corrupt symbols with LOW hints: SoftPHY misses.
        rx = _corrupt_rx(scheme, PAYLOAD, 10, 12, hint=2.0)
        result = scheme.deliver(rx)
        assert result.delivered_incorrect_bits == 8
        assert result.delivered_correct_bits == 4 * 238

    def test_false_alarm_withholds_correct_bits(self):
        scheme = PprScheme(eta=6)
        wire = scheme.encode_payload(PAYLOAD)
        truth = bytes_to_symbols(wire)
        hints = np.zeros(truth.size)
        hints[:4] = 9.0  # correct symbols, bad hints
        rx = SoftPacket(symbols=truth, hints=hints, truth=truth)
        result = scheme.deliver(rx)
        assert result.delivered_correct_bits == 4 * (240 - 4)
        assert result.frame_passed  # CRC still verifies

    def test_same_wire_format_as_packet_crc(self):
        assert PprScheme().encode_payload(PAYLOAD) == PacketCrcScheme(
        ).encode_payload(PAYLOAD)

    def test_invalid_eta(self):
        with pytest.raises(ValueError):
            PprScheme(eta=-1)
        with pytest.raises(ValueError):
            PprScheme(eta=float("nan"))

    @pytest.mark.parametrize("eta", [0, 2.5, 6, 6.0, 32, 40])
    def test_integer_limit_matches_float_eta(self, eta, rng):
        """Trace scoring compares uint8 hints with the integer part of
        eta: the masks, and so every delivered count, equal the float
        comparison's, in both the block and the per-trace path."""
        hints = rng.integers(0, 64, (30, 50)).astype(np.uint8)
        correct = rng.random(hints.shape) < 0.7
        scheme = PprScheme(eta=eta)
        good = hints.astype(np.float64) <= float(eta)
        assert isinstance(scheme.hint_limit, int)
        assert np.array_equal(hints <= scheme.hint_limit, good)
        got = scheme.evaluate_traces(TraceBlock(correct, hints))
        assert np.array_equal(
            got.delivered_correct_bits, 4 * (good & correct).sum(axis=1)
        )
        assert np.array_equal(
            got.delivered_incorrect_bits, 4 * (good & ~correct).sum(axis=1)
        )
        for row in range(hints.shape[0]):
            one = trace_deliver(scheme, correct[row], hints[row])
            assert one.delivered_correct_bits == got.delivered_correct_bits[row]
            assert (
                one.delivered_incorrect_bits
                == got.delivered_incorrect_bits[row]
            )


class TestCommon:
    def test_default_schemes_composition(self):
        schemes = default_schemes()
        names = [s.name for s in schemes]
        assert names == ["packet_crc", "fragmented_crc", "ppr"]

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="hints shape"):
            SoftPacket(
                symbols=np.zeros(4, dtype=np.int64),
                hints=np.zeros(3),
                truth=np.zeros(4, dtype=np.int64),
            )

    @given(
        st.binary(min_size=8, max_size=200),
        st.integers(min_value=0, max_value=50),
    )
    @settings(max_examples=25, deadline=None)
    def test_ppr_never_delivers_more_than_payload(self, payload, start):
        scheme = PprScheme(eta=6)
        n_payload_syms = 2 * len(payload)
        lo = min(start, n_payload_syms - 1)
        rx = _corrupt_rx(scheme, payload, lo, lo + 3)
        result = scheme.deliver(rx)
        delivered = (
            result.delivered_correct_bits + result.delivered_incorrect_bits
        )
        assert 0 <= delivered <= result.payload_bits


class TestSprac:
    """Delivery through the trace evaluator, over the payload symbols:
    a repair segment survives when its wrap-around window of the trace
    decoded correctly."""

    def test_clean_delivers_everything(self):
        scheme = SpracScheme(n_segments=6, n_repair=3)
        result = _trace_deliver(scheme, len(PAYLOAD))
        assert result.payload_bits == 8 * len(PAYLOAD)
        assert result.delivered_correct_bits == result.payload_bits
        assert result.delivered_incorrect_bits == 0
        assert result.frame_passed

    def test_corrupt_segment_recovered_by_coding(self):
        scheme = SpracScheme(n_segments=6, n_repair=3)
        # Segment 0 occupies bytes [0, 20) -> symbols [0, 40); so does
        # the first repair window, the other two survive.
        result = _trace_deliver(scheme, len(PAYLOAD), wrong=range(0, 4))
        assert result.frame_passed
        assert result.delivered_correct_bits == 8 * len(PAYLOAD)
        assert result.delivered_incorrect_bits == 0

    def test_losses_beyond_repair_stay_lost(self):
        scheme = SpracScheme(n_segments=6, n_repair=1)
        # Corrupt the first symbol of three different data segments.
        result = _trace_deliver(scheme, len(PAYLOAD), wrong=(0, 40, 80))
        assert not result.frame_passed
        # Three intact segments deliver; one repair row cannot cover
        # three erasures.
        assert result.delivered_correct_bits == 8 * (len(PAYLOAD) // 2)

    def test_overhead_includes_repair_payload(self):
        scheme = SpracScheme(n_segments=10, n_repair=5)
        # 15 CRCs plus 5 repair segments of 3000/10 symbols.
        assert _trace_deliver(scheme, 1500).overhead_bits == 8 * 810

    @pytest.mark.parametrize(
        "payload_len, k, r, overhead_bits",
        [
            # 4 CRCs plus one repair segment of ceil(20/3) = 7 symbols,
            # not of ceil(10/3) = 4 bytes.
            (10, 3, 1, 32 * 4 + 4 * 7),
            (101, 30, 8, 32 * 38 + 8 * 4 * 7),
        ],
    )
    def test_overhead_when_segments_split_a_byte(self, payload_len, k, r, overhead_bits):
        scheme = SpracScheme(n_segments=k, n_repair=r)
        assert _trace_deliver(scheme, payload_len).overhead_bits == overhead_bits

    def test_default_repair_count(self):
        assert SpracScheme(n_segments=30).n_repair == 8
        assert SpracScheme(n_segments=3).n_repair == 1
