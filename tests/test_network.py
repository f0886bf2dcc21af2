"""Tests for the network simulation's structural invariants."""

import tracemalloc

import numpy as np
import pytest

from repro.link.frame import (
    HEADER_BYTES,
    SYMBOLS_PER_BYTE,
    TRAILER_BYTES,
    parse_header_bytes,
)
from repro.phy.modulation import SYMBOL_PERIOD_S
from repro.phy.spreading import symbols_to_bytes
from repro.phy.sync import SYNC_SYMBOLS
from repro.sim.medium import PathLossModel
from repro.sim.network import WRONG, NetworkSimulation, SimulationConfig, TraceTable
from repro.sim.testbed import TestbedConfig as _TestbedConfig


class TestConfigValidation:
    def test_rejects_bad_load(self):
        with pytest.raises(ValueError):
            SimulationConfig(load_bits_per_s_per_node=0)

    def test_rejects_bad_duration(self):
        with pytest.raises(ValueError):
            SimulationConfig(duration_s=0)

    @pytest.mark.parametrize("snr", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_min_rx_snr(self, snr):
        with pytest.raises(ValueError, match="min_rx_snr_db"):
            SimulationConfig(min_rx_snr_db=snr)

    @pytest.mark.parametrize(
        ("field", "value"),
        [
            (field, value)
            for field in ("noise_floor_dbm", "wall_loss_db", "fading_sigma_db")
            for value in (np.nan, np.inf, -np.inf)
        ],
    )
    def test_rejects_non_finite_radio_field(self, field, value):
        """A NaN or infinite noise floor, wall loss or fading spread
        used to run to completion with no (or meaningless) receptions."""
        with pytest.raises(ValueError, match=field):
            SimulationConfig(**{field: value})


class TestPayloadEntries:
    @pytest.mark.parametrize("wrong", [False, True])
    @pytest.mark.parametrize("hint", [0, 1, 16, 32])
    def test_entry_reads_back_as_its_hint_and_correctness(self, hint, wrong):
        """An entry packs a codeword's hint with WRONG, and the table's
        block reader unpacks both.  Wrong at hint 0 is the
        aligned-codeword blind spot (the chips formed another valid
        codeword exactly), and it must still read as wrong."""
        entry = hint | WRONG * wrong
        table = TraceTable(
            tx_index=np.zeros(2, dtype=np.int64),
            receiver=np.zeros(2, dtype=np.int64),
            preamble_detectable=np.ones(2, dtype=bool),
            postamble_detectable=np.ones(2, dtype=bool),
            trailer_ok=np.ones(2, dtype=bool),
            acquired_preamble=np.ones(2, dtype=bool),
            payload=np.array([[entry, 0, entry], [0, 0, 0]], dtype=np.uint8),
        )
        block = table.trace_block(np.array([True, False]))
        assert block.hints.tolist() == [[hint, 0, hint]]
        assert block.correct.tolist() == [[not wrong, True, not wrong]]


class TestRunStructure:
    def test_transmissions_generated(self, small_sim_result):
        assert len(small_sim_result.transmissions) > 20

    def test_offered_load_approximates_config(self, small_sim_result):
        cfg = small_sim_result.config
        expected = (
            cfg.duration_s
            * cfg.load_bits_per_s_per_node
            / (8 * cfg.payload_bytes)
            * 23
        )
        actual = len(small_sim_result.transmissions)
        assert actual == pytest.approx(expected, rel=0.3)

    def test_records_only_at_receivers(self, small_sim_result):
        receivers = set(small_sim_result.testbed.receiver_ids)
        assert all(
            r.receiver in receivers for r in small_sim_result.records
        )

    def test_body_regions_consistent(self, small_sim_result):
        cfg = small_sim_result.config
        n_payload = SYMBOLS_PER_BYTE * cfg.payload_bytes
        assert small_sim_result.table.payload.shape[1] == n_payload
        for rec in small_sim_result.records[:50]:
            assert rec.payload.size == n_payload
            assert rec.payload_hints().size == n_payload
            assert rec.payload_correct().size == n_payload
            assert rec.tx.n_symbols == 2 * SYNC_SYMBOLS + SYMBOLS_PER_BYTE * (
                HEADER_BYTES + cfg.payload_bytes + TRAILER_BYTES
            )

    def test_records_point_at_their_transmission(self, small_sim_result):
        txs = small_sim_result.transmissions
        for rec in small_sim_result.records:
            assert rec.tx is txs[rec.tx.tx_id]
            assert rec.link == (rec.tx.sender, rec.receiver)

    def test_hints_zero_implies_correct(self, small_sim_result):
        """A Hamming hint of 0 means the received chips exactly matched
        the decoded codeword; with the transmitted word at distance 0
        the decode must be correct."""
        block = small_sim_result.table.trace_block(slice(100))
        assert np.all(block.correct[block.hints == 0])

    def test_acquisition_flags_consistent(self, small_sim_result):
        for rec in small_sim_result.records:
            assert rec.acquired(True) or not rec.acquired_preamble
            if rec.acquired(False):
                assert rec.acquired_preamble

    def test_postamble_recoveries_exist_under_load(self, small_sim_result):
        extra = [
            r
            for r in small_sim_result.records
            if not r.acquired_preamble and r.acquired(True)
        ]
        assert extra, "heavy load should produce postamble-only recoveries"

    def test_determinism(self):
        config = SimulationConfig(
            load_bits_per_s_per_node=13800.0,
            payload_bytes=200,
            duration_s=4.0,
            carrier_sense=False,
            seed=17,
        )
        a = NetworkSimulation(config).run()
        b = NetworkSimulation(config).run()
        assert len(a.records) == len(b.records)
        for ra, rb in zip(a.records, b.records, strict=True):
            assert ra.tx.tx_id == rb.tx.tx_id
            assert np.array_equal(ra.payload, rb.payload)


class TestLockArbitration:
    def test_no_overlapping_preamble_acquisitions(self, small_sim_result):
        """The single-radio lock: at any receiver, preamble-acquired
        frames must not overlap in time."""
        for receiver in small_sim_result.testbed.receiver_ids:
            acquired = sorted(
                (
                    r
                    for r in small_sim_result.records
                    if r.receiver == receiver and r.acquired_preamble
                ),
                key=lambda r: r.tx.start,
            )
            for first, second in zip(acquired, acquired[1:], strict=False):
                first_end = first.tx.start + first.tx.n_symbols * SYMBOL_PERIOD_S
                assert second.tx.start >= first_end - 1e-12


class TestSequenceNumbers:
    def test_seq_unique_and_header_consistent_under_backoff(self):
        """Frames deferred by CSMA backoff or a busy sender used to
        capture a stale counter at build time, giving duplicate seq
        values and headers disagreeing with the eventual tx_id.  seq is
        now assigned by a build-time counter and carried into the
        Transmission, so it stays unique and header-consistent even
        when the tx_id order diverges from the build order."""
        positions = np.array([[0.0, 0.0], [4.0, 0.0], [2.0, 0.0]])
        testbed = _TestbedConfig(
            positions_m=positions,
            sender_ids=(0, 1),
            receiver_ids=(2,),
            room_grid=(1, 1),
            area_m=(4.0, 1.0),
        )
        config = SimulationConfig(
            load_bits_per_s_per_node=60_000.0,
            payload_bytes=300,
            duration_s=4.0,
            carrier_sense=True,  # close senders: forces backoff
            seed=6,
            wall_loss_db=0.0,
            fading_sigma_db=0.0,
        )
        sim = NetworkSimulation(
            config,
            testbed=testbed,
            path_loss=PathLossModel(shadowing_sigma_db=0),
        )
        txs, air = sim._generate_transmissions()
        assert len(txs) > 10
        # The scenario must actually exercise deferral: with the two
        # counters in lockstep (no deferrals) seq always equals tx_id.
        assert any(t.seq != t.tx_id for t in txs), (
            "scenario failed to force a backoff/busy deferral"
        )
        seqs = [t.seq for t in txs]
        assert len(set(seqs)) == len(seqs), "duplicate seq values"
        # The seq on the wire (in the frame header symbols) must agree
        # with the Transmission's seq for every frame.  The wire field
        # is 16 bits and wraps; Transmission.seq never does.
        for t, symbols in zip(txs, air, strict=True):
            body = symbols[SYNC_SYMBOLS:-SYNC_SYMBOLS]
            header_syms = body[: SYMBOLS_PER_BYTE * HEADER_BYTES]
            header, ok = parse_header_bytes(symbols_to_bytes(header_syms))
            assert ok
            assert header.seq == t.seq & 0xFFFF
            assert header.src == t.sender


class TestActiveSetInvariants:
    def test_transmissions_sorted_with_dense_tx_ids(self, small_sim_result):
        """The pruned active set relies on start-ordered appends and
        air-order tx_ids."""
        txs = small_sim_result.transmissions
        starts = [t.start for t in txs]
        assert starts == sorted(starts)
        assert [t.tx_id for t in txs] == list(range(len(txs)))


class TestForcedCollision:
    def test_two_synchronized_senders_corrupt_each_other(self):
        """A deliberate 3-node layout: two equidistant senders at high
        power around one receiver; no carrier sense.  Their Poisson
        streams overlap often, and overlapped receptions must show
        corrupted codewords with high hints."""
        positions = np.array([[0.0, 0.0], [10.0, 0.0], [5.0, 0.0]])
        testbed = _TestbedConfig(
            positions_m=positions,
            sender_ids=(0, 1),
            receiver_ids=(2,),
            room_grid=(1, 1),
            area_m=(10.0, 1.0),
        )
        config = SimulationConfig(
            load_bits_per_s_per_node=60_000.0,
            payload_bytes=400,
            duration_s=5.0,
            carrier_sense=False,
            seed=4,
            wall_loss_db=0.0,
            fading_sigma_db=0.0,
        )
        sim = NetworkSimulation(
            config,
            testbed=testbed,
            path_loss=PathLossModel(shadowing_sigma_db=0),
        )
        block = sim.run().table.trace_block(slice(None))
        wrong = ~block.correct
        assert wrong.any(), "equal-power collisions must corrupt symbols"
        row = wrong.sum(axis=1).argmax()
        wrong, hints = wrong[row], block.hints[row]
        assert hints[wrong].mean() > hints[~wrong].mean()


class TestReceiveMemory:
    def test_heaviest_quick_point_peak(self):
        """Receiving a run holds bounded blocks of its hot codewords,
        never all of them: the heaviest quick point (2.05M hot
        codewords, a ~3 MB result) peaks far below the ~158 MB that
        building every hot codeword at once took."""
        config = SimulationConfig(
            load_bits_per_s_per_node=13800.0,
            duration_s=15.0,
            carrier_sense=False,
            seed=2009,
        )
        tracemalloc.start()
        try:
            NetworkSimulation(config).run()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2**20, f"peak {peak / 2**20:.1f} MB"
