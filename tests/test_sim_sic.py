"""The in-simulation SIC pass: opt-in, deterministic, and additive.

``SimulationConfig.sic_recovery`` re-decodes isolated two-frame
collisions at waveform fidelity.  The contract pinned here: the pass
is off by default and bit-deterministic when on; it only ever
*upgrades* damaged records (clean records and every identity field
are untouched); and on the collision testbed it strictly improves
acquisitions and whole-frame deliveries over the chip-level baseline.
The flag is part of the config's cache identity.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.sim.network import NetworkSimulation, SimulationConfig
from repro.sim.testbed import collision_testbed
from repro.store import config_from_dict, config_key, config_to_dict
from test_store import _assert_results_identical

_ETA = 6.0


def _config(sic: bool) -> SimulationConfig:
    """Heavy load on the two-sender testbed: collisions guaranteed."""
    return SimulationConfig(
        load_bits_per_s_per_node=60000.0,
        payload_bytes=24,
        duration_s=1.5,
        carrier_sense=False,
        seed=3,
        fading_sigma_db=0.0,
        sic_recovery=sic,
    )


def _run(sic: bool):
    return NetworkSimulation(
        _config(sic), testbed=collision_testbed()
    ).run()


@pytest.fixture(scope="module")
def baseline():
    return _run(sic=False)


@pytest.fixture(scope="module")
def with_sic():
    return _run(sic=True)


def _n_acquired(result) -> int:
    return sum(rec.acquired(True) for rec in result.records)


def _n_whole_frames(result) -> int:
    return sum(
        rec.acquired(True) and bool(rec.payload_correct().all())
        for rec in result.records
    )


def _n_good_symbols(result) -> int:
    return sum(
        int(
            (
                (rec.payload_hints() <= _ETA) & rec.payload_correct()
            ).sum()
        )
        for rec in result.records
        if rec.acquired(True)
    )


class TestSicPassEffect:
    def test_off_by_default(self):
        assert SimulationConfig().sic_recovery is False

    def test_record_identities_unchanged(self, baseline, with_sic):
        """The pass rewrites decode outcomes, never the traffic."""
        assert len(baseline.records) == len(with_sic.records)
        for ra, rb in zip(
            baseline.records, with_sic.records, strict=True
        ):
            assert (ra.tx.tx_id, ra.receiver) == (rb.tx.tx_id, rb.receiver)
            assert ra.body_symbols.size == rb.body_symbols.size
            assert np.array_equal(ra.body_truth, rb.body_truth)

    def test_sic_strictly_improves_collision_recovery(
        self, baseline, with_sic
    ):
        assert _n_acquired(with_sic) > _n_acquired(baseline)
        assert _n_whole_frames(with_sic) > _n_whole_frames(baseline)
        assert _n_good_symbols(with_sic) > _n_good_symbols(baseline)

    def test_clean_records_are_untouched(self, baseline, with_sic):
        """SIC only adopts decodes for *damaged* records; anything the
        chip-level pass already got right is byte-identical."""
        upgraded = 0
        for ra, rb in zip(
            baseline.records, with_sic.records, strict=True
        ):
            clean = (
                ra.acquired(True)
                and ra.header_ok
                and ra.trailer_ok
                and not (ra.body_hints > 0).any()
            )
            if clean:
                assert np.array_equal(ra.body_symbols, rb.body_symbols)
                assert np.array_equal(ra.body_hints, rb.body_hints)
                assert (ra.header_ok, ra.trailer_ok) == (
                    rb.header_ok,
                    rb.trailer_ok,
                )
            elif not np.array_equal(ra.body_hints, rb.body_hints):
                upgraded += 1
        assert upgraded > 0

    def test_sic_run_is_bit_deterministic(self, with_sic):
        _assert_results_identical(with_sic, _run(sic=True))


class TestConfigIdentity:
    def test_flag_round_trips_through_store_dict(self):
        config = _config(sic=True)
        restored = config_from_dict(config_to_dict(config))
        assert restored == config
        assert restored.sic_recovery is True

    def test_flag_is_part_of_the_cache_key(self):
        assert config_key(_config(sic=True)) != config_key(
            _config(sic=False)
        )

    def test_flag_survives_dataclass_replace(self):
        on = dataclasses.replace(_config(sic=False), sic_recovery=True)
        assert on == _config(sic=True)
