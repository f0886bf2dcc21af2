"""Tests for the experiment harness infrastructure.

The full-duration experiments run in the benchmark suite; here we
verify the run cache, the scenario/sweep API, and the fast
experiments end-to-end.
"""

import numpy as np
import pytest

from repro.arq.runlength import PAPER_ETA
from repro.experiments import exp_fig13, exp_fig16
from repro.experiments.common import (
    ExperimentResult,
    RunCache,
    Scenario,
    ShapeCheck,
    grid,
    labelled_evaluations,
    sweep,
)
from repro.link.schemes import default_schemes
from repro.sim.network import SimulationConfig


class TestShapeCheck:
    def test_rendering(self):
        check = ShapeCheck(name="x", passed=True, detail="d")
        assert str(check) == "[PASS] x (d)"
        assert str(ShapeCheck(name="y", passed=False)) == "[FAIL] y"

    def test_result_summary(self):
        result = ExperimentResult(
            experiment_id="t",
            title="T",
            paper_expectation="E",
            rendered="plot",
            shape_checks=[ShapeCheck(name="a", passed=True)],
        )
        assert result.all_passed
        assert "=== t: T ===" in result.summary()
        assert "[PASS] a" in result.summary()


class TestRunCache:
    def test_caching(self):
        runs = RunCache(duration_s=2.0, seed=1)
        a = runs.get(load=13800.0, carrier_sense=False)
        b = runs.get(load=13800.0, carrier_sense=False)
        assert a is b
        runs.clear()
        c = runs.get(load=13800.0, carrier_sense=False)
        assert c is not a

    def test_full_config_and_overrides_agree(self):
        runs = RunCache(duration_s=2.0, seed=1)
        config = runs.config_for(load=13800.0, carrier_sense=False)
        assert runs.get(config) is runs.get(
            load=13800.0, carrier_sense=False
        )

    def test_different_conditions_different_runs(self):
        runs = RunCache(duration_s=2.0, seed=1)
        a = runs.get(load=13800.0, carrier_sense=False)
        b = runs.get(load=13800.0, carrier_sense=True)
        assert a is not b

    def test_any_axis_keys_the_cache(self):
        """Seed, payload, and duration are part of the key — no axis
        can alias (the old (load, carrier-sense) tuple key would)."""
        runs = RunCache(duration_s=2.0, seed=1)
        base = runs.get(load=13800.0, carrier_sense=False)
        for overrides in (
            {"seed": 2},
            {"payload_bytes": 300},
            {"duration_s": 3.0},
        ):
            other = runs.get(
                load=13800.0, carrier_sense=False, **overrides
            )
            assert other is not base

    def test_base_overrides_via_constructor(self):
        runs = RunCache(duration_s=2.0, seed=7, payload=400)
        assert runs.base.duration_s == 2.0
        assert runs.base.seed == 7
        assert runs.base.payload_bytes == 400

    def test_unknown_field_rejected(self):
        runs = RunCache(duration_s=2.0)
        with pytest.raises(ValueError, match="unknown SimulationConfig"):
            runs.config_for(lode=13800.0)

    def test_config_with_overrides_rejected(self):
        runs = RunCache(duration_s=2.0)
        with pytest.raises(TypeError, match="not both"):
            runs.get(runs.base, load=13800.0)

    def test_invalid_duration(self):
        with pytest.raises(ValueError):
            RunCache(duration_s=0)

    def test_rejects_bad_jobs(self):
        with pytest.raises(ValueError, match="jobs"):
            RunCache(jobs=0)


class TestScenarioGrid:
    def test_grid_cross_product(self):
        scenarios = grid(load=(1000.0, 2000.0), seed=(1, 2))
        assert len(scenarios) == 4
        axes = [
            (dict(s.overrides)["load_bits_per_s_per_node"],
             dict(s.overrides)["seed"])
            for s in scenarios
        ]
        assert axes == [
            (1000.0, 1), (1000.0, 2), (2000.0, 1), (2000.0, 2)
        ]

    def test_scalar_axes_and_params(self):
        """Scalar axes broadcast; an evaluation parameter is not an
        axis, since it would not change what is simulated."""
        scenarios = grid(load=1000.0, seed=(2, 6))
        assert len(scenarios) == 2
        assert dict(scenarios[1].overrides) == {
            "load_bits_per_s_per_node": 1000.0,
            "seed": 6,
        }
        with pytest.raises(ValueError, match="unknown SimulationConfig"):
            grid(load=1000.0, eta=(2, 6))

    def test_near_miss_axis_names_rejected(self):
        """A typo'd config field must not silently simulate the base
        value while the scenario label claims otherwise."""
        for typo in ("carier_sense", "laod", "seeed"):
            with pytest.raises(ValueError, match="unknown SimulationConfig"):
                grid(**{typo: True})

    def test_scenario_config_resolution(self):
        base = SimulationConfig(seed=9)
        scenario = Scenario(
            overrides=(("load_bits_per_s_per_node", 9999.0),)
        )
        config = scenario.config(base)
        assert config.load_bits_per_s_per_node == 9999.0
        assert config.seed == 9

    def test_label(self):
        scenario = grid(load=1000.0, seed=3)[0]
        assert scenario.label() == "load=1000.0, seed=3"
        assert Scenario().label() == "base"

    def test_sweep_runs_through_cache(self):
        cache = RunCache(duration_s=2.0, seed=1)
        pairs = sweep(
            loads=(9000.0, 13800.0), carrier_sense=False
        ).run(cache)
        assert len(pairs) == 2
        for scenario, result in pairs:
            expected = scenario.config(cache.base)
            assert result.config == expected
            assert cache.get(expected) is result


class TestEvaluationHelpers:
    def test_paper_schemes_parameters(self):
        # The harness evaluates with the paper's §7.2 parameters.
        assert PAPER_ETA == 6.0
        schemes = default_schemes()
        assert schemes[1].n_fragments == 30
        assert schemes[2].eta == 6.0

    def test_labelled_evaluations_keys(self):
        runs = RunCache(duration_s=2.0, seed=1)
        result = runs.get(load=13800.0, carrier_sense=False)
        evals = labelled_evaluations(result)
        assert set(evals) == {
            "packet_crc, no postamble",
            "fragmented_crc, no postamble",
            "ppr, no postamble",
            "packet_crc, postamble",
            "fragmented_crc, postamble",
            "ppr, postamble",
        }
        postamble_only = labelled_evaluations(
            result, postamble_options=(True,)
        )
        assert set(postamble_only) == {
            "packet_crc, postamble",
            "fragmented_crc, postamble",
            "ppr, postamble",
        }


class TestFastExperiments:
    def test_fig13_collision_anatomy(self):
        result = exp_fig13.run()
        assert result.all_passed, result.summary()
        assert result.series["packet1_hints"].size == 120
        # The rendered plot names both packets.
        assert "packet 1" in result.rendered

    def test_fig13_deterministic(self):
        a = exp_fig13.run()
        b = exp_fig13.run()
        assert np.array_equal(
            a.series["packet1_hints"], b.series["packet1_hints"]
        )

    def test_fig16_pparq_sizes(self):
        result = exp_fig16.run()
        assert result.all_passed, result.summary()
        sizes = result.series["retransmit_sizes"]
        assert sizes.size > 0
        assert result.series["savings"] > 0
