"""Tests for the experiment runner CLI, registry, and public API.

The registry contracts pinned here: every ``exp_*`` module registers
exactly one spec, every spec's declared points are distinct
simulations (the body receives exactly those runs), and every result
round-trips through the JSON schema.
"""

import dataclasses
import json
import pkgutil

import numpy as np
import pytest

import repro
import repro.experiments
from repro.experiments import exp_table1, registry
from repro.experiments import runner as runner_module
from repro.experiments.common import ExperimentResult, RunCache
from repro.experiments.runner import main, run_experiments

EXPECTED_IDS = {
    "table1",
    "table2",
    "fig3",
    "fig8",
    "fig9",
    "fig10",
    "fig11",
    "fig12",
    "fig13",
    "fig14",
    "fig15",
    "fig16",
    "sweep_load",
    "waveform_capture",
    "coded_recovery",
    "sic_collision",
}


class TestPublicApi:
    def test_all_exports_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), f"missing export {name}"

    def test_version_string(self):
        assert repro.__version__.count(".") == 2

    def test_subpackage_exports_resolve(self):
        import repro.arq
        import repro.coding
        import repro.experiments
        import repro.link
        import repro.phy
        import repro.sim
        import repro.utils

        for module in (
            repro.arq,
            repro.coding,
            repro.experiments,
            repro.link,
            repro.phy,
            repro.sim,
            repro.utils,
        ):
            for name in module.__all__:
                assert hasattr(module, name), (
                    f"{module.__name__} missing export {name}"
                )


@pytest.fixture(scope="module")
def spec_runs():
    """Every registered experiment run once against one shared cache.

    Yields ``{experiment_id: (spec, result)}`` at tiny duration —
    structure-only statistics, but full pipelines.
    """
    shared = RunCache(duration_s=2.0, seed=5)
    return {
        spec.experiment_id: (spec, spec.run(shared))
        for spec in registry.all_specs()
    }


class TestRegistry:
    def test_every_paper_result_has_an_experiment(self):
        specs = registry.all_specs()
        assert {s.experiment_id for s in specs} == EXPECTED_IDS

    def test_every_module_registers_exactly_once(self):
        """One exp_* module, one spec — completeness both ways."""
        registry.discover()
        modules = {
            f"repro.experiments.{info.name}"
            for info in pkgutil.iter_modules(repro.experiments.__path__)
            if info.name.startswith("exp_")
        }
        registered = [s.run.__module__ for s in registry.all_specs()]
        assert sorted(registered) == sorted(modules)

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError, match="registered twice"):
            registry.register(
                "fig3",
                title="imposter",
                paper_expectation="none",
            )(lambda cache: None)

    def test_get_spec_unknown_id(self):
        with pytest.raises(ValueError, match="unknown experiment"):
            registry.get_spec("fig99")

    def test_specs_carry_identity(self):
        spec = registry.get_spec("fig3")
        assert spec.title
        assert spec.paper_expectation
        assert len(spec.points) == 3

    def test_declared_points_are_distinct_configs(self):
        """Each declared point is its own simulation: a repeat would be
        simulated once and handed to the body twice."""
        base = RunCache(duration_s=2.0, seed=5).base
        for spec in registry.all_specs():
            configs = spec.configs(base)
            assert len(set(configs)) == len(spec.points), spec.experiment_id

    def test_pointless_experiment_runs_without_a_cache(self):
        spec = registry.get_spec("fig16")
        assert spec.points == ()
        assert spec.run().experiment_id == "fig16"

    def test_declared_points_need_a_cache(self):
        with pytest.raises(TypeError, match="'table2' declares 1 simulation"):
            registry.get_spec("table2").run()

    def test_results_well_formed(self, spec_runs):
        for experiment_id, (spec, result) in spec_runs.items():
            assert result.experiment_id == experiment_id
            assert result.title == spec.title
            assert result.paper_expectation == spec.paper_expectation
            assert result.rendered
            assert "=== " in result.summary()


class TestNeeds:
    """``needs``: an experiment reads another's result, computed once."""

    @pytest.fixture()
    def fig16_calls(self, monkeypatch):
        """Count fig16's runs."""
        spec = registry.get_spec("fig16")
        calls = []

        def counted(cache=None, needed=None):
            calls.append(1)
            return spec.run(cache, needed)

        monkeypatch.setitem(
            registry._REGISTRY, "fig16", dataclasses.replace(spec, run=counted)
        )
        return calls

    def test_needs_name_registered_experiments_without_cycles(self):
        def closure(name, path):
            assert name not in path, f"needs cycle: {path + (name,)}"
            for need in registry.get_spec(name).needs:
                closure(need, path + (name,))

        for spec in registry.all_specs():
            closure(spec.experiment_id, ())
        assert registry.get_spec("table1").needs == ("fig16",)
        assert not hasattr(exp_table1, "exp_fig16")

    def test_needed_experiment_runs_once_and_fills_its_slot(self, fig16_calls):
        outcome = run_experiments(["table1", "fig16"], duration_s=2.0)
        assert fig16_calls == [1]
        table1, fig16 = outcome.results
        assert (table1.experiment_id, fig16.experiment_id) == ("table1", "fig16")
        assert table1.series["pp_arq_savings"] == fig16.series["savings"]

    def test_unselected_need_is_not_reported(self, fig16_calls, tmp_path, capsys):
        out_dir = tmp_path / "artifacts"
        main(["--experiment", "table1", "--quick", "--out", str(out_dir)])
        capsys.readouterr()
        assert fig16_calls == [1]
        assert sorted(p.name for p in out_dir.iterdir()) == [
            "manifest.json",
            "table1.json",
        ]

    def test_failed_need_fails_the_experiment(self, monkeypatch):
        def broken(cache=None, needed=None):
            raise RuntimeError("fig16 is broken")

        spec = registry.get_spec("fig16")
        monkeypatch.setitem(
            registry._REGISTRY, "fig16", dataclasses.replace(spec, run=broken)
        )
        outcome = run_experiments(["table1", "fig16"], duration_s=2.0)
        assert outcome.results == []
        table1, fig16 = outcome.failures
        assert (table1.experiment_id, table1.title) == ("table1", registry.get_spec("table1").title)
        assert table1.error_type == fig16.error_type == "RuntimeError"
        assert table1.error == "needed experiment 'fig16' failed: fig16 is broken"
        assert "fig16 is broken" in table1.traceback


class TestOverlap:
    """Experiments run as their points land, at any ``jobs``, with the
    same results in the same order."""

    @pytest.fixture()
    def events(self, monkeypatch):
        """Log each landed point and each fig13 run, in order."""
        log = []
        store_result = RunCache._store_result
        spec = registry.get_spec("fig13")

        def landed(self, config, result):
            log.append("point")
            store_result(self, config, result)

        def fig13(cache=None, needed=None):
            log.append("fig13")
            return spec.run(cache, needed)

        monkeypatch.setattr(RunCache, "_store_result", landed)
        monkeypatch.setitem(
            registry._REGISTRY, "fig13", dataclasses.replace(spec, run=fig13)
        )
        return log

    def test_pointless_experiment_runs_before_the_last_point(self, events):
        outcome = run_experiments(
            ["sweep_load", "fig13"], duration_s=2.0, jobs=2
        )
        assert not outcome.failures
        assert events.count("point") == 9 and events.count("fig13") == 1
        last_point = len(events) - 1 - events[::-1].index("point")
        assert events.index("fig13") < last_point

    def test_results_keep_spec_order(self, events):
        names = ["sweep_load", "fig13", "table2", "fig16"]
        parallel = run_experiments(names, duration_s=2.0, jobs=2)
        serial = run_experiments(names, duration_s=2.0, jobs=1)
        # fig13 ran during the prefetch, yet lands in its own slot.
        assert events.index("fig13") < events.index("point")
        for outcome in (parallel, serial):
            assert [r.experiment_id for r in outcome.results] == names
        assert [r.to_dict() for r in parallel.results] == [
            r.to_dict() for r in serial.results
        ]

    def test_runs_are_dropped_after_their_last_reader(self, monkeypatch):
        """A run leaves the cache once every experiment reading it,
        needed ones included, has run; a cache used directly keeps its
        runs."""
        dropped = []
        done_when_dropped = {}
        drop = RunCache.drop
        run_spec = runner_module._run_spec
        ran = []

        def counted_run_spec(spec, cache, done):
            got = run_spec(spec, cache, done)
            ran[:] = list(done)
            return got

        def counted_drop(self, config):
            dropped.append(config)
            done_when_dropped[config] = set(ran)
            drop(self, config)

        monkeypatch.setattr(RunCache, "drop", counted_drop)
        monkeypatch.setattr(runner_module, "_run_spec", counted_run_spec)
        names = ["fig9", "fig10", "table1"]
        outcome = run_experiments(names, duration_s=2.0, jobs=2)
        assert not outcome.failures
        base = RunCache(duration_s=2.0, seed=2007).base
        readers = {}
        for name in [*names, "fig16"]:
            for config in registry.get_spec(name).configs(base):
                readers.setdefault(config, set()).add(name)
        assert sorted(map(repr, dropped)) == sorted(map(repr, readers))
        for config, ids in readers.items():
            assert ids <= done_when_dropped[config]

        cache = RunCache(duration_s=2.0, seed=5)
        config = cache.config_for(load=3500.0)
        cache.get(config)
        assert cache.holds(config)

    def test_poisoned_point_fails_only_its_readers(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULTS", "fail=1.0")
        monkeypatch.setenv(
            "REPRO_EXEC", "max_attempts=2,backoff_base_s=0.001"
        )
        names = ["table2", "fig13", "fig16"]
        outcomes = [
            run_experiments(names, duration_s=2.0, jobs=jobs)
            for jobs in (1, 2)
        ]
        for outcome in outcomes:
            assert [r.experiment_id for r in outcome.results] == [
                "fig13",
                "fig16",
            ]
            [failure] = outcome.failures
            assert failure.experiment_id == "table2"
            assert failure.error_type == "InjectedFailure"
            assert failure.attempts == 3
        serial, parallel = (o.failures[0] for o in outcomes)
        assert parallel.error == serial.error


class TestPrefetchOrder:
    def test_heaviest_points_launch_first(self, monkeypatch):
        """Uncached points launch by offered load times duration,
        descending; ties keep the order they were asked for in."""
        launched = []

        class Recording:
            def __init__(self, **kwargs):
                pass

            def run(self, tasks, fn, *, on_result=None, idle=None):
                launched.extend(task.payload for task in tasks)
                return {}, []

        monkeypatch.setattr(
            "repro.experiments.common.Supervisor", Recording
        )
        cache = RunCache(duration_s=2.0, seed=1)
        configs = [
            cache.config_for(load=3500.0, seed=1),
            cache.config_for(load=13800.0, seed=1),
            cache.config_for(load=3500.0, duration_s=8.0),
            cache.config_for(load=6900.0, seed=2),
            cache.config_for(load=13800.0, seed=2),
            cache.config_for(load=6900.0, seed=3),
        ]
        cache.prefetch(configs)
        assert launched == [
            configs[2],  # 28 kbit
            configs[1],  # 27.6 kbit, asked for first of the tie
            configs[4],
            configs[3],
            configs[5],
            configs[0],
        ]


class TestJsonSchema:
    def test_round_trip_every_experiment(self, spec_runs):
        """to_dict() is valid JSON and from_dict() inverts it."""
        for experiment_id, (_, result) in spec_runs.items():
            data = result.to_dict()
            encoded = json.dumps(data, sort_keys=True)
            decoded = json.loads(encoded)
            rebuilt = ExperimentResult.from_dict(decoded)
            assert rebuilt.to_dict() == decoded, experiment_id
            assert rebuilt.experiment_id == experiment_id
            assert rebuilt.all_passed == result.all_passed

    def test_numpy_series_coerced(self):
        result = ExperimentResult(
            experiment_id="t",
            title="T",
            paper_expectation="E",
            rendered="plot",
            series={
                "arr": np.arange(3),
                "scalar": np.float64(1.5),
                "nested": {(1, 2): np.ones(2), 4: "x"},
            },
        )
        data = result.to_dict()["series"]
        assert data == {
            "arr": [0, 1, 2],
            "scalar": 1.5,
            "nested": {"1-2": [1.0, 1.0], "4": "x"},
        }

    def test_unsupported_series_value_rejected(self):
        result = ExperimentResult(
            experiment_id="t",
            title="T",
            paper_expectation="E",
            rendered="plot",
            series={"bad": object()},
        )
        with pytest.raises(TypeError, match="JSON"):
            result.to_dict()

    def test_schema_version_checked(self):
        with pytest.raises(ValueError, match="schema version"):
            ExperimentResult.from_dict({"schema_version": 99})

    def test_elapsed_excluded(self):
        """Artifacts carry no timing: only the schema-v1 keys."""
        result = ExperimentResult(
            experiment_id="t",
            title="T",
            paper_expectation="E",
            rendered="plot",
        )
        assert set(result.to_dict()) == {
            "schema_version",
            "repro_version",
            "experiment_id",
            "title",
            "paper_expectation",
            "rendered",
            "shape_checks",
            "all_passed",
            "series",
        }


class TestRunnerCli:
    def test_list(self, capsys):
        code = main(["--list"])
        out = capsys.readouterr().out
        assert code == 0
        for experiment_id in EXPECTED_IDS:
            assert experiment_id in out

    def test_single_fast_experiment(self, capsys):
        code = main(["--experiment", "fig13"])
        out = capsys.readouterr().out
        assert code == 0
        assert "fig13" in out
        assert "shape checks passed" in out

    def test_requires_selection(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main([])
        assert exit_info.value.code == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ["--all", "--experiment", "fig8"],
            ["--list", "--all"],
            ["--list", "--experiment", "fig13"],
            ["--list", "--all", "--experiment", "fig13"],
        ],
    )
    def test_selections_are_exclusive(self, argv, capsys, monkeypatch):
        """Two selections are a usage error, before anything runs."""
        monkeypatch.setattr(
            runner_module,
            "run_experiments",
            lambda *a, **k: pytest.fail("an experiment ran"),
        )
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        captured = capsys.readouterr()
        assert "not allowed with argument" in captured.err
        assert "Traceback" not in captured.err
        assert not captured.out

    def test_unknown_experiment_errors(self):
        with pytest.raises(ValueError):
            run_experiments(["nonsense"])

    def test_repeated_experiment_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["--experiment", "fig16", "fig13", "fig16"])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert "experiment 'fig16' is selected more than once" in err
        assert "Traceback" not in err

    def test_unknown_experiment_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["--experiment", "fig13", "nonsense"])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert "unknown experiment 'nonsense'" in err
        assert "Traceback" not in err

    def test_run_experiments_returns_results(self):
        outcome = run_experiments(["fig16"], duration_s=2.0)
        assert len(outcome.results) == 1
        assert outcome.results[0].experiment_id == "fig16"
        assert outcome.failures == []

    def test_format_json(self, capsys):
        code = main(["--experiment", "fig13", "--format", "json"])
        captured = capsys.readouterr()
        assert code == 0
        document = json.loads(captured.out)
        assert document["schema_version"] == 1
        assert [r["experiment_id"] for r in document["results"]] == [
            "fig13"
        ]
        assert "shape checks passed" in captured.err

    def test_out_writes_artifacts(self, tmp_path, capsys):
        out_dir = tmp_path / "artifacts"
        code = main(["--experiment", "fig13", "--out", str(out_dir)])
        capsys.readouterr()
        assert code == 0
        data = json.loads((out_dir / "fig13.json").read_text())
        assert data["experiment_id"] == "fig13"
        manifest = json.loads((out_dir / "manifest.json").read_text())
        assert manifest["experiments"]["fig13"]["file"] == "fig13.json"
        assert isinstance(
            manifest["experiments"]["fig13"]["all_passed"], bool
        )

    @pytest.mark.parametrize("flag", ["--out", "--store", "REPRO_STORE"])
    def test_unusable_directory_is_a_usage_error(
        self, flag, tmp_path, capsys, monkeypatch
    ):
        (tmp_path / "file").write_text("not a directory")
        bad = tmp_path / "file" / "x"

        def must_not_run(*args, **kwargs):
            raise AssertionError("run_experiments called despite a bad path")

        monkeypatch.setattr(
            "repro.experiments.runner.run_experiments", must_not_run
        )
        monkeypatch.delenv("REPRO_STORE", raising=False)
        argv = ["--experiment", "fig13"]
        if flag == "REPRO_STORE":
            monkeypatch.setenv("REPRO_STORE", str(bad))
        else:
            argv += [flag, str(bad)]
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert f"{flag} " in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "variable, value",
        [
            ("REPRO_EXEC", "bogus=1"),
            ("REPRO_EXEC", "max_attempts=x"),
            ("REPRO_EXEC", "max_attempts=inf"),
            ("REPRO_EXEC", "max_attempts=0"),
            ("REPRO_FAULTS", "crash=2"),
            ("REPRO_FAULTS", "crash"),
        ],
    )
    def test_malformed_exec_env_is_a_usage_error(
        self, variable, value, capsys, monkeypatch
    ):
        def must_not_run(*args, **kwargs):
            raise AssertionError("run_experiments called despite a bad knob")

        monkeypatch.setattr(
            "repro.experiments.runner.run_experiments", must_not_run
        )
        monkeypatch.setenv(variable, value)
        with pytest.raises(SystemExit) as exit_info:
            main(["--experiment", "fig13"])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert f"{variable}={value!r} is invalid" in err
        assert "Traceback" not in err


class TestRunnerStore:
    def test_store_counters_in_manifest_and_summary(
        self, tmp_path, capsys
    ):
        store_dir = tmp_path / "store"
        out_dir = tmp_path / "artifacts"
        code = main(
            [
                "--experiment",
                "fig13",
                "--store",
                str(store_dir),
                "--out",
                str(out_dir),
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert f"store {store_dir}:" in out
        manifest = json.loads((out_dir / "manifest.json").read_text())
        assert set(manifest["store"]) == {
            "hits",
            "misses",
            "writes",
            "corrupt",
        }
        assert manifest["repro_version"] == repro.__version__

    def test_repro_store_env_is_the_default(
        self, tmp_path, capsys, monkeypatch
    ):
        monkeypatch.setenv("REPRO_STORE", str(tmp_path / "env-store"))
        code = main(["--experiment", "fig13"])
        out = capsys.readouterr().out
        assert code == 0
        assert "env-store:" in out

    def test_no_store_by_default(self, capsys, monkeypatch):
        monkeypatch.delenv("REPRO_STORE", raising=False)
        code = main(["--experiment", "fig13"])
        out = capsys.readouterr().out
        assert code == 0
        assert "store " not in out

    def test_warm_store_rerun_simulates_nothing(self, tmp_path):
        from repro.store import RunStore

        cold = RunStore(tmp_path)
        run_experiments(["table2"], duration_s=2.0, store=cold)
        assert cold.counters.writes == cold.counters.misses > 0
        warm = RunStore(tmp_path)
        warm_results = run_experiments(
            ["table2"], duration_s=2.0, store=warm
        ).results
        assert warm.counters.misses == 0
        assert warm.counters.writes == 0
        assert warm.counters.hits == cold.counters.misses
        cold_results = run_experiments(["table2"], duration_s=2.0).results
        assert [r.to_dict() for r in warm_results] == [
            r.to_dict() for r in cold_results
        ]


class TestRunnerFailures:
    """The structured failure path and its exit-code contract."""

    @pytest.fixture(autouse=True)
    def _poison(self, monkeypatch):
        """Poison every simulated point; keep attempts cheap."""
        monkeypatch.delenv("REPRO_STORE", raising=False)
        monkeypatch.setenv("REPRO_FAULTS", "fail=1.0")
        monkeypatch.setenv(
            "REPRO_EXEC", "max_attempts=2,backoff_base_s=0.001"
        )

    def test_poisoned_experiment_exits_3_without_aborting(
        self, tmp_path, capsys
    ):
        # table2 needs a simulation point (poisoned); fig16 declares
        # none, so it must still run to completion.
        out_dir = tmp_path / "artifacts"
        code = main(
            [
                "--experiment",
                "table2",
                "fig16",
                "--quick",
                "--out",
                str(out_dir),
            ]
        )
        out = capsys.readouterr().out
        assert code == 3
        assert "EXECUTION FAILED" in out
        assert "InjectedFailure" in out
        assert "1 failed to execute" in out
        assert (out_dir / "fig16.json").is_file()
        assert not (out_dir / "table2.json").exists()
        manifest = json.loads((out_dir / "manifest.json").read_text())
        failure = manifest["failures"]["table2"]
        assert failure["error_type"] == "InjectedFailure"
        # max_attempts supervised tries plus the in-process rescue.
        assert failure["attempts"] == 3
        assert "InjectedFailure" in failure["traceback"]
        assert manifest["exec"]["failed"] == 1

    def test_failures_in_json_document(self, capsys):
        code = main(
            ["--experiment", "table2", "fig16", "--quick", "--format", "json"]
        )
        captured = capsys.readouterr()
        assert code == 3
        document = json.loads(captured.out)
        assert [r["experiment_id"] for r in document["results"]] == [
            "fig16"
        ]
        assert [f["experiment_id"] for f in document["failures"]] == [
            "table2"
        ]
        assert "1 failed to execute" in captured.err

    def test_run_experiments_records_failures(self):
        outcome = run_experiments(["table2"], duration_s=2.0)
        assert outcome.results == []
        assert len(outcome.failures) == 1
        failure = outcome.failures[0]
        assert failure.experiment_id == "table2"
        assert failure.error_type == "InjectedFailure"
        assert failure.attempts == 3
        assert outcome.exec_counters.failed >= 1
