"""Chaos tests: the sweep survives injected faults, bit for bit.

The acceptance gate for the supervised executor: a sweep run under
``REPRO_FAULTS`` — workers crashing, hanging, and flaking — produces
results byte-identical to a clean serial run, at every worker count;
a hung point is recovered within its timeout/retry budget; and an
interrupted or partially-failed sweep resumes from its store without
recomputing anything it already finished.

The fault schedule is a pure function of (config digest, attempt), so
every scenario here is deterministic: the same points crash, hang,
and flake every time, and the expected counters are exact.
"""

import pytest

import repro.experiments.common as common
from repro.exec import SweepExecutionError
from repro.experiments.common import RunCache
from repro.store import RunStore
from test_store import _assert_results_identical

_DURATION_S = 2.0
_SEED = 5

#: transient chaos at rates high enough that this config set (see the
#: schedule below) exercises every recovery path
_CHAOS_FAULTS = "crash=0.2,hang=0.15,flaky=0.3"
#: tight budgets sized for ~0.1 s points: a hang costs 3 s, not 60
_CHAOS_EXEC = "timeout_base_s=3,timeout_scale=0,backoff_base_s=0.01"

# The deterministic fault schedule for these four configs under
# _CHAOS_FAULTS (attempts 1..; the schedule is keyed off the config
# digest, store.config_digest, which folds in no version stamp: a store
# schema or package version bump leaves it alone, but it reshuffles
# whenever SimulationConfig gains or loses a field -- re-pick the seeds
# in _configs then so every recovery path stays exercised):
#   configs[0]: flaky, flaky, none         -> two retries, clean 3rd
#   configs[1]: flaky, crash, hang, flaky  -> supervised budget spent,
#                                             in-process rescue
#   configs[2]: crash, none                -> one retry, clean 2nd
#   configs[3]: none                       -> clean first try
_EXPECTED_CHAOS_COUNTERS = {
    "completed": 4,
    "retries": 6,
    "timeouts": 1,
    "worker_deaths": 2,
    "rescued": 1,
    "degraded": 0,
    "failed": 0,
}


def _configs(cache):
    return [
        cache.config_for(load=load, seed=seed)
        for load in (3500.0, 13800.0)
        for seed in (1516, 407)
    ]


@pytest.fixture(autouse=True)
def _clean_exec_env(monkeypatch):
    """Fault/exec knobs leak in from nothing but the test itself."""
    monkeypatch.delenv("REPRO_FAULTS", raising=False)
    monkeypatch.delenv("REPRO_EXEC", raising=False)


@pytest.fixture(scope="module")
def clean_runs():
    """The ground truth: the sweep run serially with no faults."""
    with pytest.MonkeyPatch.context() as mp:
        mp.delenv("REPRO_FAULTS", raising=False)
        mp.delenv("REPRO_EXEC", raising=False)
        cache = RunCache(duration_s=_DURATION_S, seed=_SEED)
        cache.prefetch(_configs(cache))
        assert not cache.exec_counters.anomalous
    return cache


class TestChaosDeterminism:
    @pytest.mark.parametrize("jobs", [1, 2, 4])
    def test_faulted_run_bit_identical_to_clean_serial(
        self, jobs, clean_runs, monkeypatch
    ):
        monkeypatch.setenv("REPRO_FAULTS", _CHAOS_FAULTS)
        monkeypatch.setenv("REPRO_EXEC", _CHAOS_EXEC)
        cache = RunCache(duration_s=_DURATION_S, seed=_SEED, jobs=jobs)
        configs = _configs(cache)
        cache.prefetch(configs)
        # The chaos actually happened — and identically at every
        # worker count, because the schedule is keyed by config.
        assert cache.exec_counters.as_dict() == _EXPECTED_CHAOS_COUNTERS
        for config in configs:
            _assert_results_identical(
                clean_runs.get(config), cache.get(config)
            )

    def test_hung_point_recovered_within_budget(
        self, clean_runs, monkeypatch
    ):
        """hang=1.0: every supervised attempt wedges; the point still
        completes — two timeout kills, then the in-process rescue."""
        monkeypatch.setenv("REPRO_FAULTS", "hang=1.0")
        monkeypatch.setenv(
            "REPRO_EXEC",
            "max_attempts=2,timeout_base_s=1,timeout_scale=0,"
            "backoff_base_s=0.01",
        )
        cache = RunCache(duration_s=_DURATION_S, seed=_SEED)
        config = _configs(cache)[0]
        result = cache.get(config)
        _assert_results_identical(clean_runs.get(config), result)
        counters = cache.exec_counters
        assert counters.timeouts == 2
        assert counters.retries == 1
        assert counters.rescued == 1
        assert counters.completed == 1


class TestWarmResume:
    def test_interrupted_sweep_resumes_without_recomputation(
        self, clean_runs, tmp_path, monkeypatch
    ):
        """A sweep killed partway resumes from the store: points the
        first run finished are loaded, never re-simulated."""
        first = RunCache(
            duration_s=_DURATION_S, seed=_SEED, store=RunStore(tmp_path)
        )
        configs = _configs(first)
        first.prefetch(configs[:2])  # ... then the run was killed

        simulated = []
        real = common._simulate_config

        def counting(config):
            simulated.append(config)
            return real(config)

        monkeypatch.setattr(common, "_simulate_config", counting)
        resumed = RunCache(
            duration_s=_DURATION_S, seed=_SEED, store=RunStore(tmp_path)
        )
        resumed.prefetch(configs)
        assert simulated == configs[2:]
        for config in configs:
            _assert_results_identical(
                clean_runs.get(config), resumed.get(config)
            )

    def test_completed_points_survive_a_poisoned_sibling(
        self, clean_runs, tmp_path, monkeypatch
    ):
        """Write-back is per point: a permanent failure loses only its
        own point, and a later clean run completes just the gap."""
        # fail=0.5 deterministically poisons exactly configs[1] (all
        # of its attempts and the rescue draw under 0.5) while the
        # other three points complete.
        monkeypatch.setenv("REPRO_FAULTS", "fail=0.5")
        monkeypatch.setenv(
            "REPRO_EXEC", "max_attempts=2,backoff_base_s=0.01"
        )
        store = RunStore(tmp_path)
        cache = RunCache(
            duration_s=_DURATION_S, seed=_SEED, store=store
        )
        configs = _configs(cache)
        with pytest.raises(SweepExecutionError) as excinfo:
            cache.prefetch(configs)
        assert len(excinfo.value.failures) == 1
        failure = excinfo.value.failures[0]
        assert failure.error_type == "InjectedFailure"
        assert failure.task.payload == configs[1]
        # Every completed point was written back before the sweep
        # raised.
        assert store.counters.writes == 3

        # The failure is negatively cached: asking again re-raises
        # immediately, without burning the retry budget.
        def boom(_config):
            raise AssertionError("re-simulated a known-bad point")

        monkeypatch.setattr(common, "_simulate_config", boom)
        with pytest.raises(SweepExecutionError):
            cache.prefetch(configs)

    def test_clean_rerun_fills_only_the_gap(
        self, clean_runs, tmp_path, monkeypatch
    ):
        """After a partially-failed faulted sweep, a clean rerun loads
        the survivors from the store and simulates only the casualty —
        and the merged sweep matches the clean ground truth bit for
        bit."""
        monkeypatch.setenv("REPRO_FAULTS", "fail=0.5")
        monkeypatch.setenv(
            "REPRO_EXEC", "max_attempts=2,backoff_base_s=0.01"
        )
        faulted = RunCache(
            duration_s=_DURATION_S, seed=_SEED, store=RunStore(tmp_path)
        )
        configs = _configs(faulted)
        with pytest.raises(SweepExecutionError):
            faulted.prefetch(configs)

        monkeypatch.delenv("REPRO_FAULTS")
        monkeypatch.delenv("REPRO_EXEC")
        store = RunStore(tmp_path)
        rerun = RunCache(
            duration_s=_DURATION_S, seed=_SEED, store=store
        )
        rerun.prefetch(configs)
        assert store.counters.hits == 3
        assert store.counters.misses == 1
        assert store.counters.writes == 1
        for config in configs:
            _assert_results_identical(
                clean_runs.get(config), rerun.get(config)
            )
