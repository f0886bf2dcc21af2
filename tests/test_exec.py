"""Unit tests for the supervised executor (``repro.exec``).

Covers the policy/fault-plan data layer (strict spec parsing,
deterministic keyed decisions and backoff schedules), serial and
process-supervised execution, every injected fault kind, the rescue
and degradation ladders, and the per-result sanitizer-ledger merge.

Timings here are deliberately tiny (millisecond backoffs, sub-second
timeouts); the realistic chaos scenarios live in ``test_chaos.py``.
"""

import hashlib
import resource
import time

import pytest

from repro.exec import (
    ExecCounters,
    ExecPolicy,
    FaultPlan,
    InjectedFailure,
    Supervisor,
    Task,
    parse_spec,
    preferred_mp_context,
)
from repro.utils import sanitize
from repro.utils.rng import keyed_rng

#: fast schedules so retry-heavy tests stay quick
_FAST = ExecPolicy(max_attempts=2, backoff_base_s=0.001)
_NO_FAULTS = FaultPlan()


def _double(x):
    return 2 * x


def _fail_on_two(x):
    if x == 2:
        raise ValueError("payload two is poisoned")
    return x


def _sleep(seconds):
    time.sleep(seconds)
    return seconds


def _ledger_worker(x):
    """Mint a stream key, then fail for one payload (fork-pickleable)."""
    keyed_rng(7, "test/exec-ledger", x)
    if x == 4:
        time.sleep(0.2)
        raise RuntimeError("boom after minting a key")
    return x


def _tasks(payloads, *, timeout_s=60.0):
    return [
        Task(task_id=i, payload=p, timeout_s=timeout_s)
        for i, p in enumerate(payloads)
    ]


class TestParseSpec:
    def test_parses_and_strips(self):
        parsed = parse_spec(
            " a = 1 , b=2.5 ,", what="X", fields={"a", "b"}
        )
        assert parsed == {"a": 1.0, "b": 2.5}

    def test_empty_spec(self):
        assert parse_spec("", what="X", fields={"a"}) == {}

    def test_unknown_field_raises(self):
        with pytest.raises(ValueError, match="unknown X field 'c'"):
            parse_spec("c=1", what="X", fields={"a"})

    def test_duplicate_field_raises(self):
        with pytest.raises(ValueError, match="duplicate"):
            parse_spec("a=1,a=2", what="X", fields={"a"})

    def test_malformed_entry_raises(self):
        with pytest.raises(ValueError, match="malformed"):
            parse_spec("a", what="X", fields={"a"})

    def test_non_numeric_value_raises(self):
        with pytest.raises(ValueError, match="non-numeric"):
            parse_spec("a=fast", what="X", fields={"a"})


class TestExecPolicy:
    def test_timeout_scales_with_duration(self):
        policy = ExecPolicy(timeout_base_s=10.0, timeout_scale=3.0)
        assert policy.timeout_for(40.0) == 10.0 + 3.0 * 40.0

    def test_backoff_deterministic_and_bounded(self):
        policy = ExecPolicy(backoff_base_s=0.1)
        key = b"\x01" * 32
        for attempt in (1, 2, 3):
            # Doubling per attempt, jittered by up to half again.
            base = 0.1 * 2.0 ** (attempt - 1)
            delay = policy.backoff_s(key, attempt)
            assert delay == policy.backoff_s(key, attempt)
            assert base <= delay <= base * 1.5

    def test_from_spec_coerces_integer_knobs(self):
        policy = ExecPolicy.from_spec("max_attempts=2,timeout_base_s=5")
        assert policy.max_attempts == 2
        assert isinstance(policy.max_attempts, int)
        assert policy.timeout_base_s == 5.0

    def test_from_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_EXEC", "max_attempts=7")
        assert ExecPolicy.from_env().max_attempts == 7
        monkeypatch.delenv("REPRO_EXEC")
        assert ExecPolicy.from_env() == ExecPolicy()

    def test_validation(self):
        with pytest.raises(ValueError, match="max_attempts"):
            ExecPolicy(max_attempts=0)


class TestFaultPlan:
    def test_inactive_by_default(self):
        plan = FaultPlan()
        assert not plan.active
        assert plan.decide(b"k", 1) is None

    def test_probability_validation(self):
        with pytest.raises(ValueError, match="outside"):
            FaultPlan(crash=1.5)
        with pytest.raises(ValueError, match="outside"):
            FaultPlan(flaky=-0.1)
        with pytest.raises(ValueError, match="sum"):
            FaultPlan(crash=0.6, hang=0.6)

    def test_decide_is_deterministic(self):
        plan = FaultPlan(crash=0.25, hang=0.25, flaky=0.25, fail=0.25)
        decisions = [plan.decide(bytes([i]) * 32, 1) for i in range(32)]
        assert decisions == [
            plan.decide(bytes([i]) * 32, 1) for i in range(32)
        ]
        # Every kind shows up across enough keys at these rates.
        assert {"crash", "hang", "flaky", "fail"} <= set(decisions)

    def test_certain_kinds(self):
        assert FaultPlan(crash=1.0).decide(b"k", 3) == "crash"
        assert FaultPlan(fail=1.0).decide(b"k", 3) == "fail"

    def test_transient_suspension_keeps_fail(self):
        plan = FaultPlan(crash=1.0)
        assert plan.decide(b"k", 1, transient=False) is None
        persistent = FaultPlan(fail=1.0)
        assert persistent.decide(b"k", 1, transient=False) == "fail"

    def test_needs_processes(self):
        assert FaultPlan(crash=0.1).needs_processes
        assert FaultPlan(hang=0.1).needs_processes
        assert not FaultPlan(flaky=1.0).needs_processes
        assert not FaultPlan(fail=1.0).needs_processes

    def test_from_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULTS", "flaky=0.5")
        assert FaultPlan.from_env() == FaultPlan(flaky=0.5)
        monkeypatch.delenv("REPRO_FAULTS")
        assert not FaultPlan.from_env().active


class TestSupervisorSerial:
    def test_empty_task_list(self):
        results, failures = Supervisor(faults=_NO_FAULTS).run([], _double)
        assert results == {}
        assert failures == []

    def test_success_and_emit_order(self):
        emitted = []
        supervisor = Supervisor(faults=_NO_FAULTS)
        results, failures = supervisor.run(
            _tasks([10, 20, 30]),
            _double,
            on_result=lambda task, result: emitted.append(
                (task.task_id, result)
            ),
        )
        assert failures == []
        assert results == {0: 20, 1: 40, 2: 60}
        assert emitted == [(0, 20), (1, 40), (2, 60)]
        assert supervisor.counters.completed == 3
        assert not supervisor.counters.anomalous

    def test_flaky_injection_retries_then_rescues(self):
        supervisor = Supervisor(
            policy=ExecPolicy(max_attempts=3, backoff_base_s=0.001),
            faults=FaultPlan(flaky=1.0),
        )
        results, failures = supervisor.run(_tasks([5]), _double)
        assert failures == []
        assert results == {0: 10}
        counters = supervisor.counters
        assert counters.retries == 2  # attempts 1 and 2 flaked
        assert counters.rescued == 1  # attempt 3 flaked too; rescue ran
        assert counters.completed == 1

    def test_real_error_fails_after_all_attempts(self):
        supervisor = Supervisor(policy=_FAST, faults=_NO_FAULTS)
        results, failures = supervisor.run(_tasks([1, 2, 3]), _fail_on_two)
        assert results == {0: 1, 2: 3}
        assert len(failures) == 1
        failure = failures[0]
        assert failure.task.task_id == 1
        assert failure.error_type == "ValueError"
        assert "poisoned" in failure.error
        assert "ValueError" in failure.traceback
        assert failure.attempts == _FAST.max_attempts + 1
        assert supervisor.counters.failed == 1
        assert supervisor.counters.completed == 2

    def test_persistent_injection_fails(self):
        supervisor = Supervisor(policy=_FAST, faults=FaultPlan(fail=1.0))
        results, failures = supervisor.run(_tasks([5]), _double)
        assert results == {}
        assert [f.error_type for f in failures] == ["InjectedFailure"]

    def test_rejects_bad_jobs(self):
        with pytest.raises(ValueError, match="jobs"):
            Supervisor(jobs=0)


class TestSupervisorProcesses:
    """Process supervision: crash isolation, timeouts, real pipes."""

    def test_parallel_success(self):
        supervisor = Supervisor(jobs=4, faults=_NO_FAULTS)
        results, failures = supervisor.run(_tasks(range(8)), _double)
        assert failures == []
        assert results == {i: 2 * i for i in range(8)}
        assert supervisor.counters.completed == 8
        assert not supervisor.counters.anomalous

    def test_parent_sleeps_while_every_slot_is_busy(self):
        """The parent must block, not spin, while its workers run.

        Four 0.4 s tasks on two slots keep the parent waiting ~0.8 s;
        a zero-timeout poll loop burns about that much CPU.  CPU time,
        not wall time, so a loaded host cannot make this flaky.
        """
        supervisor = Supervisor(jobs=2, faults=_NO_FAULTS)
        before = resource.getrusage(resource.RUSAGE_SELF)
        results, failures = supervisor.run(_tasks([0.4] * 4), _sleep)
        after = resource.getrusage(resource.RUSAGE_SELF)
        assert failures == []
        assert results == {i: 0.4 for i in range(4)}
        cpu_s = (after.ru_utime - before.ru_utime) + (
            after.ru_stime - before.ru_stime
        )
        assert cpu_s < 0.25

    def test_parent_sleeps_when_idle_has_no_work(self):
        """An ``idle`` with nothing to do leaves the parent blocking."""
        supervisor = Supervisor(jobs=2, faults=_NO_FAULTS)
        calls = []
        before = resource.getrusage(resource.RUSAGE_SELF)
        results, failures = supervisor.run(
            _tasks([0.4] * 4),
            _sleep,
            idle=lambda: calls.append(1) is not None,
        )
        after = resource.getrusage(resource.RUSAGE_SELF)
        assert failures == []
        assert results == {i: 0.4 for i in range(4)}
        assert calls  # asked, answered "nothing", then blocked
        cpu_s = (after.ru_utime - before.ru_utime) + (
            after.ru_stime - before.ru_stime
        )
        assert cpu_s < 0.25

    def test_idle_work_runs_beside_the_workers(self):
        """The parent's own units run while its workers do; every task
        still completes, and a finished worker is refilled between
        units rather than after all of them."""
        supervisor = Supervisor(jobs=2, faults=_NO_FAULTS)
        units = list(range(6))
        done = []
        finished = []

        def idle():
            if not units:
                return False
            units.pop()
            time.sleep(0.1)
            done.append(len(finished))
            return True

        results, failures = supervisor.run(
            _tasks([0.15] * 6),
            _sleep,
            on_result=lambda task, result: finished.append(task.task_id),
            idle=idle,
        )
        assert failures == []
        assert results == {i: 0.15 for i in range(6)}
        assert not units and len(done) == 6
        # The first unit starts before any worker could finish; later
        # units see results collected between them.
        assert done[0] == 0 and done[-1] > 0
        assert supervisor.counters.completed == 6
        assert not supervisor.counters.anomalous

    def test_serial_runs_never_call_idle(self):
        supervisor = Supervisor(jobs=1, faults=_NO_FAULTS)
        results, _ = supervisor.run(
            _tasks([1, 2]), _double, idle=lambda: pytest.fail("called")
        )
        assert results == {0: 2, 1: 4}

    def test_crash_isolation_and_rescue(self):
        supervisor = Supervisor(
            jobs=2, policy=_FAST, faults=FaultPlan(crash=1.0)
        )
        results, failures = supervisor.run(_tasks([1, 2]), _double)
        assert failures == []
        assert results == {0: 2, 1: 4}
        counters = supervisor.counters
        assert counters.worker_deaths == 4  # 2 tasks x 2 attempts
        assert counters.retries == 2
        assert counters.rescued == 2
        assert counters.completed == 2

    def test_hang_timeout_and_rescue(self):
        supervisor = Supervisor(
            jobs=1,  # hang plan forces processes even at jobs=1
            policy=ExecPolicy(max_attempts=2, backoff_base_s=0.001),
            faults=FaultPlan(hang=1.0),
        )
        start = time.monotonic()
        results, failures = supervisor.run(
            _tasks([3], timeout_s=0.5), _double
        )
        elapsed = time.monotonic() - start
        assert failures == []
        assert results == {0: 6}
        counters = supervisor.counters
        assert counters.timeouts == 2
        assert counters.rescued == 1
        # Two 0.5 s deadlines plus backoff and kill grace, nowhere
        # near the 3600 s the injected hang sleeps for.
        assert elapsed < 30.0

    def test_persistent_injection_fails_in_process_mode(self):
        supervisor = Supervisor(
            jobs=2, policy=_FAST, faults=FaultPlan(fail=1.0)
        )
        results, failures = supervisor.run(_tasks([1, 2]), _double)
        assert results == {}
        assert sorted(f.task.task_id for f in failures) == [0, 1]
        assert {f.error_type for f in failures} == {"InjectedFailure"}
        assert all(f.attempts == 3 for f in failures)

    def test_worker_ledgers_merge_per_result(self, monkeypatch):
        """A late failure cannot drop an earlier success's ledger."""
        monkeypatch.setenv("REPRO_SANITIZE", "1")
        supervisor = Supervisor(
            jobs=2,
            policy=ExecPolicy(max_attempts=1, backoff_base_s=0.001),
            faults=_NO_FAULTS,
        )
        results, failures = supervisor.run(
            _tasks([3, 4]), _ledger_worker
        )
        assert results == {0: 3}
        assert [f.error_type for f in failures] == ["RuntimeError"]
        # The key minted inside the *successful* worker (payload 3)
        # reached the parent ledger even though a sibling later failed.
        digest = hashlib.sha256(b"7:test/exec-ledger:3").digest()
        assert digest[:16] in sanitize.ledger_snapshot()


class _RefusingContext:
    """A multiprocessing context whose spawns always fail."""

    def __init__(self):
        self._real = preferred_mp_context()

    def Pipe(self, duplex=True):
        return self._real.Pipe(duplex)

    def Process(self, *args, **kwargs):
        raise OSError("fork refused (injected)")


class TestDegradation:
    def test_spawn_failures_degrade_to_serial(self):
        supervisor = Supervisor(
            jobs=2,
            policy=ExecPolicy(backoff_base_s=0.001),
            faults=_NO_FAULTS,
            context=_RefusingContext(),
        )
        results, failures = supervisor.run(_tasks([1, 2, 3]), _double)
        assert failures == []
        assert results == {0: 2, 1: 4, 2: 6}
        counters = supervisor.counters
        assert counters.degraded == 3
        assert counters.completed == 3

    def test_degraded_mode_suspends_transient_faults(self):
        """crash=1.0 with no workers must not kill the caller."""
        supervisor = Supervisor(
            jobs=2,
            policy=ExecPolicy(backoff_base_s=0.001),
            faults=FaultPlan(crash=1.0),
            context=_RefusingContext(),
        )
        results, failures = supervisor.run(_tasks([9]), _double)
        assert failures == []
        assert results == {0: 18}
        assert supervisor.counters.degraded == 1

    def test_degraded_mode_keeps_persistent_failures(self):
        supervisor = Supervisor(
            jobs=2,
            policy=ExecPolicy(max_attempts=2, backoff_base_s=0.001),
            faults=FaultPlan(fail=1.0),
            context=_RefusingContext(),
        )
        results, failures = supervisor.run(_tasks([9]), _double)
        assert results == {}
        assert [f.error_type for f in failures] == ["InjectedFailure"]


class TestExecCounters:
    def test_dict_and_summary(self):
        counters = ExecCounters(completed=3, retries=1)
        assert counters.as_dict()["completed"] == 3
        assert counters.as_dict()["retries"] == 1
        assert "3 completed" in counters.summary()
        assert "1 retries" in counters.summary()

    def test_anomalous(self):
        assert not ExecCounters(completed=100).anomalous
        assert ExecCounters(retries=1).anomalous
        assert ExecCounters(failed=1).anomalous


def test_injected_failure_is_runtime_error():
    assert issubclass(InjectedFailure, RuntimeError)
