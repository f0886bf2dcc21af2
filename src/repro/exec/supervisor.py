"""Supervised task execution: per-task processes, timeouts, retries.

The executor behind :meth:`repro.experiments.common.RunCache.prefetch`.
Where a bare ``Pool.map`` loses the whole batch to one bad worker,
this supervisor gives every task its own process and result pipe, so
failures are isolated to the point that hit them:

* a worker that **dies** (segfault, OOM kill, injected crash) is
  detected by EOF on its pipe; only its in-flight task is retried;
* a worker that **hangs** is killed when its per-task deadline — scaled
  from the simulated duration by the :class:`~repro.exec.policy.
  ExecPolicy` — expires, and the task is reassigned;
* a task that **raises** is retried up to ``max_attempts`` times with
  keyed-jitter exponential backoff (deterministic schedules);
* a task that exhausts its attempts gets one final in-process *rescue*
  attempt with transient injected faults suspended, so chaos runs
  complete even under ``flaky=1.0``; only a rescue failure becomes a
  :class:`TaskFailure`;
* repeated **spawn failures** (fork refusing outright) degrade the
  whole run to in-process serial execution rather than aborting.

Completed results are delivered through ``on_result`` the moment they
arrive — the run cache uses that to write every point back to its
store immediately, so an interrupted sweep resumes warm.  Where the
parent would wait for its workers it calls ``idle`` instead, one unit
of its own work at a time — the runner uses that to run the
experiments whose points have landed.  Worker
sanitizer ledgers ride along with each result message and are merged
per result, never per batch.

Pipe lifetime is the one subtle invariant: the parent closes its copy
of each task's writer end immediately after the fork and before any
subsequent launch, so the only process holding a task's writer is its
own worker — EOF on the reader therefore means exactly "this worker is
gone", regardless of how many other children are alive.
"""

from __future__ import annotations

import multiprocessing
import sys
import time
import traceback
from dataclasses import dataclass, fields
from multiprocessing import connection as mp_connection
from typing import Any, Callable, Iterable

from repro.exec.faults import FaultPlan, inject
from repro.exec.policy import MAX_SPAWN_FAILURES, ExecPolicy
from repro.utils import sanitize

#: grace period between SIGTERM and SIGKILL for a timed-out worker
_TERM_GRACE_S = 5.0


def preferred_mp_context() -> multiprocessing.context.BaseContext:
    """``fork`` on Linux (cheap; no re-import), else ``spawn``.

    macOS also *offers* fork, but forking a process with initialised
    BLAS/framework state is unsafe there (the reason CPython switched
    the macOS default to spawn), so only Linux takes the fast path.
    """
    use_fork = sys.platform == "linux" and (
        "fork" in multiprocessing.get_all_start_methods()
    )
    return multiprocessing.get_context("fork" if use_fork else "spawn")


@dataclass(frozen=True)
class Task:
    """One supervised unit of work."""

    task_id: int
    payload: Any
    #: stable identity bytes keying fault/backoff streams (the run
    #: cache passes the config's content digest); may be empty
    key: bytes = b""
    #: per-attempt wall-clock budget
    timeout_s: float = 60.0
    label: str = ""

    def describe(self) -> str:
        return self.label or f"task {self.task_id}"


@dataclass(frozen=True)
class TaskFailure:
    """A task that failed permanently (every attempt plus the rescue)."""

    task: Task
    error_type: str
    error: str
    traceback: str
    attempts: int


@dataclass
class ExecCounters:
    """Observability counters, mirroring ``StoreCounters``."""

    completed: int = 0
    retries: int = 0
    timeouts: int = 0
    worker_deaths: int = 0
    rescued: int = 0
    degraded: int = 0
    failed: int = 0

    @property
    def anomalous(self) -> bool:
        """Whether anything other than clean completions happened."""
        return any(
            getattr(self, f.name) for f in fields(self) if f.name != "completed"
        )

    def as_dict(self) -> dict[str, int]:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    def summary(self) -> str:
        return ", ".join(
            f"{getattr(self, f.name)} {f.name}" for f in fields(self)
        )


class SweepExecutionError(RuntimeError):
    """A sweep had tasks that failed permanently."""

    def __init__(self, failures: Iterable[TaskFailure]) -> None:
        self.failures = list(failures)
        first = self.failures[0]
        names = ", ".join(f.task.describe() for f in self.failures)
        super().__init__(
            f"{len(self.failures)} task(s) failed permanently ({names}); "
            f"first error after {first.attempts} attempts: "
            f"{first.error_type}: {first.error}"
        )


def _safe_send(conn: mp_connection.Connection, message: Any) -> None:
    """Send, tolerating a parent that already gave up on us."""
    try:
        conn.send(message)
    except (BrokenPipeError, OSError):
        pass
    finally:
        conn.close()


def _worker_entry(
    conn: mp_connection.Connection,
    fn: Callable[[Any], Any],
    payload: Any,
    key: bytes,
    attempt: int,
    plan: FaultPlan | None,
) -> None:
    """Worker body: inject any scheduled fault, run the task, report.

    The sanitizer ledger snapshot rides along with *both* outcomes, so
    the parent merges shard ledgers per result — an error on one task
    cannot drop the keys a previous success in this process minted.
    """
    try:
        if plan is not None:
            inject(plan.decide(key, attempt))
        result = fn(payload)
    except Exception as exc:
        _safe_send(
            conn,
            (
                "error",
                type(exc).__name__,
                str(exc),
                sanitize.ledger_snapshot(),
            ),
        )
        return
    _safe_send(conn, ("ok", result, sanitize.ledger_snapshot()))


def _kill(proc: Any) -> None:
    """Terminate a worker, escalating to SIGKILL after a grace period."""
    proc.terminate()
    proc.join(_TERM_GRACE_S)
    if proc.is_alive():
        proc.kill()
        proc.join()


@dataclass
class _Running:
    proc: Any
    reader: mp_connection.Connection
    task: Task
    attempt: int
    deadline: float


class Supervisor:
    """Run tasks under supervision, serially or across processes.

    ``jobs`` bounds worker concurrency.  Process supervision is used
    when ``jobs > 1`` *or* the fault plan injects crashes/hangs (which
    must not take down the caller); otherwise tasks run in-process.
    ``policy``/``faults`` default to the ``REPRO_EXEC``/``REPRO_FAULTS``
    environment; ``counters`` lets callers accumulate across runs, and
    ``context`` is injectable for tests (e.g. a context whose spawns
    fail).
    """

    def __init__(
        self,
        *,
        jobs: int = 1,
        policy: ExecPolicy | None = None,
        faults: FaultPlan | None = None,
        counters: ExecCounters | None = None,
        context: Any | None = None,
    ) -> None:
        if jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {jobs}")
        self.jobs = int(jobs)
        self.policy = policy if policy is not None else ExecPolicy.from_env()
        self.faults = faults if faults is not None else FaultPlan.from_env()
        self.counters = counters if counters is not None else ExecCounters()
        self._context = context

    def run(
        self,
        tasks: Iterable[Task],
        fn: Callable[[Any], Any],
        *,
        on_result: Callable[[Task, Any], None] | None = None,
        idle: Callable[[], bool] | None = None,
    ) -> tuple[dict[int, Any], list[TaskFailure]]:
        """Execute every task; return ``(results, failures)``.

        ``results`` maps ``task_id`` to the task's return value;
        ``failures`` lists tasks that failed permanently.  The run
        always drains — one poisoned task never aborts the rest —
        and ``on_result`` fires the moment each result exists.

        ``idle`` is the parent's own work while its workers run: where
        the parent would block waiting for a worker, it calls
        ``idle()``, which does one bounded unit of work and returns
        whether it did any; the parent then polls its workers again,
        so a finished worker's slot is refilled after at most one unit.
        Only once ``idle`` returns ``False`` does the parent block.
        In-process runs never call it.
        """
        tasks = list(tasks)
        results: dict[int, Any] = {}
        failures: list[TaskFailure] = []
        if not tasks:
            return results, failures
        emit = on_result if on_result is not None else (lambda t, r: None)
        use_processes = self.jobs > 1 or (
            self.faults.active and self.faults.needs_processes
        )
        if use_processes:
            self._run_pool(
                tasks, fn, emit, results, failures, idle or (lambda: False)
            )
        else:
            for task in tasks:
                self._run_one_serial(
                    task, fn, emit, results, failures, degraded=False
                )
        return results, failures

    # -- serial execution ----------------------------------------------

    def _run_one_serial(
        self,
        task: Task,
        fn: Callable[[Any], Any],
        emit: Callable[[Task, Any], None],
        results: dict[int, Any],
        failures: list[TaskFailure],
        *,
        degraded: bool,
    ) -> None:
        """All of one task's attempts, in-process.

        In degraded mode (the pool gave up spawning workers) transient
        fault kinds are suspended — a crash or hang injected in-process
        would defeat the point of degrading — while persistent ``fail``
        injections still apply, identically to every other mode.
        """
        for attempt in range(1, self.policy.max_attempts + 1):
            try:
                if self.faults.active:
                    inject(
                        self.faults.decide(
                            task.key, attempt, transient=not degraded
                        )
                    )
                result = fn(task.payload)
            except Exception:
                if attempt < self.policy.max_attempts:
                    self.counters.retries += 1
                    time.sleep(self.policy.backoff_s(task.key, attempt))
                    continue
                self._rescue(task, fn, emit, results, failures)
                return
            self._complete(task, result, emit, results, degraded=degraded)
            return

    def _rescue(
        self,
        task: Task,
        fn: Callable[[Any], Any],
        emit: Callable[[Task, Any], None],
        results: dict[int, Any],
        failures: list[TaskFailure],
    ) -> None:
        """Final in-process attempt after supervision gave up.

        Transient injected faults are suspended here — this is the
        graceful-degradation backstop that guarantees completion under
        arbitrarily high transient fault rates — so only persistent
        injections and real (reproducible) errors can still fail.
        """
        attempts = self.policy.max_attempts + 1
        try:
            if self.faults.active:
                inject(
                    self.faults.decide(task.key, attempts, transient=False)
                )
            result = fn(task.payload)
        except Exception as exc:
            self.counters.failed += 1
            failures.append(
                TaskFailure(
                    task=task,
                    error_type=type(exc).__name__,
                    error=str(exc),
                    traceback=traceback.format_exc(),
                    attempts=attempts,
                )
            )
            return
        self.counters.rescued += 1
        self._complete(task, result, emit, results)

    def _complete(
        self,
        task: Task,
        result: Any,
        emit: Callable[[Task, Any], None],
        results: dict[int, Any],
        *,
        degraded: bool = False,
    ) -> None:
        self.counters.completed += 1
        if degraded:
            self.counters.degraded += 1
        results[task.task_id] = result
        emit(task, result)

    # -- process supervision -------------------------------------------

    def _run_pool(
        self,
        tasks: list[Task],
        fn: Callable[[Any], Any],
        emit: Callable[[Task, Any], None],
        results: dict[int, Any],
        failures: list[TaskFailure],
        idle: Callable[[], bool],
    ) -> None:
        ctx = (
            self._context
            if self._context is not None
            else preferred_mp_context()
        )
        plan = self.faults if self.faults.active else None
        #: (task, attempt, earliest monotonic launch time)
        pending: list[tuple[Task, int, float]] = [
            (task, 1, 0.0) for task in tasks
        ]
        running: dict[mp_connection.Connection, _Running] = {}
        spawn_failures = 0
        degrade = False

        while running or (pending and not degrade):
            now = time.monotonic()
            while pending and not degrade and len(running) < self.jobs:
                index = next(
                    (
                        i
                        for i, (_, _, ready_at) in enumerate(pending)
                        if ready_at <= now
                    ),
                    None,
                )
                if index is None:
                    break
                task, attempt, _ = pending.pop(index)
                if self._launch(ctx, task, attempt, fn, plan, running):
                    continue
                spawn_failures += 1
                if spawn_failures >= MAX_SPAWN_FAILURES:
                    degrade = True
                pending.append(
                    (task, attempt, now + self.policy.backoff_s(task.key, attempt))
                )

            if running:
                # A finished worker is collected before the parent
                # takes on its own work; with none finished, one unit
                # of that work replaces the wait, and the loop polls
                # again (the deadline sweep below still runs).
                ready = mp_connection.wait(list(running), timeout=0)
                if not ready and not idle():
                    timeout = max(
                        0.0,
                        min(r.deadline for r in running.values())
                        - time.monotonic(),
                    )
                    # Never poll while every slot is busy: a pending
                    # ready time only matters when there is a free slot
                    # to launch into, and fresh tasks (ready_at 0.0)
                    # would otherwise make this a zero-timeout spin
                    # beside the workers.
                    if pending and not degrade and len(running) < self.jobs:
                        next_ready = min(ra for (_, _, ra) in pending)
                        timeout = min(
                            timeout, max(0.0, next_ready - time.monotonic())
                        )
                    ready = mp_connection.wait(list(running), timeout=timeout)
            elif pending and not degrade:
                if not idle():
                    next_ready = min(ra for (_, _, ra) in pending)
                    time.sleep(max(0.0, next_ready - time.monotonic()))
                continue
            else:
                break

            for reader in ready:
                info = running.pop(reader)  # type: ignore[index]
                try:
                    message = reader.recv()  # type: ignore[union-attr]
                except Exception:
                    # EOF or a torn message: the worker died mid-task.
                    message = None
                reader.close()  # type: ignore[union-attr]
                info.proc.join()
                if message is None:
                    self.counters.worker_deaths += 1
                    self._after_failed_attempt(
                        info, pending, fn, emit, results, failures
                    )
                elif message[0] == "ok":
                    _, result, ledger = message
                    sanitize.merge(ledger)
                    self._complete(info.task, result, emit, results)
                else:
                    _, _etype, _error, ledger = message
                    sanitize.merge(ledger)
                    self._after_failed_attempt(
                        info, pending, fn, emit, results, failures
                    )

            now = time.monotonic()
            expired = [
                reader
                for reader, info in running.items()
                if info.deadline <= now
            ]
            for reader in expired:
                info = running.pop(reader)
                _kill(info.proc)
                reader.close()
                self.counters.timeouts += 1
                self._after_failed_attempt(
                    info, pending, fn, emit, results, failures
                )

        if pending:
            # Degraded: the platform would not give us workers, so the
            # remaining points run in-process (fresh attempt counts,
            # transient injections suspended) rather than not at all.
            for task, _, _ in sorted(pending, key=lambda p: p[0].task_id):
                self._run_one_serial(
                    task, fn, emit, results, failures, degraded=True
                )

    def _launch(
        self,
        ctx: Any,
        task: Task,
        attempt: int,
        fn: Callable[[Any], Any],
        plan: FaultPlan | None,
        running: dict[mp_connection.Connection, _Running],
    ) -> bool:
        try:
            reader, writer = ctx.Pipe(duplex=False)
        except OSError:
            return False
        try:
            proc = ctx.Process(
                target=_worker_entry,
                args=(writer, fn, task.payload, task.key, attempt, plan),
                daemon=True,
            )
            proc.start()
        except OSError:
            reader.close()
            writer.close()
            return False
        # The load-bearing close: before any further fork, drop the
        # parent's writer so EOF on the reader means worker death.
        writer.close()
        running[reader] = _Running(
            proc=proc,
            reader=reader,
            task=task,
            attempt=attempt,
            deadline=time.monotonic() + task.timeout_s,
        )
        return True

    def _after_failed_attempt(
        self,
        info: _Running,
        pending: list[tuple[Task, int, float]],
        fn: Callable[[Any], Any],
        emit: Callable[[Task, Any], None],
        results: dict[int, Any],
        failures: list[TaskFailure],
    ) -> None:
        if info.attempt < self.policy.max_attempts:
            self.counters.retries += 1
            delay = self.policy.backoff_s(info.task.key, info.attempt)
            pending.append(
                (info.task, info.attempt + 1, time.monotonic() + delay)
            )
        else:
            self._rescue(info.task, fn, emit, results, failures)
