"""CLI for regenerating every reproduced table and figure.

Usage::

    python -m repro.experiments.runner --list
    python -m repro.experiments.runner --all
    python -m repro.experiments.runner --experiment fig3 fig16
    python -m repro.experiments.runner --all --quick --jobs 4
    python -m repro.experiments.runner --all --format json
    python -m repro.experiments.runner --all --out artifacts/
    python -m repro.experiments.runner --all --quick --store store/

Experiments come from the declarative registry: each ``exp_*`` module
registers its spec (including the simulation points it needs), the
runner prefetches the union of the selected specs' points — sharded
across ``--jobs`` worker processes, heaviest first — and runs each
experiment against the shared
:class:`~repro.experiments.common.RunCache` as soon as its points
have landed, while the workers simulate the rest; the registry
resolves each spec's points through it and hands the body those runs.

``--store DIR`` (default: the ``REPRO_STORE`` environment variable)
backs the cache with a durable content-addressed run store: points
already in the store are loaded instead of simulated, fresh points are
written back, and a repeat invocation against a warm store performs
zero simulations.  The store's hit/miss/write/corrupt counters appear
in the summary, in the ``--format json`` document, and in the
``--out`` manifest.

Text mode prints each experiment's ASCII rendering, the paper's
expectation, and its shape checks; ``--format json`` emits one JSON
document on stdout and ``--out DIR`` writes one ``<id>.json`` per
experiment plus a manifest.  The JSON artifacts contain no timing
information, so equivalent runs (any ``--jobs`` count, warm or cold
store) are byte-identical — CI diffs them directly.

Execution is fault tolerant: simulation points run under the
``repro.exec`` supervisor (per-point timeouts, crash isolation,
bounded deterministic retries — knobs via ``REPRO_EXEC``, chaos via
``REPRO_FAULTS``), and an experiment whose points fail permanently is
*recorded* — error, traceback, attempts, in the summary, the JSON
document, and the manifest — instead of aborting the remaining
experiments.

Exit-code contract (documented, CI-asserted):

* ``0`` — every experiment executed and every shape check passed;
* ``1`` — every experiment executed but some shape check failed;
* ``2`` — usage error (argparse);
* ``3`` — at least one experiment failed to *execute* (takes
  precedence over ``1``).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import traceback
from dataclasses import dataclass, field, replace
from pathlib import Path

from repro._version import __version__
from repro.exec import ExecCounters, ExecPolicy, FaultPlan, SweepExecutionError
from repro.experiments import registry
from repro.experiments.common import (
    RESULT_SCHEMA_VERSION,
    ExperimentResult,
    RunCache,
)
from repro.sim.network import SimulationConfig
from repro.store import RunStore, StoreCounters

#: exit code for "an experiment failed to execute" (vs 1 = shape check)
EXIT_EXECUTION_FAILURE = 3


@dataclass(frozen=True)
class ExperimentFailure:
    """One experiment that could not execute."""

    experiment_id: str
    title: str
    error_type: str
    error: str
    traceback: str
    #: attempts spent on the first permanently-failed point (0 when
    #: the failure was not a sweep-execution failure)
    attempts: int

    def to_dict(self) -> dict:
        return {
            "experiment_id": self.experiment_id,
            "title": self.title,
            "error_type": self.error_type,
            "error": self.error,
            "traceback": self.traceback,
            "attempts": self.attempts,
        }

    def summary(self) -> str:
        attempts = (
            f" after {self.attempts} attempts" if self.attempts else ""
        )
        return (
            f"=== {self.experiment_id}: {self.title} ===\n"
            f"EXECUTION FAILED{attempts}: {self.error_type}: {self.error}"
        )


@dataclass
class RunOutcome:
    """What :func:`run_experiments` produced: results and casualties."""

    results: list[ExperimentResult]
    failures: list[ExperimentFailure] = field(default_factory=list)
    exec_counters: ExecCounters = field(default_factory=ExecCounters)


def _failure_from_sweep(
    spec: registry.ExperimentSpec, exc: SweepExecutionError
) -> ExperimentFailure:
    first = exc.failures[0]
    return ExperimentFailure(
        experiment_id=spec.experiment_id,
        title=spec.title,
        error_type=first.error_type,
        error=first.error,
        traceback=first.traceback,
        attempts=first.attempts,
    )


def _run_spec(
    spec: registry.ExperimentSpec,
    cache: RunCache,
    done: dict[str, ExperimentResult | ExperimentFailure],
) -> ExperimentResult | ExperimentFailure:
    """Run ``spec`` once, after the experiments it needs.

    ``done`` holds every experiment already run in this invocation, so
    a needed experiment runs at most once and its result also fills
    its own slot.  A needed experiment's failure fails ``spec``.
    """
    if spec.experiment_id in done:
        return done[spec.experiment_id]
    needed: dict[str, ExperimentResult] = {}
    for name in spec.needs:
        got = _run_spec(registry.get_spec(name), cache, done)
        if isinstance(got, ExperimentFailure):
            done[spec.experiment_id] = replace(
                got,
                experiment_id=spec.experiment_id,
                title=spec.title,
                error=f"needed experiment {name!r} failed: {got.error}",
            )
            return done[spec.experiment_id]
        needed[name] = got
    outcome: ExperimentResult | ExperimentFailure
    try:
        outcome = spec.run(cache, needed)
    except SweepExecutionError as exc:
        outcome = _failure_from_sweep(spec, exc)
    except Exception as exc:
        outcome = ExperimentFailure(
            experiment_id=spec.experiment_id,
            title=spec.title,
            error_type=type(exc).__name__,
            error=str(exc),
            traceback=traceback.format_exc(),
            attempts=0,
        )
    done[spec.experiment_id] = outcome
    return outcome


def run_experiments(
    names: list[str],
    duration_s: float = 40.0,
    seed: int = 2007,
    jobs: int = 1,
    store: RunStore | None = None,
) -> RunOutcome:
    """Run the named experiments against one shared run cache.

    ``jobs`` fans the selected experiments' declared simulation points
    across that many supervised worker processes, heaviest first.
    While the workers simulate, the parent runs each experiment whose
    points, and those of the experiments it needs, have all landed
    (the point-less ones at once); the rest run once the last point
    is in.  Results are bit-identical for every ``jobs`` value: each
    point's streams derive from its config alone, so it does not
    matter which process simulates it or when an experiment reads it,
    and results are reported in the order of ``names``.  A run is
    dropped from the cache once every experiment that reads it has
    run.

    ``store`` backs the cache with a durable run store (memory → disk
    → simulate, write-back per completed point); results are
    bit-identical with or without one.

    Failure semantics: a point that fails permanently (its retry
    budget plus the in-process rescue attempt exhausted) fails only
    the experiments that need it — they are recorded in
    :attr:`RunOutcome.failures` with the error, traceback, and attempt
    count, and every other experiment still runs.  Completed points
    are cached (and store-written) even when siblings fail, so a
    repaired rerun resumes warm.

    An experiment that ``needs`` another receives its result; the
    needed experiment runs once per call, and is reported only when
    it was itself selected.
    """
    specs = [registry.get_spec(name) for name in names]
    cache = RunCache(
        duration_s=duration_s,
        seed=seed,
        jobs=jobs,
        store=store,
    )
    points = [
        config for spec in specs for config in spec.configs(cache.base)
    ]
    # Who reads each run: the selected experiments and, transitively,
    # the experiments they need.
    readers: dict[SimulationConfig, set[str]] = {}
    for spec in _with_needs(specs):
        for config in spec.configs(cache.base):
            readers.setdefault(config, set()).add(spec.experiment_id)
    done: dict[str, ExperimentResult | ExperimentFailure] = {}

    def settle(spec: registry.ExperimentSpec) -> None:
        _run_spec(spec, cache, done)
        for config, ids in list(readers.items()):
            if ids.issubset(done.keys()):
                cache.drop(config)
                del readers[config]

    def run_one_ready() -> bool:
        for spec in specs:
            if spec.experiment_id not in done and all(
                cache.holds(config)
                for needed in _with_needs([spec])
                for config in needed.configs(cache.base)
            ):
                settle(spec)
                return True
        return False

    try:
        cache.prefetch(points, idle=run_one_ready)
    except SweepExecutionError:
        # Every healthy point completed and is cached; the failures
        # are negatively cached and attributed per experiment below.
        pass
    outcome = RunOutcome(results=[])
    for spec in specs:
        settle(spec)
        got = done[spec.experiment_id]
        if isinstance(got, ExperimentFailure):
            outcome.failures.append(got)
        else:
            outcome.results.append(got)
    outcome.exec_counters = cache.exec_counters
    return outcome


def _with_needs(
    specs: list[registry.ExperimentSpec],
) -> list[registry.ExperimentSpec]:
    """``specs`` and every experiment they need, transitively."""
    found: dict[str, registry.ExperimentSpec] = {}
    stack = list(reversed(specs))
    while stack:
        spec = stack.pop()
        if spec.experiment_id not in found:
            found[spec.experiment_id] = spec
            stack += [registry.get_spec(name) for name in spec.needs]
    return list(found.values())


def write_artifacts(
    out_dir: Path,
    results: list[ExperimentResult],
    store_counters: StoreCounters | None = None,
    failures: list[ExperimentFailure] | None = None,
    exec_counters: ExecCounters | None = None,
) -> list[Path]:
    """Write one ``<id>.json`` per result plus ``manifest.json``.

    Files are deterministic (sorted keys, no timings): two equivalent
    runs produce byte-identical artifact directories.  The manifest
    carries the run-dependent observability — store counters when a
    store was attached, executor counters when anything anomalous
    happened (retries, timeouts, worker deaths, rescues, degradation,
    failures), and a ``failures`` map when experiments failed to
    execute.  A clean run's manifest contains none of those keys, so
    CI can still byte-diff clean artifact directories manifest
    included; chaos runs diff with the manifest excluded.
    """
    out_dir.mkdir(parents=True, exist_ok=True)
    written: list[Path] = []
    manifest: dict = {
        "schema_version": RESULT_SCHEMA_VERSION,
        "repro_version": __version__,
        "experiments": {},
    }
    if store_counters is not None:
        manifest["store"] = store_counters.as_dict()
    if exec_counters is not None and exec_counters.anomalous:
        manifest["exec"] = exec_counters.as_dict()
    if failures:
        manifest["failures"] = {
            f.experiment_id: f.to_dict() for f in failures
        }
    for result in results:
        path = out_dir / f"{result.experiment_id}.json"
        path.write_text(
            json.dumps(result.to_dict(), indent=2, sort_keys=True) + "\n"
        )
        written.append(path)
        manifest["experiments"][result.experiment_id] = {
            "file": path.name,
            "all_passed": result.all_passed,
            "shape_checks": len(result.shape_checks),
        }
    manifest_path = out_dir / "manifest.json"
    manifest_path.write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n"
    )
    written.append(manifest_path)
    return written


def _print_list() -> None:
    specs = registry.all_specs()
    width = max(len(s.experiment_id) for s in specs)
    for spec in specs:
        n = len(spec.points)
        points = f"{n} point{'s' if n != 1 else ''}"
        print(f"{spec.experiment_id:<{width}}  {spec.title}  [{points}]")


def main(argv: list[str] | None = None) -> int:
    """Entry point; returns a process exit code.

    Exit codes: 0 all experiments executed and passed; 1 a shape
    check failed; 2 usage error; 3 an experiment failed to execute
    (dominates 1).
    """
    parser = argparse.ArgumentParser(
        description="Regenerate the paper's tables and figures.",
        epilog=(
            "exit codes: 0 = all experiments executed, all shape "
            "checks passed; 1 = some shape check failed; 2 = usage "
            "error; 3 = some experiment failed to execute (recorded "
            "in the summary/JSON/manifest; dominates 1).  Execution "
            "is supervised: REPRO_EXEC tunes retries/timeouts/"
            "backoff, REPRO_FAULTS injects deterministic chaos."
        ),
    )
    selection = parser.add_mutually_exclusive_group(required=True)
    selection.add_argument(
        "--list",
        action="store_true",
        help="list registered experiments and exit",
    )
    selection.add_argument(
        "--all", action="store_true", help="run every experiment"
    )
    selection.add_argument(
        "--experiment",
        nargs="+",
        metavar="ID",
        help="experiment ids (see --list)",
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="shorter simulations (coarser statistics)",
    )
    parser.add_argument(
        "--seed", type=int, default=2007, help="experiment seed"
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help="simulate up to N declared points in parallel worker "
        "processes; results are bit-identical for every N",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="print human-readable summaries (text) or one JSON "
        "document (json) on stdout",
    )
    parser.add_argument(
        "--out",
        metavar="DIR",
        help="also write per-experiment JSON artifacts (plus a "
        "manifest) into DIR",
    )
    parser.add_argument(
        "--store",
        metavar="DIR",
        help="back the run cache with a durable content-addressed "
        "store in DIR: stored points are loaded instead of simulated "
        "and fresh points are written back (default: the REPRO_STORE "
        "environment variable, if set)",
    )
    args = parser.parse_args(argv)
    if args.jobs < 1:
        parser.error(f"--jobs must be >= 1, got {args.jobs}")
    # A malformed execution knob is a usage error, caught before any
    # experiment runs rather than as a traceback mid-sweep.
    for variable, from_env in (
        ("REPRO_EXEC", ExecPolicy.from_env),
        ("REPRO_FAULTS", FaultPlan.from_env),
    ):
        try:
            from_env()
        except ValueError as exc:
            parser.error(
                f"{variable}={os.environ.get(variable)!r} is invalid: {exc}"
            )

    if args.list:
        _print_list()
        return 0

    if args.all:
        names = [s.experiment_id for s in registry.all_specs()]
    else:
        names = args.experiment
    for index, name in enumerate(names):
        try:
            registry.get_spec(name)
        except ValueError as exc:
            parser.error(str(exc))
        # A repeat would run twice but write one artifact, so the
        # summary and the --out directory would disagree.
        if name in names[:index]:
            parser.error(f"experiment {name!r} is selected more than once")
    duration = 15.0 if args.quick else 40.0
    store_dir = args.store or os.environ.get("REPRO_STORE")
    store_source = "--store" if args.store else "REPRO_STORE"
    # Create both directories before anything runs, so a path that
    # cannot be a directory is a usage error, not a late traceback.
    for source, directory in (("--out", args.out), (store_source, store_dir)):
        if not directory:
            continue
        try:
            Path(directory).mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            parser.error(
                f"{source} {directory!r} is not a usable directory: "
                f"{exc.strerror or exc}"
            )
    store = RunStore(store_dir) if store_dir else None
    outcome = run_experiments(
        names,
        duration_s=duration,
        seed=args.seed,
        jobs=args.jobs,
        store=store,
    )
    results = outcome.results

    if args.out:
        write_artifacts(
            Path(args.out),
            results,
            store_counters=store.counters if store else None,
            failures=outcome.failures,
            exec_counters=outcome.exec_counters,
        )

    failed = sum(not r.all_passed for r in results)
    total_checks = sum(len(r.shape_checks) for r in results)
    passed_checks = sum(
        sum(c.passed for c in r.shape_checks) for r in results
    )
    summary = (
        f"=== {len(results)} experiments, {passed_checks}/{total_checks} "
        f"shape checks passed ==="
    )
    if outcome.failures:
        summary = summary[: -len(" ===")] + (
            f", {len(outcome.failures)} failed to execute ==="
        )
    store_line = (
        f"store {store_dir}: {store.counters.summary()}" if store else None
    )
    exec_line = (
        f"exec: {outcome.exec_counters.summary()}"
        if outcome.exec_counters.anomalous
        else None
    )
    if args.format == "json":
        document = {
            "schema_version": RESULT_SCHEMA_VERSION,
            "repro_version": __version__,
            "results": [r.to_dict() for r in results],
        }
        if store:
            document["store"] = store.counters.as_dict()
        if outcome.failures:
            document["failures"] = [
                f.to_dict() for f in outcome.failures
            ]
        print(json.dumps(document, indent=2, sort_keys=True))
        for line in (store_line, exec_line):
            if line:
                print(line, file=sys.stderr)
        print(summary, file=sys.stderr)
    else:
        for result in results:
            print(result.summary())
            print()
        for failure in outcome.failures:
            print(failure.summary())
            print()
        if args.out:
            print(f"JSON artifacts written to {args.out}")
        for line in (store_line, exec_line):
            if line:
                print(line)
        print(summary)
    if outcome.failures:
        return EXIT_EXECUTION_FAILURE
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
