"""Run one benchmark workload and print its metrics as one JSON line.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload paper-quick --seed 2007 \\
        --seconds 5 --trace 0

Workloads (see ``workloads.py``): ``paper-quick``, ``sim-heavy`` and
``eval-warm``.  Every phase runs in a fresh interpreter
(``perfbench/phase.py``) with ``src`` of this checkout on the path.

``--trace 0`` reports the end-to-end metrics, all lower-is-better:

* ``wall_s``: median wall time of the timed phase over its
  repetitions, which go on until they add up to ``--seconds``;
* ``setup_s``: median, over three fresh interpreters, of the time
  from spawn until the workload is ready (imports, registry
  discovery, and the store pre-fill for ``eval-warm``);
* ``peak_rss_mb``: median peak resident memory of the timed phase,
  the largest of the benchmark process and each of its workers.

``--trace 1`` runs the timed phase once untraced and once traced, both
in-process (``jobs=1``), and reports the per-layer metrics of the
traced run (see ``tracing.py``), ``trace.overhead_s`` (traced minus
untraced wall time) and the line counts ``loc.*``.  The spans go to
``.bench_work/traces/``.

Each run checks its outputs (``workloads.py``) and that every
repetition produced the same digest; a failed check is a failed
operation.  The digests are printed before the result line, so two
commits can be compared byte for byte.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench.tracing import traced_metrics  # noqa: E402

WORKLOADS = ("paper-quick", "sim-heavy", "eval-warm")
SETUP_RUNS = 3
#: a phase that takes longer than this has hung
PHASE_TIMEOUT_S = 120.0
#: environment knobs that would change what the program does
_PROGRAM_ENV = ("REPRO_STORE", "REPRO_EXEC", "REPRO_FAULTS", "REPRO_SANITIZE")

LOC_PACKAGES = (
    "analysis",
    "arq",
    "coding",
    "exec",
    "experiments",
    "link",
    "phy",
    "recovery",
    "sim",
    "store",
    "utils",
)
LOC_DIRS = {
    "loc.repro": "src/repro",
    **{f"loc.{name}": f"src/repro/{name}" for name in LOC_PACKAGES},
    "loc.reprolint": "tools/reprolint",
    "loc.tests": "tests",
}


def per_layer_metrics() -> list[str]:
    """Every metric ``--trace 1`` prints, in order."""
    return traced_metrics() + ["trace.overhead_s", *LOC_DIRS]


def unit_of(metric: str) -> str:
    if metric.startswith("loc."):
        return "lines"
    if metric == "store.bytes":
        return "bytes"
    if metric.endswith("_mb"):
        return "MB"
    return "s" if metric.endswith("_s") else "count"


class PhaseError(RuntimeError):
    """A phase process crashed or hung."""


def line_counts() -> dict[str, int | None]:
    """Lines of Python per directory; ``None`` for a directory gone."""
    out: dict[str, int | None] = {}
    for metric, rel in LOC_DIRS.items():
        path = ROOT / rel
        if not path.is_dir():
            out[metric] = None
            continue
        out[metric] = sum(
            len(f.read_bytes().splitlines()) for f in sorted(path.rglob("*.py"))
        )
    return out


def _child_env(workdir: Path) -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if k not in _PROGRAM_ENV}
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), str(ROOT)]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    env["TMPDIR"] = str(workdir)
    return env


def run_phase(request: dict, workdir: Path) -> dict:
    """Run one phase in a fresh interpreter and return its result."""
    workdir.mkdir(parents=True, exist_ok=True)
    result_path = workdir / f"result-{time.monotonic_ns()}.json"
    request = {
        **request,
        "workdir": str(workdir),
        "result": str(result_path),
        "spawned_at": time.monotonic(),
    }
    # A process group of its own, so a hung phase dies with its workers.
    proc = subprocess.Popen(
        [sys.executable, "-m", "perfbench.phase", json.dumps(request)],
        cwd=ROOT,
        env=_child_env(workdir),
        stdout=subprocess.DEVNULL,
        start_new_session=True,
    )
    try:
        proc.wait(timeout=PHASE_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise PhaseError(f"{request['mode']} phase hung") from exc
    finally:
        if proc.returncode is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    if proc.returncode != 0:
        raise PhaseError(
            f"{request['mode']} phase exited with {proc.returncode}"
        )
    return json.loads(result_path.read_text())


def _count(results: list[dict]) -> tuple:
    """Operations attempted and failed, the problems and the digests.

    Every run of one workload and seed must give the same digest.
    """
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    problems = [p for r in results for p in r["problems"]]
    digests = {r["digest"] for r in results}
    if len(digests) != 1:
        problems.append(f"runs disagree: digests {sorted(digests)}")
        failed = min(attempted, failed + 1)
    return attempted, failed, problems, sorted(digests)


def _timed_dir(workload: str, work: Path, setups: int, index: int) -> Path:
    """Where timed phase ``index`` runs.

    eval-warm reads the store its last set-up filled; the other
    workloads start every timed phase from an empty directory.
    """
    if workload == "eval-warm":
        return work / f"setup{setups - 1}"
    return work / f"timed{index}"


def measure(workload: str, seed: int, seconds: float, work: Path) -> dict:
    """End-to-end metrics from untraced runs."""
    base = {"workload": workload, "seed": seed}
    setups = [
        run_phase({**base, "mode": "setup"}, work / f"setup{i}")["setup_s"]
        for i in range(SETUP_RUNS)
    ]
    reps: list[dict] = []
    while not reps or sum(r["wall_s"] for r in reps) < seconds:
        workdir = _timed_dir(workload, work, SETUP_RUNS, len(reps))
        reps.append(run_phase({**base, "mode": "timed"}, workdir))
    attempted, failed, problems, digests = _count(reps)
    return {
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "digests": digests,
        "metrics": {
            "wall_s": statistics.median(r["wall_s"] for r in reps),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in reps),
        },
    }


def trace(workload: str, seed: int, work: Path) -> dict:
    """Per-layer metrics from one traced in-process run."""
    base = {"workload": workload, "seed": seed, "jobs": 1}
    run_phase({**base, "mode": "setup"}, work / "setup0")
    untraced = run_phase({**base, "mode": "timed"}, _timed_dir(workload, work, 1, 0))
    trace_dir = ROOT / ".bench_work" / "traces"
    trace_dir.mkdir(parents=True, exist_ok=True)
    trace_out = trace_dir / f"{workload}-seed{seed}.json"
    traced = run_phase(
        {**base, "mode": "timed", "trace": True, "trace_out": str(trace_out)},
        _timed_dir(workload, work, 1, 1),
    )
    attempted, failed, problems, digests = _count([untraced, traced])
    values = {
        **traced["per_layer"],
        "trace.overhead_s": traced["wall_s"] - untraced["wall_s"],
        **line_counts(),
    }
    names = per_layer_metrics()
    return {
        "attempted": attempted,
        "failed": failed,
        "problems": problems + [
            f"absent: {m} ({traced['absent'].get(m, 'not reported')})"
            for m in names
            if values.get(m) is None
        ],
        "digests": digests,
        "trace_file": str(trace_out.relative_to(ROOT)),
        "metrics": {m: values.get(m) for m in names},
    }


def _exit_on_sigterm(signum: int, frame: object) -> None:
    # Unwinding runs the cleanup that kills a running phase.
    raise SystemExit(128 + signum)


def main(argv: list[str] | None = None) -> int:
    signal.signal(signal.SIGTERM, _exit_on_sigterm)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=2007)
    parser.add_argument("--seconds", type=float, default=5.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no src/repro under {ROOT}", file=sys.stderr)
        return 2

    work = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        if args.trace:
            report = trace(args.workload, args.seed, work)
        else:
            report = measure(args.workload, args.seed, args.seconds, work)
    except PhaseError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for digest in report["digests"]:
        print(f"digest {args.workload} seed={args.seed}: {digest}")
    for problem in report["problems"]:
        print(f"problem: {problem}")
    if "trace_file" in report:
        print(f"spans: {report['trace_file']}")
    print(
        json.dumps(
            {
                "correct": report["failed"] == 0,
                "attempted": report["attempted"],
                "failed": report["failed"],
                "metrics": {
                    name: {"value": value, "unit": unit_of(name)}
                    for name, value in report["metrics"].items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
