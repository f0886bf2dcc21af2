"""Record a change's benchmark numbers against its parent commit.

Usage, from the root of a git checkout holding the change::

    python3 benchmarks/record.py --parent HEAD~1 --pairs 10 --pr 19

Checks ``--parent`` out into a temporary ``git worktree``, then for
every workload of ``BENCHMARK.json`` runs::

    python3 perfbench/run.py --workload W --seed 2007 --trace 0

``--pairs`` times in the parent checkout and in this one, alternating
(the parent goes first in odd pairs, so drift on a shared host hits
both sides alike), plus one ``--trace 1`` run on each side.  The
medians, quartiles, per-pair wins and raw runs go to
``BENCH_<pr>.json`` in this checkout, with ``digests_match`` per
workload and per traced run: whether the parent and the change
produced the same artifact digests.  A line is printed for every
workload whose digests differ; that only reports, it does not gate.

It also times the runner itself, end to end, from a cold start::

    python -m repro.experiments.runner --all --quick --format json --out DIR --jobs J

at ``--jobs 1`` and ``--jobs 2``, ``--pairs`` times on each side in
the same alternating order.  The medians, quartiles and per-pair wins
of each wall time and of each run's peak RSS (the largest resident
set of the runner and its workers, as ``os.wait4`` reports it), the
``--jobs 2``/``--jobs 1`` ratio of the wall-time medians and whether
both sides wrote byte-identical artifacts go under the ``runner``
key.  These too only report, as do the ``*.py`` line counts of the
source, test, lint, benchmark and example trees on both sides, under
the ``lines`` key.

Last it runs the tier-1 tests, ``python -m pytest -x -q``, twice in
each checkout in the same alternating order, and writes each run's
wall seconds and its passed and failed counts under the ``tier1`` key;
that too only reports.

Exits 1 when a change median of an end-to-end metric is worse than
its parent's by more than that metric's ``bound`` in
``BENCHMARK.json`` (or a run fails), 0 otherwise.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
ORDER = "alternating, parent first in odd pairs"
SEED = 2007
RUNNER = ("-m", "repro.experiments.runner", "--all", "--quick", "--format", "json")
RUNNER_JOBS = (1, 2)
TIER1 = ("-m", "pytest", "-x", "-q")
#: tier-1 runs per side (a full run takes one to two minutes)
TIER1_RUNS = 2
#: the trees whose ``*.py`` line counts the document reports
LINE_TREES = ("src/repro", "tests", "tools/reprolint", "benchmarks", "perfbench", "examples")


def run_bench(checkout: Path, workload: str, seed: int, trace: int) -> dict:
    """One ``perfbench/run.py`` run: its result line and digests."""
    command = [
        sys.executable,
        "perfbench/run.py",
        "--workload",
        workload,
        "--seed",
        str(seed),
        "--trace",
        str(trace),
    ]
    proc = subprocess.run(
        command, cwd=checkout, capture_output=True, text=True, check=False
    )
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(
            f"{' '.join(command)} in {checkout} exited with "
            f"{proc.returncode}: {proc.stderr.strip()}"
        )
    result = json.loads(lines[-1])
    result["digests"] = [
        line.split(": ", 1)[1] for line in lines if line.startswith("digest ")
    ]
    result["absent"] = [line for line in lines if line.startswith("problem: absent:")]
    return result


def line_counts(checkout: Path) -> dict[str, int]:
    """``*.py`` lines under each of ``LINE_TREES`` in a checkout."""
    return {
        tree: sum(
            len(path.read_bytes().splitlines())
            for path in sorted((checkout / tree).rglob("*.py"))
        )
        for tree in LINE_TREES
    }


def summarise(parent: list[float], change: list[float], better: str) -> dict:
    """Medians, quartiles and per-pair wins of one metric."""

    def quartiles(runs: list[float]) -> list[float]:
        return [round(float(q), 4) for q in np.percentile(runs, [25, 75])]

    sign = 1 if better == "lower" else -1
    wins = sum(sign * (c - p) < 0 for p, c in zip(parent, change, strict=True))
    return {
        "parent_median": round(statistics.median(parent), 4),
        "change_median": round(statistics.median(change), 4),
        "parent_quartiles": quartiles(parent),
        "change_quartiles": quartiles(change),
        "change_wins": wins,
        "runs_each": len(parent),
        "parent_runs": [round(v, 4) for v in parent],
        "change_runs": [round(v, 4) for v in change],
    }


def record_workload(
    parent_dir: Path, workload: str, seed: int, pairs: int, metrics: list[dict]
) -> dict:
    """``pairs`` alternating untraced runs on each side."""
    runs: dict[str, list[dict]] = {"parent": [], "change": []}
    for i in range(pairs):
        sides = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in sides:
            checkout = parent_dir if side == "parent" else ROOT
            runs[side].append(run_bench(checkout, workload, seed, 0))
            print(
                f"{workload} pair {i + 1}/{pairs} {side}: "
                + json.dumps(
                    {m["name"]: runs[side][-1]["metrics"][m["name"]]["value"] for m in metrics}
                ),
                file=sys.stderr,
            )
    out: dict = {"seed": seed, "pairs": pairs, "order": ORDER}
    for metric in metrics:
        name = metric["name"]
        out[name] = summarise(
            [r["metrics"][name]["value"] for r in runs["parent"]],
            [r["metrics"][name]["value"] for r in runs["change"]],
            metric["better"],
        )
    out["failed"] = {side: sum(r["failed"] for r in rs) for side, rs in runs.items()}
    out["correct"] = {side: all(r["correct"] for r in rs) for side, rs in runs.items()}
    out["digests"] = {
        side: sorted({d for r in rs for d in r["digests"]}) for side, rs in runs.items()
    }
    out["digests_match"] = digests_match(out["digests"])
    return out


def digests_match(digests: dict[str, list[str]]) -> bool:
    """Whether both sides reported the same, non-empty artifact digests."""
    return bool(digests["parent"]) and digests["parent"] == digests["change"]


def record_traced(parent_dir: Path, workload: str, seed: int) -> dict:
    """One traced run on each side: every per-layer metric."""
    parent = run_bench(parent_dir, workload, seed, 1)
    change = run_bench(ROOT, workload, seed, 1)
    digests = {"parent": parent["digests"], "change": change["digests"]}
    return {
        "jobs": 1,
        "absent_lines": {"parent": len(parent["absent"]), "change": len(change["absent"])},
        "digests": digests,
        "digests_match": digests_match(digests),
        "metrics": {
            name: {
                "parent": parent["metrics"].get(name, {}).get("value"),
                "change": value["value"],
            }
            for name, value in change["metrics"].items()
        },
    }


def run_runner(checkout: Path, jobs: int, out_dir: Path) -> tuple[float, float, str]:
    """One cold ``runner --all --quick`` run: its wall time in seconds,
    the peak RSS in MB of its process tree (the largest of the runner
    and its workers, from ``os.wait4``) and a digest of the artifacts
    it wrote."""
    command = [sys.executable, *RUNNER, "--jobs", str(jobs), "--out", str(out_dir)]
    # No store, execution policy or fault plan from the caller's shell.
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = str(checkout / "src")
    # Output goes to files, not pipes: reaping the child with wait4 (to
    # read its resource usage) leaves no one to drain a pipe.
    with tempfile.TemporaryFile() as stdout, tempfile.TemporaryFile() as stderr:
        start = time.perf_counter()
        proc = subprocess.Popen(command, cwd=checkout, env=env, stdout=stdout, stderr=stderr)
        _, status, usage = os.wait4(proc.pid, 0)
        wall_s = time.perf_counter() - start
        # Popen did not reap the child; hand it the status it missed.
        proc.returncode = os.waitstatus_to_exitcode(status)
        if proc.returncode != 0:
            stderr.seek(0)
            raise RuntimeError(
                f"{' '.join(command)} in {checkout} exited with "
                f"{proc.returncode}: {stderr.read().decode().strip()}"
            )
    digest = hashlib.sha256()
    for path in sorted(out_dir.iterdir()):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return wall_s, usage.ru_maxrss / 1024, digest.hexdigest()


def record_runner(parent_dir: Path, pairs: int) -> dict:
    """``pairs`` alternating cold runner runs per side at each job count."""
    walls = {jobs: {"parent": [], "change": []} for jobs in RUNNER_JOBS}
    rss = {jobs: {"parent": [], "change": []} for jobs in RUNNER_JOBS}
    digests: dict[str, set[str]] = {"parent": set(), "change": set()}
    with tempfile.TemporaryDirectory(prefix="bench-runner-") as tmp:
        for i in range(pairs):
            sides = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            for jobs in RUNNER_JOBS:
                for side in sides:
                    checkout = parent_dir if side == "parent" else ROOT
                    out_dir = Path(tmp) / f"{side}-{jobs}-{i}"
                    wall_s, rss_mb, digest = run_runner(checkout, jobs, out_dir)
                    walls[jobs][side].append(wall_s)
                    rss[jobs][side].append(rss_mb)
                    digests[side].add(digest)
                    print(
                        f"runner pair {i + 1}/{pairs} --jobs {jobs} {side}: "
                        f"{wall_s:.2f}s, {rss_mb:.1f} MB",
                        file=sys.stderr,
                    )
    low, high = RUNNER_JOBS
    return {
        "command": (
            f"python -m repro.experiments.runner --all --quick --format json "
            f"--out DIR --jobs J (J in {list(RUNNER_JOBS)}), cold, no store"
        ),
        "pairs": pairs,
        "order": ORDER,
        "wall_s": {
            f"jobs_{jobs}": summarise(sides["parent"], sides["change"], "lower")
            for jobs, sides in walls.items()
        },
        "peak_rss_mb": {
            f"jobs_{jobs}": summarise(sides["parent"], sides["change"], "lower")
            for jobs, sides in rss.items()
        },
        f"jobs_{high}_over_jobs_{low}": {
            side: round(
                statistics.median(walls[high][side]) / statistics.median(walls[low][side]),
                3,
            )
            for side in ("parent", "change")
        },
        "artifacts_match": len(digests["parent"] | digests["change"]) == 1,
    }


def run_tier1(checkout: Path) -> dict:
    """One tier-1 run in a checkout: its wall seconds and the passed
    and failed (or erroring) counts of pytest's summary line."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = str(checkout / "src")
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, *TIER1], cwd=checkout, env=env, capture_output=True, text=True
    )
    wall_s = time.perf_counter() - start
    summary = (proc.stdout.strip().splitlines() or [""])[-1]
    counts = {word: int(n) for n, word in re.findall(r"(\d+) (passed|failed|errors?)", summary)}
    return {
        "wall_s": round(wall_s, 2),
        "passed": counts.get("passed", 0),
        "failed": counts.get("failed", 0) + counts.get("error", 0) + counts.get("errors", 0),
        "exit_code": proc.returncode,
    }


def record_tier1(parent_dir: Path) -> dict:
    """``TIER1_RUNS`` alternating tier-1 runs per side."""
    runs: dict[str, list[dict]] = {"parent": [], "change": []}
    for i in range(TIER1_RUNS):
        sides = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in sides:
            runs[side].append(run_tier1(parent_dir if side == "parent" else ROOT))
            print(f"tier1 run {i + 1}/{TIER1_RUNS} {side}: {runs[side][-1]}", file=sys.stderr)
    return {
        "command": "PYTHONPATH=src python -m pytest -x -q",
        "order": ORDER,
        "wall_s": summarise(
            [r["wall_s"] for r in runs["parent"]],
            [r["wall_s"] for r in runs["change"]],
            "lower",
        ),
        "runs": runs,
    }


def gains_of(workloads: dict, end_to_end: list[dict]) -> list[dict]:
    """The change against its parent on every workload's end-to-end
    metrics.

    A gain is met when the change won at least nine in ten pairs and
    its median beats the parent's by more than the spread between the
    parent's quartiles.
    """
    out = []
    for workload, summary in workloads.items():
        for metric in end_to_end:
            s = summary[metric["name"]]
            sign = 1 if metric["better"] == "lower" else -1
            gain = sign * (s["parent_median"] - s["change_median"])
            parent_iqr = s["parent_quartiles"][1] - s["parent_quartiles"][0]
            out.append(
                {
                    "workload": workload,
                    "metric": metric["name"],
                    "parent_median": s["parent_median"],
                    "change_median": s["change_median"],
                    "change_vs_parent": round(
                        s["change_median"] / s["parent_median"] - 1, 3
                    ),
                    "change_wins": f"{s['change_wins']}/{s['runs_each']}",
                    "parent_iqr": round(parent_iqr, 4),
                    "met": s["change_wins"] >= 0.9 * s["runs_each"]
                    and gain > parent_iqr,
                }
            )
    return out


def regressions(workloads: dict, end_to_end: list[dict]) -> list[str]:
    """End-to-end medians worse than the parent's beyond their bound."""
    out = []
    for workload, summary in workloads.items():
        for side, failed in summary["failed"].items():
            if failed:
                out.append(f"{workload}: {failed} failed operations ({side})")
        for metric in end_to_end:
            s = summary[metric["name"]]
            parent, change = s["parent_median"], s["change_median"]
            if metric["better"] == "lower":
                worse = change > parent * (1 + metric["bound"])
            else:
                worse = change < parent * (1 - metric["bound"])
            if worse:
                out.append(
                    f"{workload} {metric['name']}: {parent} -> {change} "
                    f"(bound {metric['bound']:.0%})"
                )
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="git revision to compare against")
    parser.add_argument("--pairs", type=int, default=5, help="alternating pairs per workload")
    parser.add_argument("--pr", required=True, help="number in the output name BENCH_<pr>.json")
    parser.add_argument("--change", help="one line naming the change")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be >= 1")
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in declared["workloads"]]
    end_to_end = declared["end_to_end"]

    def git(*cmd: str, cwd: Path = ROOT) -> str:
        return subprocess.run(
            ["git", *cmd], cwd=cwd, capture_output=True, text=True, check=True
        ).stdout.strip()

    parent_rev = git("rev-parse", "--short", args.parent)
    with tempfile.TemporaryDirectory(prefix="bench-parent-") as tmp:
        parent_dir = Path(tmp) / "parent"
        git("worktree", "add", "--detach", str(parent_dir), parent_rev)
        try:
            workloads = {
                name: record_workload(parent_dir, name, SEED, args.pairs, end_to_end)
                for name in names
            }
            traced = {name: record_traced(parent_dir, name, SEED) for name in names}
            runner = record_runner(parent_dir, args.pairs)
            lines = {"parent": line_counts(parent_dir), "change": line_counts(ROOT)}
            tier1 = record_tier1(parent_dir)
        finally:
            git("worktree", "remove", "--force", str(parent_dir))

    document = {
        "change": args.change or git("describe", "--always", "--dirty"),
        "parent": parent_rev,
        "host": (
            f"{os.cpu_count()} vCPUs, Python {platform.python_version()}, "
            f"numpy {np.__version__}"
        ),
        "command": f"python3 perfbench/run.py --workload W --seed {SEED} --trace 0",
        "gains": gains_of(workloads, end_to_end),
        "workloads": workloads,
        "traced": {
            "command": f"python3 perfbench/run.py --workload W --seed {SEED} --trace 1",
            **traced,
        },
        "runner": runner,
        "lines": lines,
        "tier1": tier1,
    }
    problems = regressions(workloads, end_to_end)
    document["regressions"] = problems
    out = ROOT / f"BENCH_{args.pr}.json"
    out.write_text(json.dumps(document, indent=2) + "\n")
    met = [
        f"{g['workload']} {g['metric']} ({g['change_vs_parent']:+.1%}, "
        f"{g['change_wins']} wins)"
        for g in document["gains"]
        if g["met"]
    ]
    print(f"wrote {out.name}; gains met: {', '.join(met) or 'none'}")
    for name in names:
        for kind, summary in (("timed", workloads[name]), ("traced", traced[name])):
            if not summary["digests_match"]:
                digests = summary["digests"]
                print(
                    f"digests differ: {name} ({kind}): parent {digests['parent']} "
                    f"change {digests['change']}"
                )
    if not runner["artifacts_match"]:
        print("runner artifacts differ between parent and change")
    for problem in problems:
        print(f"regression: {problem}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
