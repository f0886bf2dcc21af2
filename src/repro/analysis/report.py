"""Markdown report generator — the first artifact-store consumer.

Renders a runner artifact directory (``--out DIR``: one ``<id>.json``
per experiment plus ``manifest.json``) into a single markdown report::

    python -m repro.analysis.report artifacts/
    python -m repro.analysis.report artifacts/ --out report.md

The report carries a summary table of every experiment's shape checks,
then a section per experiment with the paper's expectation, the check
details, the experiment's own ASCII rendering, and — for every flat
numeric series — an empirical CDF sketch reusing
:func:`repro.analysis.textplot.render_cdf`.  A partial sweep (a
manifest whose ``failures`` map records experiments that could not
execute) renders faithfully: the header flags the sweep as partial
and an execution-failures section calls out each casualty.

This module reads only the JSON artifacts (via
:meth:`~repro.experiments.common.ExperimentResult.from_dict`), never
the simulator: it demonstrates that the store/artifact pipeline is a
complete interface — downstream analysis needs no access to the code
that produced the runs.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path
from typing import Any

import numpy as np

from repro.experiments.common import ExperimentResult
from repro.analysis.textplot import _MARKERS, render_cdf


def load_results(
    directory: Path,
) -> tuple[list[ExperimentResult], dict[str, Any] | None]:
    """Load every experiment artifact in ``directory``.

    Returns the results (sorted by experiment id) and the parsed
    ``manifest.json``, or ``None`` if the directory has no manifest —
    a bare pile of ``<id>.json`` files is still a valid input.  Raises
    ``ValueError`` naming the first ``*.json`` file that is not valid
    JSON of the runner's shape.
    """
    directory = Path(directory)
    manifest: dict[str, Any] | None = None
    results = []
    for path in sorted(directory.glob("*.json")):
        try:
            data = json.loads(path.read_text())
            if not isinstance(data, dict):
                raise TypeError("not a JSON object")
            if path.name == "manifest.json":
                manifest = data
            else:
                results.append(ExperimentResult.from_dict(data))
        except (ValueError, KeyError, TypeError) as exc:
            raise ValueError(
                f"{path}: not a runner artifact ({type(exc).__name__}: {exc})"
            ) from exc
    results.sort(key=lambda r: r.experiment_id)
    return results, manifest


def _flat_numeric_series(series: dict) -> dict[str, np.ndarray]:
    """The sub-series that are non-empty flat lists of numbers."""
    flat: dict[str, np.ndarray] = {}
    for label, values in series.items():
        if (
            isinstance(values, list)
            and values
            and all(
                isinstance(v, (int, float)) and not isinstance(v, bool)
                for v in values
            )
        ):
            flat[str(label)] = np.asarray(values, dtype=np.float64)
    return flat


def _cdf_block(series: dict) -> list[str]:
    """The markdown lines for an experiment's series CDF, if any."""
    flat = _flat_numeric_series(series)
    if not flat:
        return []
    skipped = max(0, len(flat) - len(_MARKERS))
    if skipped:
        flat = dict(list(flat.items())[: len(_MARKERS)])
    lines = [
        "",
        "Empirical CDFs of the flat numeric series:",
        "",
        "```",
        render_cdf(flat, xlabel="series value"),
        "```",
    ]
    if skipped:
        lines.append(
            f"\n({skipped} further series omitted: the plot "
            f"distinguishes at most {len(_MARKERS)} curves.)"
        )
    return lines


def _failures_block(manifest: dict[str, Any] | None) -> list[str]:
    """The markdown section for experiments that failed to execute.

    The runner's manifest carries a ``failures`` map (experiment id →
    error type, message, traceback, attempts) whenever an experiment
    could not run; a report over such a partial sweep must say so
    rather than silently presenting the survivors as the whole run.
    """
    failures = (manifest or {}).get("failures") or {}
    if not failures:
        return []
    lines = [
        "",
        f"## Execution failures ({len(failures)})",
        "",
        "| experiment | error | attempts |",
        "| --- | --- | --- |",
    ]
    for exp_id in sorted(failures):
        failure = failures[exp_id]
        error = (
            f"{failure.get('error_type', '?')}: "
            f"{failure.get('error', '')}"
        )
        attempts = failure.get("attempts", 0)
        lines.append(
            f"| `{exp_id}` | {error} | "
            f"{attempts if attempts else '—'} |"
        )
    lines.extend(
        [
            "",
            "These experiments produced no artifacts; the sections "
            "below cover only the ones that completed.",
        ]
    )
    return lines


def _summary_table(results: list[ExperimentResult]) -> list[str]:
    lines = [
        "| experiment | title | shape checks | status |",
        "| --- | --- | --- | --- |",
    ]
    for r in results:
        passed = sum(c.passed for c in r.shape_checks)
        status = "PASS" if r.all_passed else "**FAIL**"
        lines.append(
            f"| `{r.experiment_id}` | {r.title} | "
            f"{passed}/{len(r.shape_checks)} | {status} |"
        )
    return lines


def render_markdown(
    results: list[ExperimentResult],
    manifest: dict[str, Any] | None = None,
) -> str:
    """The whole report as one markdown string."""
    lines = ["# Reproduction report", ""]
    if manifest is not None:
        lines.append(
            f"Artifacts: schema v{manifest.get('schema_version')}"
            + (
                f", repro {manifest['repro_version']}"
                if "repro_version" in manifest
                else ""
            )
        )
        store = manifest.get("store")
        if store is not None:
            lines.append(
                f"Run store: {store.get('hits', 0)} hits, "
                f"{store.get('misses', 0)} misses, "
                f"{store.get('writes', 0)} writes, "
                f"{store.get('corrupt', 0)} corrupt"
            )
        n_failed = len(manifest.get("failures") or {})
        if n_failed:
            lines.append(
                f"**Partial sweep:** {n_failed} experiment(s) failed "
                f"to execute; {len(results)} completed."
            )
        lines.append("")
    lines.extend(_summary_table(results))
    lines.extend(_failures_block(manifest))
    for r in results:
        lines.extend(
            [
                "",
                f"## {r.experiment_id} — {r.title}",
                "",
                f"Paper expectation: {r.paper_expectation}",
                "",
            ]
        )
        for check in r.shape_checks:
            lines.append(f"- {check}")
        lines.extend(["", "```", r.rendered, "```"])
        lines.extend(_cdf_block(r.series))
    lines.append("")
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    """Entry point; returns a process exit code."""
    parser = argparse.ArgumentParser(
        description="Render a runner artifact directory as markdown."
    )
    parser.add_argument(
        "directory",
        metavar="DIR",
        help="artifact directory written by the runner's --out",
    )
    parser.add_argument(
        "--out",
        metavar="FILE",
        help="write the report to FILE instead of stdout",
    )
    args = parser.parse_args(argv)
    directory = Path(args.directory)
    if not directory.is_dir():
        problem = "is not a directory" if directory.exists() else "does not exist"
        parser.error(f"DIR {args.directory!r} {problem}")
    try:
        results, manifest = load_results(directory)
    except ValueError as exc:
        parser.error(str(exc))
    if not results:
        print(
            f"no experiment artifacts found in {args.directory}",
            file=sys.stderr,
        )
        return 1
    report = render_markdown(results, manifest)
    if args.out:
        try:
            Path(args.out).write_text(report)
        except OSError as exc:
            parser.error(
                f"--out {args.out!r} is not writable: {exc.strerror or exc}"
            )
        print(f"report written to {args.out}")
    else:
        try:
            print(report)
        except BrokenPipeError:
            # Reading the head of a long report through a pipe is
            # normal use; swap in devnull so the interpreter's exit
            # flush does not raise again.
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
            return 0
    return 0


if __name__ == "__main__":
    sys.exit(main())
