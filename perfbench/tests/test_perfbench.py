"""Tests of the benchmark itself, at a shortened simulated duration.

Run with ``PYTHONPATH=src python -m pytest perfbench/tests -q``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT))

from perfbench import run as runner  # noqa: E402
from perfbench import tracing  # noqa: E402
from perfbench.workloads import WORKLOADS, Context  # noqa: E402

#: simulated seconds per point; the real workloads use 15
SHORT_S = 3.0
SEED = 2007


def _run(name: str, workdir: Path, traced: bool) -> tuple:
    """Execute a workload in-process at jobs=1; return outcome, tracer."""
    workload = WORKLOADS[name]
    ctx = Context(seed=SEED, workdir=workdir, duration_s=SHORT_S)
    workload.prepare(ctx)
    tracer = tracing.Tracer()
    if traced:
        with tracing.installed(tracer):
            run = workload.execute(ctx, 1)
    else:
        run = workload.execute(ctx, 1)
    return workload.check(ctx, run), tracer


@pytest.fixture(scope="module")
def runs(tmp_path_factory) -> dict:
    """Every workload once untraced and once traced."""
    out = {}
    for name in WORKLOADS:
        for traced in (False, True):
            workdir = tmp_path_factory.mktemp(f"{name}-{traced}")
            out[name, traced] = _run(name, workdir, traced)
    return out


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_two_runs_give_identical_digests(runs, name):
    (plain, _), (traced, _) = runs[name, False], runs[name, True]
    assert plain.digest and plain.digest == traced.digest
    assert plain.attempted == traced.attempted > 0


def test_paper_quick_and_eval_warm_share_artifact_digest(runs):
    assert runs["paper-quick", False][0].digest == runs["eval-warm", False][0].digest


def test_store_checks_hold(runs):
    warm = runs["eval-warm", False][0]
    assert warm.counters["store.misses"] == 0
    assert warm.counters["exec.completed"] == 0
    assert not [p for p in warm.problems if "store" in p or "simulated" in p]
    heavy = runs["sim-heavy", False][0]
    assert heavy.counters["store.writes"] == heavy.attempted == 12
    assert not heavy.problems


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_run_reports_every_metric(runs, name):
    _, tracer = runs[name, True]
    values = tracer.values()
    assert not tracer.absent
    for metric in tracing.traced_metrics():
        if metric not in tracing.COUNTER_METRICS:
            assert values[metric] is not None, metric


def test_layers_do_the_work_the_workloads_isolate(runs):
    """sim-heavy evaluates nothing; eval-warm simulates nothing."""
    heavy = runs["sim-heavy", True][1].values()
    warm = runs["eval-warm", True][1].values()
    paper = runs["paper-quick", True][1].values()
    assert heavy["eval.trace_deliver_n"] == 0 and heavy["sim.run_n"] == 12
    assert warm["sim.run_n"] == 0 and warm["exec.tasks"] == 0
    assert warm["store.get_n"] == paper["sim.run_n"] == 13
    assert warm["eval.trace_deliver_n"] == paper["eval.trace_deliver_n"] > 0
    assert paper["coding.recoverable_mask_distinct"] > 0
    assert all(paper[f"experiments.{eid}_s"] > 0 for eid in tracing.EXPERIMENT_IDS)


def test_removed_entry_point_is_reported_absent(monkeypatch):
    from repro.phy.batch import BatchReceptionEngine

    monkeypatch.delattr(BatchReceptionEngine, "decode_hard_ragged")
    tracer = tracing.Tracer()
    with tracing.installed(tracer):
        pass
    values = tracer.values()
    assert values["phy.decode_s"] is None
    assert values["phy.decoded_words"] is None
    assert values["sim.run_s"] == 0.0


def test_removed_result_attribute_is_reported_absent():
    probe = tracing.Probe(
        "x:y", "sim.run_s", tallies=(("sim.receptions", lambda a, k, r: len(r.records)),)
    )
    tracer = tracing.Tracer()
    assert tracer.call(probe, "y", lambda: 7, (), {}) == 7
    assert "sim.receptions" in tracer.absent
    assert tracer.values()["sim.receptions"] is None


def test_installed_restores_every_entry_point():
    import repro.experiments.common as common
    import repro.sim.metrics as metrics

    before = (metrics.trace_deliver, common.evaluate_schemes, common.RunCache.prefetch)
    with tracing.installed(tracing.Tracer()):
        assert metrics.trace_deliver is not before[0]
        assert common.evaluate_schemes is not before[1]
    assert (metrics.trace_deliver, common.evaluate_schemes, common.RunCache.prefetch) == before


def test_self_time_subtracts_children():
    tracer = tracing.Tracer()
    tracer.spans = [["outer", -1, 0.0, 10.0], ["inner", 0, 2.0, 5.0]]
    table = tracer.self_times()
    assert table["outer"]["self_s"] == 7.0
    assert table["inner"]["self_s"] == 3.0


def test_benchmark_json_lists_every_per_layer_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    listed = [(m["name"], m["unit"]) for m in spec["per_layer"]]
    assert listed == [(m, runner.unit_of(m)) for m in runner.per_layer_metrics()]
    end_to_end = [(m["name"], m["unit"]) for m in spec["end_to_end"]]
    assert end_to_end == [(m, runner.unit_of(m)) for m in ("wall_s", "setup_s", "peak_rss_mb")]
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS) == list(runner.WORKLOADS)


def test_refuses_a_directory_without_the_program(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench")
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sim-heavy"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
