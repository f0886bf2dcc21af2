"""One phase of one workload, in a fresh interpreter.

``python3 -m perfbench.phase REQUEST_JSON`` runs either

* ``setup``: imports, registry discovery and the workload's
  ``prepare``; it reports the time from the parent's spawn to ready;
* ``timed``: imports and discovery (untimed), then the workload's
  ``execute`` under the clock, then its checks.  Peak memory is the
  larger of this process's high-water mark, reset just before the
  timed call, and the largest worker's (every child of this process
  is a worker of the timed call).  With ``trace`` set, the per-layer
  wrappers are installed around the timed call and the spans are
  written to ``trace_out``.

The result goes to the JSON file named by ``result``.  The parent
passes ``spawned_at`` from ``time.monotonic``, which is system-wide
on Linux, so set-up includes interpreter start.
"""

from __future__ import annotations

import contextlib
import json
import resource
import sys
import time
from pathlib import Path

from perfbench import tracing
from perfbench.workloads import WORKLOADS, Context, experiment_ids


def _reset_peak_rss() -> None:
    """Restart this process's VmHWM from its current RSS.

    Where the kernel refuses, the peak also covers the imports.
    """
    try:
        with open("/proc/self/clear_refs", "w") as fh:
            fh.write("5")
    except OSError:
        pass


def _peak_rss_kb() -> int:
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM in /proc/self/status")


def _context(request: dict) -> Context:
    experiment_ids()  # registry discovery imports every experiment
    return Context(seed=request["seed"], workdir=Path(request["workdir"]))


def run_setup(request: dict) -> dict:
    WORKLOADS[request["workload"]].prepare(_context(request))
    return {"setup_s": time.monotonic() - request["spawned_at"]}


def run_timed(request: dict) -> dict:
    workload = WORKLOADS[request["workload"]]
    ctx = _context(request)
    jobs = request.get("jobs") or workload.jobs
    tracer = tracing.Tracer() if request.get("trace") else None
    _reset_peak_rss()
    with tracing.installed(tracer) if tracer else contextlib.nullcontext():
        start = time.perf_counter()
        run = workload.execute(ctx, jobs)
        wall_s = time.perf_counter() - start
    own_kb = _peak_rss_kb()
    workers_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    outcome = workload.check(ctx, run)
    result = {
        "wall_s": wall_s,
        "peak_rss_mb": max(own_kb, workers_kb) / 1024,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "problems": outcome.problems,
        "digest": outcome.digest,
    }
    if tracer is not None:
        values = tracer.values()
        for metric in tracing.COUNTER_METRICS:
            values[metric] = outcome.counters.get(metric)
        result["per_layer"] = values
        result["absent"] = tracer.absent
        Path(request["trace_out"]).write_text(
            json.dumps(
                {
                    "workload": request["workload"],
                    "seed": request["seed"],
                    "wall_s": wall_s,
                    "self_times": tracer.self_times(),
                    "spans": tracer.spans,
                }
            )
        )
    return result


def main(argv: list[str]) -> int:
    request = json.loads(argv[0])
    phases = {"setup": run_setup, "timed": run_timed}
    result = phases[request["mode"]](request)
    Path(request["result"]).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
