"""Per-layer tracing from outside the program.

:func:`installed` wraps public entry points of each layer, replacing
every reference a ``repro`` module holds (a class attribute for a
method, each module global bound to the function otherwise), so the
wrappers see calls wherever the callers look them up.  Each wrapped
call records a span with its parent span, so self time can be
computed, and tallies counts from the call's arguments and return
value only.

Nothing here reaches into private state.  An entry point or attribute
that has gone is reported as absent (value ``None``) instead of
failing the run; no such metric is absent on the code this benchmark
was written against.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import inspect
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Callable, Iterator

import numpy as np

#: A tally reads one count from a call's ``(args, kwargs, result)``.
Tally = Callable[[tuple, dict, Any], int]
#: A key reads one hashable value from a call's ``(args, kwargs)``.
Key = Callable[[tuple, dict], Any]

#: What a tally or key may raise when the attribute it reads has gone.
_SHAPE_ERRORS = (AttributeError, TypeError, IndexError, KeyError)


def _arg(index: int, name: str) -> Callable[[tuple, dict], Any]:
    """Read an argument by position (``self`` counts) or keyword."""
    return lambda args, kwargs: (
        kwargs[name] if name in kwargs else args[index]
    )


def _size_of(index: int, name: str) -> Tally:
    get = _arg(index, name)
    return lambda args, kwargs, result: int(np.size(get(args, kwargs)))


def _ragged_size(index: int, name: str) -> Tally:
    get = _arg(index, name)
    return lambda args, kwargs, result: sum(
        int(np.size(words)) for words in get(args, kwargs)
    )


def _mask_pattern(args: tuple, kwargs: dict) -> tuple:
    data_ok = np.asarray(_arg(1, "data_ok")(args, kwargs))
    repair_ok = np.asarray(_arg(2, "repair_ok")(args, kwargs))
    return (
        data_ok.shape,
        data_ok.tobytes(),
        repair_ok.shape,
        repair_ok.tobytes(),
    )


@dataclass(frozen=True)
class Probe:
    """One wrapped entry point and the metrics it feeds.

    ``target`` is ``module:function`` or ``module:Class.method``.
    Every call adds its duration to ``time_metric`` unless a call
    feeding the same metric is already running (so nested calls are
    not counted twice), and one to ``calls_metric``.
    """

    target: str
    time_metric: str
    calls_metric: str | None = None
    tallies: tuple[tuple[str, Tally], ...] = ()
    distinct: tuple[tuple[str, Key], ...] = ()

    def metrics(self) -> list[str]:
        names = [self.time_metric, self.calls_metric]
        names += [name for name, _ in self.tallies]
        names += [name for name, _ in self.distinct]
        return [name for name in names if name is not None]


_RENDERERS = ("render_cdf", "render_series", "render_scatter", "format_table")

PROBES: tuple[Probe, ...] = (
    Probe("repro.experiments.common:RunCache.prefetch", "exec.prefetch_s"),
    Probe(
        "repro.exec.supervisor:Supervisor.run",
        "exec.supervisor_run_s",
        tallies=(("exec.tasks", lambda a, k, r: len(r[0]) + len(r[1])),),
    ),
    Probe("repro.store.core:RunStore.get", "store.get_s", "store.get_n"),
    Probe(
        "repro.store.core:RunStore.put",
        "store.put_s",
        "store.put_n",
        tallies=(("store.bytes", lambda a, k, r: r.stat().st_size),),
    ),
    Probe(
        "repro.sim.network:NetworkSimulation.run",
        "sim.run_s",
        "sim.run_n",
        tallies=(
            ("sim.transmissions", lambda a, k, r: len(r.transmissions)),
            ("sim.receptions", lambda a, k, r: len(r.records)),
        ),
    ),
    Probe("repro.sim.core:EventScheduler.run", "sim.scheduler_s"),
    Probe(
        "repro.sim.medium:RadioMedium.interference_timeline_mw",
        "sim.interference_s",
        "sim.interference_n",
    ),
    Probe(
        "repro.phy.chipchannel:chip_error_probability_interference",
        "phy.chip_error_prob_s",
        "phy.chip_error_prob_n",
    ),
    Probe(
        "repro.phy.chipchannel:transmit_chipwords_batch",
        "phy.transmit_s",
        tallies=(("phy.hot_codewords", _size_of(0, "tx_words")),),
    ),
    Probe(
        "repro.phy.batch:BatchReceptionEngine.decode_hard_ragged",
        "phy.decode_s",
        tallies=(("phy.decoded_words", _ragged_size(1, "word_arrays")),),
    ),
    *(
        Probe(f"repro.phy.batch:WaveformBatchEngine.{method}", "phy.waveform_s")
        for method in (
            "receive_collision_pair",
            "receive_residual",
            "receive_frames",
        )
    ),
    Probe("repro.recovery.sic:SicDecoder.decode_pair", "recovery.sic_s", "recovery.sic_n"),
    Probe(
        "repro.sim.metrics:evaluate_schemes",
        "eval.evaluate_schemes_s",
        "eval.evaluate_schemes_n",
    ),
    Probe(
        "repro.sim.metrics:trace_deliver",
        "eval.trace_deliver_s",
        "eval.trace_deliver_n",
    ),
    Probe("repro.sim.metrics:hint_histograms", "eval.hint_histograms_s"),
    Probe("repro.sim.metrics:miss_run_length_counts", "eval.miss_runs_s"),
    Probe(
        "repro.coding.rlnc:SegmentedRlncCodec.recoverable_mask",
        "coding.recoverable_mask_s",
        "coding.recoverable_mask_n",
        distinct=(("coding.recoverable_mask_distinct", _mask_pattern),),
    ),
    Probe("repro.arq.protocol:PpArqSession.transfer", "arq.transfer_s", "arq.transfer_n"),
    Probe("repro.arq.fullarq:FullPacketArqSession.transfer", "arq.transfer_s", "arq.transfer_n"),
    *(
        Probe(f"repro.analysis.textplot:{name}", "analysis.render_s")
        for name in _RENDERERS
    ),
)

#: The registered experiments when the benchmark was written; each
#: gets ``experiments.<id>_s`` around its ``ExperimentSpec.run``.
EXPERIMENT_IDS = (
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
    "waveform_capture",
    "sic_collision",
    "sweep_load",
    "coded_recovery",
)

#: Metrics read from the run's own ``StoreCounters``/``ExecCounters``.
COUNTER_METRICS = (
    "exec.retries",
    "exec.failed",
    "store.hits",
    "store.misses",
    "store.corrupt",
)


def traced_metrics() -> list[str]:
    """Every metric a traced run reports, probes first."""
    names = list(dict.fromkeys(m for probe in PROBES for m in probe.metrics()))
    names += COUNTER_METRICS
    names += [f"experiments.{eid}_s" for eid in EXPERIMENT_IDS]
    return names


class Tracer:
    """Spans and counts of one traced run, kept in memory.

    A span is ``[name, parent index or -1, start, end]`` with
    ``time.perf_counter`` stamps.
    """

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.times: defaultdict[str, float] = defaultdict(float)
        self.counts: Counter[str] = Counter()
        self.keys: defaultdict[str, set] = defaultdict(set)
        self.absent: dict[str, str] = {}
        self._stack: list[int] = []
        self._running: Counter[str] = Counter()

    def call(
        self, probe: Probe, name: str, fn: Callable, args: tuple, kwargs: dict
    ) -> Any:
        """Run ``fn`` inside a span and record the probe's metrics."""
        parent = self._stack[-1] if self._stack else -1
        span = [name, parent, time.perf_counter(), 0.0]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        self._running[probe.time_metric] += 1
        try:
            result = fn(*args, **kwargs)
        finally:
            span[3] = time.perf_counter()
            self._stack.pop()
            self._running[probe.time_metric] -= 1
            if not self._running[probe.time_metric]:
                self.times[probe.time_metric] += span[3] - span[2]
        if probe.calls_metric:
            self.counts[probe.calls_metric] += 1
        for metric, tally in probe.tallies:
            count = self._read(metric, tally, args, kwargs, result)
            if count is not None:
                self.counts[metric] += count
        for metric, key in probe.distinct:
            value = self._read(metric, key, args, kwargs)
            if value is not None:
                self.keys[metric].add(value)
        return result

    def _read(self, metric: str, read: Callable, *call: Any) -> Any:
        """``read(*call)``, or ``None`` once the metric is absent."""
        if metric in self.absent:
            return None
        try:
            return read(*call)
        except _SHAPE_ERRORS as exc:
            self.absent[metric] = f"{type(exc).__name__}: {exc}"
            return None

    def values(self) -> dict[str, float | int | None]:
        """Every probed metric's value; ``None`` when absent."""
        out: dict[str, float | int | None] = {}
        for probe in PROBES:
            out[probe.time_metric] = self.times[probe.time_metric]
            if probe.calls_metric:
                out[probe.calls_metric] = self.counts[probe.calls_metric]
            for metric, _ in probe.tallies:
                out[metric] = self.counts[metric]
            for metric, _ in probe.distinct:
                out[metric] = len(self.keys[metric])
        for eid in EXPERIMENT_IDS:
            out[f"experiments.{eid}_s"] = self.times[f"experiments.{eid}_s"]
        for metric in self.absent:
            out[metric] = None
        return out

    def self_times(self) -> dict[str, dict[str, float]]:
        """Calls, total and self time per span name.

        Self time is a span's duration minus the part its child spans
        cover; totals count nested spans of the same name again.
        """
        child = [0.0] * len(self.spans)
        for name, parent, start, end in self.spans:
            if parent >= 0:
                child[parent] += end - start
        table: dict[str, dict[str, float]] = {}
        for (name, _, start, end), covered in zip(self.spans, child, strict=True):
            row = table.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["total_s"] += end - start
            row["self_s"] += end - start - covered
        return table


def _resolve(target: str) -> tuple[Any, str, Callable]:
    """The owner object, attribute name and function behind a target."""
    module_name, _, path = target.partition(":")
    owner: Any = importlib.import_module(module_name)
    *owners, attr = path.split(".")
    for part in owners:
        owner = getattr(owner, part)
    original = inspect.getattr_static(owner, attr)
    if not inspect.isfunction(original):
        raise TypeError(f"{target} is not a plain function")
    return owner, attr, original


def _repro_modules() -> list[Any]:
    return [
        module
        for name, module in list(sys.modules.items())
        if module is not None and (name == "repro" or name.startswith("repro."))
    ]


def _wrap(tracer: Tracer, probe: Probe, name: str, fn: Callable) -> Callable:
    @functools.wraps(fn)
    def traced(*args: Any, **kwargs: Any) -> Any:
        return tracer.call(probe, name, fn, args, kwargs)

    return traced


def _patch_everywhere(
    owner: Any, attr: str, original: Callable, replacement: Callable
) -> list[tuple[Any, str, Any]]:
    """Point every reference to ``original`` at ``replacement``."""
    if isinstance(owner, type):
        setattr(owner, attr, replacement)
        return [(owner, attr, original)]
    patched = []
    for module in _repro_modules():
        for name, value in list(vars(module).items()):
            if value is original:
                setattr(module, name, replacement)
                patched.append((module, name, original))
    return patched


def _instrument_experiments(tracer: Tracer) -> list[tuple[Any, str, Any]]:
    """Time each ``ExperimentSpec.run`` as ``experiments.<id>_s``.

    The runner looks specs up through ``registry.get_spec``; the
    wrapper hands it a copy of the spec whose ``run`` is traced.
    """
    registry = importlib.import_module("repro.experiments.registry")
    get_spec = registry.get_spec
    registered = {spec.experiment_id for spec in registry.all_specs()}

    def traced_get_spec(experiment_id: str) -> Any:
        spec = get_spec(experiment_id)
        metric = f"experiments.{spec.experiment_id}_s"
        probe = Probe(f"experiments:{spec.experiment_id}", metric)
        return dataclasses.replace(
            spec, run=_wrap(tracer, probe, f"experiments.{spec.experiment_id}", spec.run)
        )

    for eid in EXPERIMENT_IDS:
        if eid not in registered:
            tracer.absent[f"experiments.{eid}_s"] = "not registered"
    return _patch_everywhere(registry, "get_spec", get_spec, traced_get_spec)


@contextmanager
def installed(tracer: Tracer) -> Iterator[Tracer]:
    """Wrap every probe's entry point for the duration of the block.

    Probes whose target cannot be resolved leave their metrics absent,
    unless another probe feeding the same metric did resolve.
    """
    importlib.import_module("repro.experiments.runner")
    importlib.import_module("repro.experiments.registry").discover()
    patches: list[tuple[Any, str, Any]] = []
    missing: dict[str, str] = {}
    resolved: set[str] = set()
    try:
        for probe in PROBES:
            try:
                owner, attr, original = _resolve(probe.target)
            except (ImportError, AttributeError, TypeError) as exc:
                for metric in probe.metrics():
                    missing.setdefault(metric, f"{probe.target}: {exc}")
                continue
            resolved.update(probe.metrics())
            name = probe.target.partition(":")[2]
            patches += _patch_everywhere(
                owner, attr, original, _wrap(tracer, probe, name, original)
            )
        try:
            patches += _instrument_experiments(tracer)
        except (ImportError, AttributeError) as exc:
            for eid in EXPERIMENT_IDS:
                tracer.absent[f"experiments.{eid}_s"] = str(exc)
        for metric, reason in missing.items():
            if metric not in resolved:
                tracer.absent[metric] = reason
        yield tracer
    finally:
        for owner, attr, original in reversed(patches):
            setattr(owner, attr, original)
