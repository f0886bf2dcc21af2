"""Shared experiment infrastructure: run cache, scenarios, results.

The paper's evaluation post-processes one set of recorded traces per
condition; here every condition is a full (frozen)
:class:`SimulationConfig` and :class:`RunCache` simulates each config
at most once, whoever asks.  Because the cache key is the entire
config, any axis an experiment sweeps — load, carrier sense, seed,
payload, duration, noise floor — produces its own entry; two
different configurations can never silently alias.

On top of the cache sits a small declarative layer:

* :func:`grid` / :func:`sweep` — build the cross product of named
  axes as :class:`Scenario` objects and fan them through a cache
  (sharded across worker processes when ``jobs > 1``).
* :class:`ExperimentResult` — the common result wrapper, with a
  stable JSON-serializable schema (:meth:`ExperimentResult.to_dict` /
  :meth:`ExperimentResult.from_dict`) so CI and downstream analysis
  consume machine-readable artifacts instead of scraping stdout.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field, replace
from itertools import product
from typing import TYPE_CHECKING, Any, Callable, Iterable

import numpy as np

from repro._version import __version__
from repro.arq.runlength import PAPER_ETA
from repro.exec import (
    ExecCounters,
    ExecPolicy,
    Supervisor,
    SweepExecutionError,
    Task,
    TaskFailure,
)
from repro.link.schemes import default_schemes
from repro.sim.metrics import SchemeEvaluation, evaluate_schemes
from repro.sim.network import (
    NetworkSimulation,
    SimulationConfig,
    SimulationResult,
)
from repro.store.keys import config_digest

if TYPE_CHECKING:
    from repro.store import RunStore

LOAD_MODERATE = 3500.0
LOAD_MEDIUM = 6900.0
LOAD_HEAVY = 13800.0

DEFAULT_PAYLOAD_BYTES = 1500
DEFAULT_DURATION_S = 40.0
DEFAULT_SEED = 2007  # year of publication

RESULT_SCHEMA_VERSION = 1

# The harness's base simulation point (``RunCache``'s base before its
# overrides).
# Experiments and sweeps express themselves as *overrides* of this
# config; the paper's offered loads and carrier-sense settings are
# always set explicitly per experiment.
_EXPERIMENT_BASE = SimulationConfig(
    load_bits_per_s_per_node=LOAD_MODERATE,
    payload_bytes=DEFAULT_PAYLOAD_BYTES,
    duration_s=DEFAULT_DURATION_S,
    carrier_sense=False,
    seed=DEFAULT_SEED,
)

_CONFIG_FIELDS = {f.name for f in dataclasses.fields(SimulationConfig)}

# Friendly axis/override spellings accepted everywhere a config field
# name is (``cache.get(load=...)``, ``sweep(loads=..., seeds=...)``).
_FIELD_ALIASES = {
    "load": "load_bits_per_s_per_node",
    "loads": "load_bits_per_s_per_node",
    "seeds": "seed",
    "duration": "duration_s",
    "durations": "duration_s",
    "payload": "payload_bytes",
    "payloads": "payload_bytes",
}

# Reverse map for compact scenario labels.
_SHORT_NAMES = {"load_bits_per_s_per_node": "load"}


def _resolve_overrides(overrides: dict[str, Any]) -> dict[str, Any]:
    """Map aliased override names onto SimulationConfig fields, strictly."""
    resolved: dict[str, Any] = {}
    for name, value in overrides.items():
        target = _FIELD_ALIASES.get(name, name)
        if target not in _CONFIG_FIELDS:
            raise ValueError(
                f"unknown SimulationConfig field {name!r}; valid fields: "
                f"{sorted(_CONFIG_FIELDS)} (aliases: "
                f"{sorted(_FIELD_ALIASES)})"
            )
        if target in resolved:
            raise ValueError(
                f"override {name!r} duplicates field {target!r}"
            )
        resolved[target] = value
    return resolved


@dataclass(frozen=True)
class ShapeCheck:
    """One verifiable claim about the reproduced result's shape."""

    name: str
    passed: bool
    detail: str = ""

    def __str__(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        suffix = f" ({self.detail})" if self.detail else ""
        return f"[{status}] {self.name}{suffix}"


def _jsonify(value: Any) -> Any:
    """Coerce a series value into plain JSON-serializable data.

    numpy arrays become (nested) lists, numpy scalars python scalars,
    mapping keys strings (tuple keys joined with ``-``).  Anything
    else is rejected so the schema stays honest.
    """
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, np.generic):
        return value.item()
    if isinstance(value, dict):
        return {_json_key(k): _jsonify(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonify(v) for v in value]
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    raise TypeError(
        f"series value of type {type(value).__name__} has no stable "
        "JSON form"
    )


def _json_key(key: Any) -> str:
    if isinstance(key, str):
        return key
    if isinstance(key, tuple):
        return "-".join(str(_jsonify(part)) for part in key)
    if isinstance(key, (bool, int, float, np.generic)):
        return str(_jsonify(key))
    raise TypeError(
        f"series key of type {type(key).__name__} has no stable JSON form"
    )


@dataclass
class ExperimentResult:
    """Common wrapper every experiment returns."""

    experiment_id: str
    title: str
    paper_expectation: str
    rendered: str
    shape_checks: list[ShapeCheck] = field(default_factory=list)
    series: dict = field(default_factory=dict)

    @property
    def all_passed(self) -> bool:
        """Whether every shape check held."""
        return all(c.passed for c in self.shape_checks)

    def summary(self) -> str:
        """Render the full experiment report."""
        lines = [
            f"=== {self.experiment_id}: {self.title} ===",
            f"Paper: {self.paper_expectation}",
            "",
            self.rendered,
            "",
        ]
        lines.extend(str(c) for c in self.shape_checks)
        return "\n".join(lines)

    def to_dict(self) -> dict:
        """Stable JSON-serializable form (schema v1).

        Deterministic for a deterministic experiment: numpy series are
        coerced to plain data and no timing information is included,
        so two equivalent runs (any ``jobs`` count, warm or cold
        store) produce byte-identical documents.  The package
        version is stamped in (equivalent runs of the *same* code stay
        byte-identical; results from different code are telling the
        truth about their provenance).
        """
        return {
            "schema_version": RESULT_SCHEMA_VERSION,
            "repro_version": __version__,
            "experiment_id": self.experiment_id,
            "title": self.title,
            "paper_expectation": self.paper_expectation,
            "rendered": self.rendered,
            "shape_checks": [
                {
                    "name": c.name,
                    "passed": bool(c.passed),
                    "detail": c.detail,
                }
                for c in self.shape_checks
            ],
            "all_passed": self.all_passed,
            "series": _jsonify(self.series),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentResult":
        """Rebuild a result from :meth:`to_dict` output.

        Series come back as the plain JSON data ``to_dict`` wrote
        (arrays as lists), so ``from_dict(d).to_dict() == d``.
        """
        version = data.get("schema_version")
        if version != RESULT_SCHEMA_VERSION:
            raise ValueError(
                f"unsupported result schema version {version!r} "
                f"(expected {RESULT_SCHEMA_VERSION})"
            )
        return cls(
            experiment_id=data["experiment_id"],
            title=data["title"],
            paper_expectation=data["paper_expectation"],
            rendered=data["rendered"],
            shape_checks=[
                ShapeCheck(
                    name=c["name"],
                    passed=bool(c["passed"]),
                    detail=c.get("detail", ""),
                )
                for c in data["shape_checks"]
            ],
            series=dict(data["series"]),
        )


@dataclass
class ExperimentOutput:
    """What an experiment body computes.

    Identity (id, title, paper expectation) lives on the registered
    :class:`~repro.experiments.registry.ExperimentSpec`; the registry
    stamps it onto a full :class:`ExperimentResult` so each module
    states those strings exactly once.
    """

    rendered: str
    shape_checks: list[ShapeCheck] = field(default_factory=list)
    series: dict = field(default_factory=dict)


# -- scenarios and sweeps ----------------------------------------------------


@dataclass(frozen=True)
class Scenario:
    """One simulation point: SimulationConfig field overrides."""

    overrides: tuple[tuple[str, Any], ...] = ()

    def config(self, base: SimulationConfig) -> SimulationConfig:
        """Resolve this scenario against a base config."""
        if not self.overrides:
            return base
        return replace(base, **dict(self.overrides))

    def label(self) -> str:
        """Compact human-readable tag, e.g. ``load=3500, seed=2008``."""
        parts = [
            f"{_SHORT_NAMES.get(name, name)}={value}"
            for name, value in self.overrides
        ]
        return ", ".join(parts) if parts else "base"


def grid(**axes: Any) -> tuple[Scenario, ...]:
    """Cross product of named axes as :class:`Scenario`s.

    Axis values may be scalars or iterables.  Every name must resolve
    to a SimulationConfig field (aliases like ``load``/``loads``/
    ``seeds`` accepted); anything else — an evaluation knob such as η
    included — is an unknown-field error, since it would not change
    what is simulated.  Axis order is preserved in labels, with the
    rightmost axis varying fastest.
    """
    fields = _resolve_overrides(axes)
    values = [
        (vals,)
        if isinstance(vals, (str, bytes)) or not isinstance(vals, Iterable)
        else tuple(vals)
        for vals in fields.values()
    ]
    return tuple(
        Scenario(tuple(zip(fields, combo, strict=True)))
        for combo in product(*values)
    )


@dataclass(frozen=True)
class Sweep:
    """A set of scenarios to fan through a :class:`RunCache`."""

    scenarios: tuple[Scenario, ...]

    def configs(self, base: SimulationConfig) -> list[SimulationConfig]:
        """Every scenario's simulation config against a base."""
        return [s.config(base) for s in self.scenarios]

    def run(
        self, cache: "RunCache"
    ) -> list[tuple[Scenario, SimulationResult]]:
        """Simulate (or fetch) every scenario, prefetching in parallel.

        Uncached configs are sharded across the cache's worker
        processes first, then each ``(scenario, result)`` pair is
        returned in scenario order.
        """
        configs = self.configs(cache.base)
        cache.prefetch(configs)
        return [
            (scenario, cache.get(config))
            for scenario, config in zip(self.scenarios, configs, strict=True)
        ]


def sweep(**axes: Any) -> Sweep:
    """Build a :class:`Sweep` over the cross product of named axes.

    ``sweep(loads=(3500, 13800), seeds=range(3)).run(cache)`` fans six
    simulation points through the cache and returns their scenarios
    paired with results.
    """
    return Sweep(grid(**axes))


# -- the run cache -----------------------------------------------------------


def _simulate_config(config: SimulationConfig) -> SimulationResult:
    """Worker body: one simulation point, start to finish.

    Module-level so it pickles under every start method.  Each config
    is a fully independent simulation — its streams derive from the
    seed and per-pair keys, never from process or execution order —
    which is what makes the fan-out deterministic for any worker
    count.  The supervised worker entry (``repro.exec.supervisor``)
    ships each run's ``REPRO_SANITIZE`` ledger back with its result,
    so cross-worker stream collisions are still caught per point.
    """
    return NetworkSimulation(config).run()


class RunCache:
    """Cache of simulation runs keyed by the full frozen config.

    Each distinct :class:`SimulationConfig` is simulated at most once;
    because the key is the entire config, sweeping *any* axis (seed,
    payload, duration, ...) creates distinct entries — nothing can
    alias.  ``jobs > 1`` fans uncached configs across worker processes
    when several are requested at once (:meth:`prefetch`); results are
    bit-identical for any worker count, including ``jobs=1``, because
    every config's randomness derives from its own fields alone.

    ``base`` (the harness base config with the constructor's keyword
    overrides: ``RunCache(duration_s=3.0, seed=11, jobs=4)``) supplies
    the fields an individual request does not override:
    ``cache.get(load=13800.0, carrier_sense=False)`` resolves against
    it, as do :class:`Sweep` scenarios and registered experiment
    points.

    ``store`` attaches a durable :class:`~repro.store.RunStore`: the
    hit order becomes memory → disk → simulate, fresh simulations are
    written back, and because the store round-trips runs bit-for-bit,
    everything downstream stays on the determinism contract whether a
    run was simulated or loaded.

    Simulation happens under a :class:`~repro.exec.Supervisor`
    (retry/timeout knobs from ``REPRO_EXEC``): per-point timeouts,
    crash isolation, bounded deterministic retries, and immediate
    per-point store write-back.
    Points that fail permanently raise :class:`~repro.exec.
    SweepExecutionError` and are negatively cached — a later request
    for the same config re-raises instead of burning the retry budget
    again — while every other point completes and is cached normally.
    ``exec_counters`` accumulates the supervisor's observability
    counters across prefetches.
    """

    def __init__(
        self,
        *,
        jobs: int = 1,
        store: "RunStore | None" = None,
        **overrides: Any,
    ) -> None:
        if jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {jobs}")
        self.base = replace(_EXPERIMENT_BASE, **_resolve_overrides(overrides))
        self.jobs = int(jobs)
        self.store = store
        self.exec_counters = ExecCounters()
        self._cache: dict[SimulationConfig, SimulationResult] = {}
        self._failed: dict[SimulationConfig, TaskFailure] = {}

    def config_for(self, **overrides: Any) -> SimulationConfig:
        """The base config with field overrides (aliases accepted)."""
        if not overrides:
            return self.base
        return replace(self.base, **_resolve_overrides(overrides))

    def prefetch(
        self,
        configs: Iterable[SimulationConfig],
        idle: Callable[[], bool] | None = None,
    ) -> None:
        """Resolve any uncached configs: disk first, then simulate.

        Hit order is memory → backing store (when one is attached) →
        simulate, with every fresh simulation written back to the
        store *as it completes* — an interrupted or partially-failed
        sweep keeps everything it finished and resumes warm.  Uncached
        configs run under the supervisor, sharded across ``jobs``
        worker processes; the cache ends up exactly as if every config
        had been simulated sequentially, bit for bit.  They launch
        heaviest first, by offered load times duration (ties in the
        order given), so the longest simulations do not start last
        and become the tail.  ``idle`` is handed to
        :meth:`Supervisor.run`: the parent's own work while its
        workers simulate.

        Raises :class:`~repro.exec.SweepExecutionError` when any
        requested point failed permanently — on this call (after every
        other point completed) or on an earlier one (the failure is
        cached; the point is not re-attempted).
        """
        # An order-preserving dict doubles as the dedup set: configs
        # are hashable, so membership is O(1) instead of the O(n) list
        # probe that made large sweep prefetches quadratic.
        missing: dict[SimulationConfig, None] = {}
        for config in configs:
            if config not in self._cache:
                missing[config] = None
        known_bad = [
            self._failed[config] for config in missing if config in self._failed
        ]
        if known_bad:
            raise SweepExecutionError(known_bad)
        if missing and self.store is not None:
            for config in list(missing):
                stored = self.store.get(config)
                if stored is not None:
                    self._cache[config] = stored
                    del missing[config]
        if not missing:
            return
        policy = ExecPolicy.from_env()
        heaviest_first = sorted(
            missing, key=lambda c: -c.load_bits_per_s_per_node * c.duration_s
        )
        digests = [config_digest(config) for config in heaviest_first]
        tasks = [
            Task(
                task_id=index,
                payload=config,
                key=digest,
                timeout_s=policy.timeout_for(config.duration_s),
                label=f"point {digest.hex()[:12]}",
            )
            for index, (config, digest) in enumerate(
                zip(heaviest_first, digests, strict=True)
            )
        ]
        supervisor = Supervisor(
            jobs=min(self.jobs, len(tasks)),
            policy=policy,
            counters=self.exec_counters,
        )
        _, failures = supervisor.run(
            tasks,
            _simulate_config,
            on_result=lambda task, result: self._store_result(
                task.payload, result
            ),
            idle=idle,
        )
        if failures:
            for failure in failures:
                self._failed[failure.task.payload] = failure
            raise SweepExecutionError(failures)

    def holds(self, config: SimulationConfig) -> bool:
        """Whether ``config``'s run is in memory."""
        return config in self._cache

    def drop(self, config: SimulationConfig) -> None:
        """Forget ``config``'s run (a store keeps its copy)."""
        self._cache.pop(config, None)

    def _store_result(
        self, config: SimulationConfig, result: SimulationResult
    ) -> None:
        """Cache a fresh simulation, writing back to the store."""
        self._cache[config] = result
        if self.store is not None:
            self.store.put(config, result)

    def get(
        self,
        config: SimulationConfig | None = None,
        **overrides: Any,
    ) -> SimulationResult:
        """The cached run for a config, simulating on first use.

        Pass either a full :class:`SimulationConfig` or field
        overrides against the base: ``cache.get(load=3500.0,
        carrier_sense=True)``.
        """
        if config is not None and overrides:
            raise TypeError(
                "pass either a full config or field overrides, not both"
            )
        if config is None:
            config = self.config_for(**overrides)
        if config not in self._cache:
            self.prefetch([config])
        return self._cache[config]


# -- shared evaluation helpers ----------------------------------------------


def labelled_evaluations(
    result: SimulationResult,
    *,
    eta: float = PAPER_ETA,
    postamble_options: tuple[bool, ...] = (False, True),
) -> dict[str, SchemeEvaluation]:
    """Evaluate the paper's schemes on a run, keyed by variant label.

    The ``evaluate_schemes(...) + default_schemes()`` label-keyed
    boilerplate every delivery experiment used to repeat, in one
    place.  Labels look like ``"ppr, postamble"``.
    """
    evals = evaluate_schemes(
        result, default_schemes(eta), postamble_options
    )
    return {e.label: e for e in evals}


def mean_delivery_rate(evaluation: SchemeEvaluation) -> float:
    """Mean per-link equivalent frame delivery rate (0 when no links)."""
    rates = evaluation.delivery_rates()
    return float(np.mean(rates)) if rates else 0.0
