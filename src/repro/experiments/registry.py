"""Declarative experiment registry.

Every ``exp_*`` module registers exactly one :class:`ExperimentSpec`
via the :func:`register` decorator, declaring its id, title, the
paper's expectation, and — crucially — the simulation points it needs
as :class:`~repro.experiments.common.Scenario` overrides of the run
cache's base config.  The runner prefetches the union of the selected
experiments' declared points (sharded across worker processes) before
any experiment body runs; because the declaration lives next to the
code, there is no shadow point map to drift out of date.

Registration example::

    @register(
        "fig3",
        title="Hamming distance distributions",
        paper_expectation="correct and incorrect codewords separate",
        points=grid(load=(3500.0, 6900.0, 13800.0), carrier_sense=False),
        order=3,
    )
    def run(runs):
        moderate, medium, heavy = runs
        ...
        return ExperimentOutput(rendered=..., shape_checks=..., series=...)

The declared points are the only statement of what an experiment
simulates.  The registered callable takes a :class:`RunCache`,
resolves the points through it in declaration order and hands the body
their :class:`~repro.sim.network.SimulationResult` list; an experiment
that declares no points runs without a cache and its body takes no
arguments.  The wrapper stamps the spec's identity
onto the body's :class:`~repro.experiments.common.ExperimentOutput`,
so id/title/expectation are stated exactly once, on the spec.

An experiment that reads another's output declares it the same way,
as ``needs=("fig16",)``: the body then receives, after its runs, one
:class:`~repro.experiments.common.ExperimentResult` per need in
declaration order.  The caller may hand those results in (the runner
computes each needed experiment once per invocation and reuses it);
otherwise the wrapper runs the needed experiment itself.
"""

from __future__ import annotations

import functools
import importlib
import pkgutil
from dataclasses import dataclass, field
from typing import Any, Callable, Mapping

from repro.experiments.common import (
    ExperimentOutput,
    ExperimentResult,
    RunCache,
    Scenario,
    Sweep,
)
from repro.sim.network import SimulationConfig


@dataclass(frozen=True)
class ExperimentSpec:
    """Declarative description of one registered experiment."""

    experiment_id: str
    title: str
    paper_expectation: str
    points: tuple[Scenario, ...]
    #: ids of the experiments whose results the body receives
    needs: tuple[str, ...]
    order: float
    run: Callable[..., ExperimentResult] = field(compare=False)

    def configs(self, base: SimulationConfig) -> list[SimulationConfig]:
        """The simulation configs the declared points resolve to."""
        return [scenario.config(base) for scenario in self.points]


_REGISTRY: dict[str, ExperimentSpec] = {}


def register(
    experiment_id: str,
    *,
    title: str,
    paper_expectation: str,
    points: tuple[Scenario, ...] = (),
    needs: tuple[str, ...] = (),
    order: float = 0.0,
) -> Callable[[Callable[..., ExperimentOutput]], Callable[..., ExperimentResult]]:
    """Declare an experiment and register it under ``experiment_id``.

    ``points`` are the simulation points the experiment's body
    receives, as scenarios over the cache's base config; ``needs``
    names the experiments whose results it receives after them;
    ``order`` sorts ``--list`` / ``--all`` presentation.  Registering
    the same id twice is an error — one module, one experiment.
    """

    points = tuple(points)
    needs = tuple(needs)

    def decorate(
        fn: Callable[..., ExperimentOutput],
    ) -> Callable[..., ExperimentResult]:
        @functools.wraps(fn)
        def run(
            cache: RunCache | None = None,
            needed: Mapping[str, ExperimentResult] | None = None,
        ) -> ExperimentResult:
            inputs: list[Any] = []
            if points:
                if cache is None:
                    raise TypeError(
                        f"experiment {experiment_id!r} declares "
                        f"{len(points)} simulation point(s); pass a "
                        "RunCache to resolve them through"
                    )
                inputs.append(
                    [result for _, result in Sweep(points).run(cache)]
                )
            needed = needed or {}
            inputs += [
                needed[name] if name in needed else get_spec(name).run(cache)
                for name in needs
            ]
            output = fn(*inputs)
            return ExperimentResult(
                experiment_id=experiment_id,
                title=title,
                paper_expectation=paper_expectation,
                rendered=output.rendered,
                shape_checks=list(output.shape_checks),
                series=dict(output.series),
            )

        spec = ExperimentSpec(
            experiment_id=experiment_id,
            title=title,
            paper_expectation=paper_expectation,
            points=points,
            needs=needs,
            order=float(order),
            run=run,
        )
        existing = _REGISTRY.get(experiment_id)
        if existing is not None:
            raise ValueError(
                f"experiment {experiment_id!r} registered twice "
                f"(first by {getattr(existing.run, '__module__', '?')}, "
                f"again by {getattr(fn, '__module__', '?')})"
            )
        _REGISTRY[experiment_id] = spec
        return run

    return decorate


def discover() -> None:
    """Import every ``repro.experiments.exp_*`` module (idempotent).

    Importing a module triggers its :func:`register` call; modules
    already imported are no-ops, so discovery is safe to call from
    the runner, tests, and tooling alike.
    """
    pkg = importlib.import_module("repro.experiments")
    for info in pkgutil.iter_modules(pkg.__path__):
        if info.name.startswith("exp_"):
            importlib.import_module(f"{pkg.__name__}.{info.name}")


def all_specs() -> list[ExperimentSpec]:
    """Every registered spec, in presentation order."""
    discover()
    return sorted(
        _REGISTRY.values(), key=lambda s: (s.order, s.experiment_id)
    )


def get_spec(experiment_id: str) -> ExperimentSpec:
    """The spec registered under ``experiment_id``.

    Raises ``ValueError`` (listing what is available) for unknown ids.
    """
    discover()
    try:
        return _REGISTRY[experiment_id]
    except KeyError:
        raise ValueError(
            f"unknown experiment {experiment_id!r}; available: "
            f"{sorted(_REGISTRY)}"
        ) from None
