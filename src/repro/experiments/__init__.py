"""Experiment harness: one module per table/figure of the paper.

Every ``exp_*`` module registers a declarative
:class:`~repro.experiments.registry.ExperimentSpec` — id, title, the
paper's expectation, and the simulation points it needs — and returns
a result object with a stable JSON schema.  ``python -m
repro.experiments.runner --all`` regenerates everything (``--list``
enumerates, ``--format json`` / ``--out DIR`` emit machine-readable
artifacts); the pytest benchmarks call the same entry points and
assert the *shape* checks (who wins, by roughly what factor, where
crossovers fall).
"""

from repro.experiments.common import (
    LOAD_HEAVY,
    LOAD_MEDIUM,
    LOAD_MODERATE,
    ExperimentOutput,
    ExperimentResult,
    RunCache,
    Scenario,
    ShapeCheck,
    Sweep,
    grid,
    labelled_evaluations,
    sweep,
)
from repro.experiments.registry import (
    ExperimentSpec,
    all_specs,
    discover,
    get_spec,
    register,
)

__all__ = [
    "ExperimentOutput",
    "ExperimentResult",
    "ExperimentSpec",
    "LOAD_HEAVY",
    "LOAD_MEDIUM",
    "LOAD_MODERATE",
    "RunCache",
    "Scenario",
    "ShapeCheck",
    "Sweep",
    "all_specs",
    "discover",
    "get_spec",
    "grid",
    "labelled_evaluations",
    "register",
    "sweep",
]
