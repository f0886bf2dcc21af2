"""Figure 8: delivery rate CDF, carrier sense on, moderate load.

Claims: postamble decoding roughly doubles median frame delivery;
PPR > fragmented CRC > packet CRC.
"""

from __future__ import annotations

from repro.experiments import delivery
from repro.experiments.common import (
    LOAD_MODERATE,
    ExperimentOutput,
    grid,
    labelled_evaluations,
)
from repro.experiments.registry import register
from repro.sim.network import SimulationResult


@register(
    "fig8",
    title="Delivery rate CDF, carrier sense on, 3.5 Kbit/s/node",
    paper_expectation=(
        "postamble decoding raises median delivery ~2x; "
        "PPR > fragmented CRC > packet CRC"
    ),
    points=grid(load=LOAD_MODERATE, carrier_sense=True),
    order=8,
)
def run(runs: list[SimulationResult]) -> ExperimentOutput:
    """Fig. 8: moderate load, carrier sense enabled."""
    (result,) = runs
    evals = labelled_evaluations(result)
    return ExperimentOutput(
        rendered=delivery.render(evals),
        shape_checks=delivery.common_checks(evals),
        series=delivery.rate_series(evals),
    )
