"""Figure 9: delivery rate CDF, carrier sense off, moderate load.

Claim: packet CRC turns very poor without carrier sense while PPR and
fragmented CRC stay roughly unchanged (vs Fig. 8's carrier-sense-on
condition, which this experiment also evaluates for the comparison).
"""

from __future__ import annotations

from repro.experiments import delivery
from repro.experiments.common import (
    LOAD_MODERATE,
    ExperimentOutput,
    ShapeCheck,
    grid,
    labelled_evaluations,
    mean_delivery_rate,
)
from repro.experiments.registry import register
from repro.sim.network import SimulationResult


@register(
    "fig9",
    title="Delivery rate CDF, carrier sense off, 3.5 Kbit/s/node",
    paper_expectation=(
        "packet CRC very poor without carrier sense; PPR and "
        "fragmented CRC roughly unchanged"
    ),
    points=grid(load=LOAD_MODERATE, carrier_sense=(False, True)),
    order=9,
)
def run(runs: list[SimulationResult]) -> ExperimentOutput:
    """Fig. 9: moderate load, carrier sense disabled."""
    no_cs, cs = runs
    evals = labelled_evaluations(no_cs)
    checks = delivery.common_checks(evals)
    # Fig. 9-specific claim: PPR / frag roughly unchanged vs Fig. 8.
    evals_cs = labelled_evaluations(cs)
    ppr_cs = mean_delivery_rate(evals_cs["ppr, postamble"])
    ppr_nocs = mean_delivery_rate(evals["ppr, postamble"])
    pkt_cs = mean_delivery_rate(evals_cs["packet_crc, no postamble"])
    pkt_nocs = mean_delivery_rate(evals["packet_crc, no postamble"])
    checks.append(
        ShapeCheck(
            name="PPR roughly unchanged without carrier sense",
            passed=abs(ppr_cs - ppr_nocs) <= 0.15,
            detail=f"ppr postamble mean: cs={ppr_cs:.3f} "
            f"no-cs={ppr_nocs:.3f}",
        )
    )
    checks.append(
        ShapeCheck(
            name="packet CRC hurt at least as much as PPR by disabling "
            "carrier sense",
            passed=(pkt_cs - pkt_nocs) >= (ppr_cs - ppr_nocs) - 0.05,
            detail=f"pkt drop {pkt_cs - pkt_nocs:+.3f} vs "
            f"ppr drop {ppr_cs - ppr_nocs:+.3f}",
        )
    )
    return ExperimentOutput(
        rendered=delivery.render(evals),
        shape_checks=checks,
        series=delivery.rate_series(evals),
    )
