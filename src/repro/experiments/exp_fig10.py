"""Figure 10: delivery rate CDF, carrier sense off, heavy load.

Claim: packet CRC degrades substantially at 13.8 Kbit/s/node while
PPR's delivery rate remains high (compared against the moderate-load
no-carrier-sense condition, which this experiment also evaluates).
"""

from __future__ import annotations

from repro.experiments import delivery
from repro.experiments.common import (
    LOAD_HEAVY,
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
    "fig10",
    title="Delivery rate CDF, carrier sense off, 13.8 Kbit/s/node",
    paper_expectation=(
        "packet CRC performance collapses at high offered load; "
        "PPR's frame delivery rate remains high"
    ),
    points=grid(load=(LOAD_HEAVY, LOAD_MODERATE), carrier_sense=False),
    order=10,
)
def run(runs: list[SimulationResult]) -> ExperimentOutput:
    """Fig. 10: heavy load (13.8 Kbit/s/node), carrier sense disabled."""
    heavy, moderate = runs
    evals = labelled_evaluations(heavy)
    checks = delivery.common_checks(evals)
    evals_mod = labelled_evaluations(moderate)
    pkt_mod = mean_delivery_rate(evals_mod["packet_crc, no postamble"])
    pkt_heavy = mean_delivery_rate(evals["packet_crc, no postamble"])
    ppr_heavy = mean_delivery_rate(evals["ppr, postamble"])
    checks.append(
        ShapeCheck(
            name="packet CRC degrades substantially under heavy load",
            passed=pkt_heavy <= 0.75 * pkt_mod,
            detail=f"pkt mean {pkt_mod:.3f} (moderate) -> "
            f"{pkt_heavy:.3f} (heavy)",
        )
    )
    checks.append(
        ShapeCheck(
            name="PPR remains well above packet CRC under heavy load",
            passed=ppr_heavy >= 1.5 * pkt_heavy,
            detail=f"ppr+postamble {ppr_heavy:.3f} vs pkt "
            f"{pkt_heavy:.3f}",
        )
    )
    return ExperimentOutput(
        rendered=delivery.render(evals),
        shape_checks=checks,
        series=delivery.rate_series(evals),
    )
