"""Beyond the paper: seed-replicated load sweep with confidence bands.

The paper evaluates each offered load from a single testbed trace.
This experiment declares a load x seed grid to replicate every load
point across independent seeds and attach 95% confidence
intervals to the headline comparison (PPR with postamble decoding vs
the status-quo packet CRC without it) — establishing that the paper's
ordering is a property of the *conditions*, not of one noise
realisation.
"""

from __future__ import annotations

from repro.analysis.stats import mean_ci
from repro.analysis.textplot import format_table
from repro.experiments.common import (
    DEFAULT_SEED,
    LOAD_HEAVY,
    LOAD_MEDIUM,
    LOAD_MODERATE,
    ExperimentOutput,
    ShapeCheck,
    grid,
    labelled_evaluations,
    mean_delivery_rate,
)
from repro.experiments.registry import register
from repro.sim.network import SimulationResult

LOADS = (LOAD_MODERATE, LOAD_MEDIUM, LOAD_HEAVY)
# Independent replications; the first seed matches the paper
# experiments' runs, so one point per load is shared with them.
SEEDS = (DEFAULT_SEED, DEFAULT_SEED + 1, DEFAULT_SEED + 2)


@register(
    "sweep_load",
    title="Load sweep with seed replication (beyond the paper)",
    paper_expectation=(
        "beyond the paper: PPR's delivery advantage over the status "
        "quo holds at every offered load with non-overlapping 95% "
        "confidence bands across seeds"
    ),
    points=grid(load=LOADS, seed=SEEDS, carrier_sense=False),
    order=100,
)
def run(runs: list[SimulationResult]) -> ExperimentOutput:
    """Replicate each load across seeds and compare with CIs."""
    per_load: dict[float, dict[str, list[float]]] = {
        load: {"ppr": [], "status_quo": []} for load in LOADS
    }
    for result in runs:
        evals = labelled_evaluations(result)
        load = result.config.load_bits_per_s_per_node
        per_load[load]["ppr"].append(
            mean_delivery_rate(evals["ppr, postamble"])
        )
        per_load[load]["status_quo"].append(
            mean_delivery_rate(evals["packet_crc, no postamble"])
        )

    rows = []
    stats: dict[str, dict[str, float]] = {}
    for load in LOADS:
        ppr_mean, ppr_hw = mean_ci(per_load[load]["ppr"])
        sq_mean, sq_hw = mean_ci(per_load[load]["status_quo"])
        # Paired per-seed gap: both schemes are evaluated on the same
        # recorded trace per seed, so the seed-to-seed noise they
        # share cancels — the statistically meaningful comparison.
        gap_values = [
            p - s
            for p, s in zip(
                per_load[load]["ppr"], per_load[load]["status_quo"], strict=True
            )
        ]
        gap_mean, gap_hw = mean_ci(gap_values)
        label = f"{load / 1000:.1f} Kbit/s/node"
        stats[label] = {
            "ppr_mean": ppr_mean,
            "ppr_ci": ppr_hw,
            "status_quo_mean": sq_mean,
            "status_quo_ci": sq_hw,
            "gap_mean": gap_mean,
            "gap_ci": gap_hw,
            "gap_min": float(min(gap_values)),
        }
        rows.append(
            [
                label,
                f"{ppr_mean:.3f} +- {ppr_hw:.3f}",
                f"{sq_mean:.3f} +- {sq_hw:.3f}",
                f"{gap_mean:+.3f} +- {gap_hw:.3f}",
            ]
        )
    rendered = format_table(
        [
            "offered load",
            "PPR+postamble delivery",
            "status quo delivery",
            "paired gap",
        ],
        rows,
        title=f"Mean per-link delivery rate over {len(SEEDS)} seeds "
        "(95% CI)",
    )

    values = list(stats.values())
    gaps = [v["gap_mean"] for v in values]
    separated = all(
        v["gap_min"] > 0 and v["gap_mean"] - v["gap_ci"] > 0
        for v in values
    )
    checks = [
        ShapeCheck(
            name="PPR above the status quo at every load, beyond "
            "seed noise",
            passed=separated,
            detail="paired gap positive in every replication and its "
            "95% band clear of zero at every load"
            if separated
            else "paired PPR-vs-status-quo gap not separated from "
            "zero at some load",
        ),
        ShapeCheck(
            name="status quo degrades from moderate to heavy load",
            passed=values[-1]["status_quo_mean"]
            < values[0]["status_quo_mean"],
            detail=f"{values[0]['status_quo_mean']:.3f} -> "
            f"{values[-1]['status_quo_mean']:.3f}",
        ),
        ShapeCheck(
            name="PPR's advantage does not shrink under load",
            passed=gaps[-1] >= gaps[0] - 0.05,
            detail=f"paired gap {gaps[0]:+.3f} (moderate) -> "
            f"{gaps[-1]:+.3f} (heavy)",
        ),
        ShapeCheck(
            name="seed-to-seed variability is small",
            passed=all(
                v["ppr_ci"] <= 0.2 and v["status_quo_ci"] <= 0.2
                for v in values
            ),
            detail="all CI half-widths <= 0.2",
        ),
    ]
    return ExperimentOutput(
        rendered=rendered,
        shape_checks=checks,
        series={
            "loads": list(LOADS),
            "seeds": list(SEEDS),
            "per_load_ppr": {
                str(load): per_load[load]["ppr"] for load in LOADS
            },
            "per_load_status_quo": {
                str(load): per_load[load]["status_quo"] for load in LOADS
            },
            "stats": stats,
        },
    )
