"""Table 1: the paper's summary of experimental conclusions.

Composes the headline numbers from the other experiments:

* PPR and fragmented CRC improve per-link throughput over the status
  quo (packet CRC without postamble decoding) under load — the paper
  reports >7x under high load and 2x under moderate load;
* PPR beats fragmented CRC;
* PP-ARQ cuts retransmission cost by roughly half.
"""

from __future__ import annotations

import numpy as np

from repro.analysis.stats import median
from repro.analysis.textplot import format_table
from repro.experiments.common import (
    LOAD_HEAVY,
    LOAD_MODERATE,
    ExperimentOutput,
    ExperimentResult,
    ShapeCheck,
    grid,
    labelled_evaluations,
)
from repro.experiments.registry import register
from repro.sim.network import SimulationResult


@register(
    "table1",
    title="Headline result summary",
    paper_expectation=(
        "PPR/frag CRC improve per-link throughput >7x under high load "
        "and ~2x under moderate load; PPR above frag CRC; PP-ARQ cuts "
        "retransmission cost ~50%"
    ),
    points=grid(load=(LOAD_MODERATE, LOAD_HEAVY), carrier_sense=False),
    needs=("fig16",),
    order=1,
)
def run(
    runs: list[SimulationResult], fig16: ExperimentResult
) -> ExperimentOutput:
    """Build the Table 1 summary from fresh evaluations and fig16's
    PP-ARQ savings."""
    rows = []
    ratios = {}
    for label, result in zip(
        ("moderate (3.5 Kb/s/node)", "heavy (13.8 Kb/s/node)"),
        runs,
        strict=True,
    ):
        evals = labelled_evaluations(result)
        status_quo = evals["packet_crc, no postamble"]
        ppr = evals["ppr, postamble"]
        frag = evals["fragmented_crc, postamble"]
        # Per-link improvement ratios — the paper's "per-link
        # throughput" factors.  Links dead under the status quo but
        # alive under PPR contribute large finite ratios via flooring;
        # strong links contribute ~1x, so the mean-of-ratios captures
        # where the gains actually come from.
        floor = 1e-2
        sq_t = status_quo.throughputs_kbps()
        ppr_t = ppr.throughputs_kbps()
        frag_t = frag.throughputs_kbps()
        links = sorted(set(sq_t) | set(ppr_t))
        ppr_ratios = [
            (ppr_t.get(link, 0.0) + floor) / (sq_t.get(link, 0.0) + floor)
            for link in links
        ]
        frag_ratios = [
            (frag_t.get(link, 0.0) + floor) / (sq_t.get(link, 0.0) + floor)
            for link in links
        ]
        ppr_gain = float(np.mean(ppr_ratios))
        frag_gain = float(np.mean(frag_ratios))
        med_ratio = median(ppr_ratios)
        ratios[label] = {
            "ppr_mean_gain": ppr_gain,
            "frag_mean_gain": frag_gain,
            "median_link_ratio": med_ratio,
        }
        rows.append([label, f"{ppr_gain:.2f}x", f"{frag_gain:.2f}x",
                     f"{med_ratio:.2f}x"])

    savings = float(fig16.series["savings"])
    rows.append(
        [
            "PP-ARQ vs full ARQ",
            f"{savings:.0%} bytes saved",
            "-",
            "-",
        ]
    )
    rendered = format_table(
        [
            "condition",
            "PPR vs status quo",
            "frag CRC vs status quo",
            "median per-link ratio",
        ],
        rows,
        title="Summary of reproduced headline results (paper Table 1)",
    )
    mod = ratios["moderate (3.5 Kb/s/node)"]
    heavy = ratios["heavy (13.8 Kb/s/node)"]
    checks = [
        ShapeCheck(
            name="PPR improves on the status quo under moderate load",
            passed=mod["ppr_mean_gain"] >= 1.1,
            detail=f"{mod['ppr_mean_gain']:.2f}x (paper: ~2x)",
        ),
        ShapeCheck(
            name="gains grow under heavy load",
            passed=heavy["ppr_mean_gain"] >= mod["ppr_mean_gain"],
            detail=f"heavy {heavy['ppr_mean_gain']:.2f}x vs moderate "
            f"{mod['ppr_mean_gain']:.2f}x (paper: 7x vs 2x)",
        ),
        ShapeCheck(
            name="PPR above fragmented CRC in both conditions",
            passed=mod["ppr_mean_gain"] >= mod["frag_mean_gain"]
            and heavy["ppr_mean_gain"] >= heavy["frag_mean_gain"],
        ),
        ShapeCheck(
            name="PP-ARQ cuts retransmission cost roughly in half",
            passed=savings >= 0.40,
            detail=f"{savings:.0%} (paper: ~50%)",
        ),
    ]
    return ExperimentOutput(
        rendered=rendered,
        shape_checks=checks,
        series={"ratios": ratios, "pp_arq_savings": savings},
    )
