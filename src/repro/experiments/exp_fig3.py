"""Figure 3: Hamming-distance CDFs for correct vs incorrect codewords.

Paper claim: *"Conditioned on a correct decoding, 96% of codewords have
a Hamming distance of 1 or less.  In contrast, barely 10% of the
incorrect codewords have a distance of 6 or less."*  The separation is
what makes Hamming distance a usable SoftPHY hint.
"""

from __future__ import annotations

import numpy as np

from repro.analysis.textplot import render_series
from repro.experiments.common import (
    LOAD_HEAVY,
    LOAD_MEDIUM,
    LOAD_MODERATE,
    ExperimentOutput,
    ShapeCheck,
    grid,
)
from repro.experiments.registry import register
from repro.sim.metrics import hint_histograms
from repro.sim.network import SimulationResult

LOADS = {
    "3.5 Kbits/s/node": LOAD_MODERATE,
    "6.9 Kbits/s/node": LOAD_MEDIUM,
    "13.8 Kbits/s/node": LOAD_HEAVY,
}


@register(
    "fig3",
    title="Hamming distance distributions, correct vs incorrect",
    paper_expectation=(
        ">=96% of correct codewords at Hamming distance <= 1; only "
        "~10% of incorrect codewords at distance <= 6, at all three "
        "offered loads"
    ),
    points=grid(load=tuple(LOADS.values()), carrier_sense=False),
    order=3,
)
def run(runs: list[SimulationResult]) -> ExperimentOutput:
    """Reproduce Fig. 3 from the three load points (carrier sense off)."""
    xs = np.arange(0, 13)
    series: dict[str, np.ndarray] = {}
    stats: dict[str, tuple[float, float]] = {}
    for label, result in zip(LOADS, runs, strict=True):
        correct_hist, incorrect_hist = hint_histograms(result)
        cdf_correct = np.cumsum(correct_hist) / max(correct_hist.sum(), 1)
        cdf_incorrect = np.cumsum(incorrect_hist) / max(
            incorrect_hist.sum(), 1
        )
        series[f"{label}, correct"] = cdf_correct[xs]
        series[f"{label}, incorrect"] = cdf_incorrect[xs]
        stats[label] = (float(cdf_correct[1]), float(cdf_incorrect[6]))

    rendered = render_series(
        xs,
        series,
        xlabel="Hamming distance",
        logy=False,
    )
    worst_correct = min(v[0] for v in stats.values())
    worst_incorrect = max(v[1] for v in stats.values())
    checks = [
        ShapeCheck(
            name="correct codewords concentrate at distance <= 1",
            passed=worst_correct >= 0.80,
            detail=f"min over loads P(d<=1|correct) = {worst_correct:.3f} "
            "(paper: 0.96)",
        ),
        ShapeCheck(
            name="incorrect codewords rarely at distance <= 6",
            passed=worst_incorrect <= 0.25,
            detail=f"max over loads P(d<=6|incorrect) = "
            f"{worst_incorrect:.3f} (paper: ~0.10)",
        ),
        ShapeCheck(
            name="distributions separated at eta = 6",
            passed=all(
                c_le1 > inc_le6 for (c_le1, inc_le6) in stats.values()
            ),
            detail="P(d<=1|correct) > P(d<=6|incorrect) at every load",
        ),
    ]
    return ExperimentOutput(
        rendered=rendered,
        shape_checks=checks,
        series={"x": xs, **series, "stats": stats},
    )
