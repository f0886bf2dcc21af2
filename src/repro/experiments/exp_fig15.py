"""Figure 15: false-alarm rate vs threshold η.

The complementary CDF of correct codewords' Hamming distances is the
false-alarm rate: correct codewords labelled incorrect at threshold η,
each costing one needlessly retransmitted codeword.  Paper claim: "the
false alarm rate is very low; varying slightly with offered load, on
the order of 5 in 1000 codewords at η = 6."
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
from repro.sim.metrics import false_alarm_rates, hint_histograms
from repro.sim.network import SimulationResult

LOADS = {
    "3.5 Kbits/s/node": LOAD_MODERATE,
    "6.9 Kbits/s/node": LOAD_MEDIUM,
    "13.8 Kbits/s/node": LOAD_HEAVY,
}


@register(
    "fig15",
    title="False-alarm rate vs threshold",
    paper_expectation=(
        "false-alarm rate decreasing in eta, on the order of 5e-3 at "
        "eta = 6, varying only slightly with offered load"
    ),
    points=grid(load=tuple(LOADS.values()), carrier_sense=False),
    order=15,
)
def run(runs: list[SimulationResult]) -> ExperimentOutput:
    """Reproduce Fig. 15 across the three offered loads."""
    xs = np.arange(0, 13)
    series = {}
    at_eta6 = {}
    for label, result in zip(LOADS, runs, strict=True):
        correct_hist, _ = hint_histograms(result)
        rates = false_alarm_rates(correct_hist)
        series[label] = rates[xs]
        at_eta6[label] = float(rates[6])

    rendered = render_series(
        xs,
        series,
        xlabel="Hamming distance threshold eta",
        logy=True,
    )
    worst = max(at_eta6.values())
    checks = [
        ShapeCheck(
            name="false-alarm rate low at eta = 6",
            passed=worst <= 0.05,
            detail=f"max over loads = {worst:.4f} (paper: ~0.005)",
        ),
        ShapeCheck(
            name="false-alarm rate monotonically non-increasing in eta",
            passed=all(
                bool(np.all(np.diff(r) <= 1e-12)) for r in series.values()
            ),
        ),
        ShapeCheck(
            name="load dependence is weak",
            passed=(max(at_eta6.values()) - min(at_eta6.values())) <= 0.05,
            detail=f"range at eta=6: {min(at_eta6.values()):.4f}.."
            f"{max(at_eta6.values()):.4f}",
        ),
    ]
    return ExperimentOutput(
        rendered=rendered,
        shape_checks=checks,
        series={"x": xs, **series, "at_eta6": at_eta6},
    )
