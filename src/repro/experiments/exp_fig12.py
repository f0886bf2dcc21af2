"""Figure 12: scatter of per-link throughput against fragmented CRC.

The paper plots, for every link and all three offered loads, the
link's throughput under PPR (triangles) and packet CRC (circles)
against its throughput under fragmented CRC on the x axis (log-log).
Claims: PPR improves over fragmented CRC by a roughly constant factor;
fragmented CRC far outperforms packet CRC; the spread of the link
quality distribution shrinks with finer recovery granularity.
"""

from __future__ import annotations

import numpy as np

from repro.analysis.stats import geometric_mean
from repro.analysis.textplot import render_scatter
from repro.experiments.common import (
    LOAD_HEAVY,
    LOAD_MEDIUM,
    LOAD_MODERATE,
    ExperimentOutput,
    ShapeCheck,
    grid,
    labelled_evaluations,
)
from repro.experiments.registry import register
from repro.sim.network import SimulationResult

_FLOOR_KBPS = 1e-2


@register(
    "fig12",
    title="Throughput scatter: fragmented CRC vs PPR / packet CRC",
    paper_expectation=(
        "PPR above the y=x line by a roughly constant factor; packet "
        "CRC scattered far below fragmented CRC; spread shrinks with "
        "finer recovery granularity"
    ),
    points=grid(
        load=(LOAD_MODERATE, LOAD_MEDIUM, LOAD_HEAVY), carrier_sense=False
    ),
    order=12,
)
def run(runs: list[SimulationResult]) -> ExperimentOutput:
    """Reproduce the Fig. 12 scatter over all three loads."""
    ppr_points: list[tuple[float, float]] = []
    pkt_points: list[tuple[float, float]] = []
    for result in runs:
        evals = labelled_evaluations(result, postamble_options=(True,))
        frag = evals["fragmented_crc, postamble"].throughputs_kbps()
        ppr = evals["ppr, postamble"].throughputs_kbps()
        pkt = evals["packet_crc, postamble"].throughputs_kbps()
        for link, frag_tput in frag.items():
            ppr_points.append((frag_tput, ppr.get(link, 0.0)))
            pkt_points.append((frag_tput, pkt.get(link, 0.0)))

    ppr_arr = np.array(ppr_points)
    pkt_arr = np.array(pkt_points)
    rendered = render_scatter(
        {
            "PPR": (ppr_arr[:, 0], ppr_arr[:, 1]),
            "packet CRC": (pkt_arr[:, 0], pkt_arr[:, 1]),
        },
        xlabel="fragmented CRC per-link throughput (Kbit/s)",
        ylabel="PPR / packet CRC per-link throughput (Kbit/s)",
        floor=_FLOOR_KBPS,
    )

    # Ratio statistics over links with usable fragmented-CRC throughput.
    active = ppr_arr[:, 0] > _FLOOR_KBPS
    ppr_ratio = geometric_mean(
        (ppr_arr[active, 1] + _FLOOR_KBPS)
        / (ppr_arr[active, 0] + _FLOOR_KBPS)
    )
    pkt_ratio = geometric_mean(
        (pkt_arr[active, 1] + _FLOOR_KBPS)
        / (pkt_arr[active, 0] + _FLOOR_KBPS)
    )
    ratio_spread = float(
        np.std(
            np.log10(
                (ppr_arr[active, 1] + _FLOOR_KBPS)
                / (ppr_arr[active, 0] + _FLOOR_KBPS)
            )
        )
    )
    checks = [
        ShapeCheck(
            name="PPR at or above fragmented CRC (constant-factor gain)",
            passed=ppr_ratio >= 1.0,
            detail=f"geometric mean PPR/frag ratio = {ppr_ratio:.2f}",
        ),
        ShapeCheck(
            name="packet CRC below fragmented CRC",
            passed=pkt_ratio < 1.0,
            detail=f"geometric mean pkt/frag ratio = {pkt_ratio:.2f}",
        ),
        ShapeCheck(
            name="PPR/frag ratio roughly constant across links",
            passed=ratio_spread <= 0.5,
            detail=f"log10 ratio std = {ratio_spread:.2f} decades",
        ),
    ]
    return ExperimentOutput(
        rendered=rendered,
        shape_checks=checks,
        series={
            "ppr_points": ppr_arr,
            "packet_points": pkt_arr,
            "ppr_over_frag": ppr_ratio,
            "pkt_over_frag": pkt_ratio,
        },
    )
