"""Shared machinery for the delivery-rate CDF experiments (Figs. 8-10).

Three conditions share one experiment shape — evaluate every (scheme,
postamble) variant on a capacity run and plot the per-link equivalent
frame delivery rate CDF — differing only in offered load, carrier
sense, and their condition-specific claims.  Each figure's module
(``exp_fig8``/``exp_fig9``/``exp_fig10``) registers its own spec,
evaluates the runs it declared with
:func:`~repro.experiments.common.labelled_evaluations` and composes
these helpers over the label-keyed evaluations.
"""

from __future__ import annotations

import numpy as np

from repro.analysis.textplot import render_cdf
from repro.experiments.common import ShapeCheck, mean_delivery_rate
from repro.sim.metrics import SchemeEvaluation


def common_checks(
    evals: dict[str, SchemeEvaluation]
) -> list[ShapeCheck]:
    """The claims every delivery-rate figure shares."""
    ppr_post = mean_delivery_rate(evals["ppr, postamble"])
    frag_post = mean_delivery_rate(evals["fragmented_crc, postamble"])
    pkt_post = mean_delivery_rate(evals["packet_crc, postamble"])
    pkt_nopost = mean_delivery_rate(evals["packet_crc, no postamble"])
    ppr_nopost = mean_delivery_rate(evals["ppr, no postamble"])
    return [
        ShapeCheck(
            name="scheme ordering PPR >= fragmented CRC >= packet CRC",
            passed=ppr_post >= frag_post - 1e-9
            and frag_post >= pkt_post - 1e-9,
            detail=f"means (postamble): ppr={ppr_post:.3f} "
            f"frag={frag_post:.3f} pkt={pkt_post:.3f}",
        ),
        ShapeCheck(
            name="postamble decoding improves delivery",
            passed=ppr_post > ppr_nopost and pkt_post > pkt_nopost,
            detail=f"ppr {ppr_nopost:.3f}->{ppr_post:.3f}, "
            f"pkt {pkt_nopost:.3f}->{pkt_post:.3f}",
        ),
    ]


def render(evals: dict[str, SchemeEvaluation]) -> str:
    """The per-link delivery rate CDF plot shared by Figs. 8-10."""
    series = {
        label: np.array(e.delivery_rates())
        for label, e in evals.items()
        if e.delivery_rates()
    }
    return render_cdf(
        series, xlabel="per-link equivalent frame delivery rate", xmax=1.0
    )


def rate_series(
    evals: dict[str, SchemeEvaluation]
) -> dict[str, np.ndarray]:
    """The delivery-rate arrays stored in each figure's result series."""
    return {
        label: np.array(e.delivery_rates()) for label, e in evals.items()
    }
