"""Beyond the paper: very-noisy-channel shootout with coded repair.

The paper's §7.2 contenders (whole-packet CRC, fragmented CRC, PPR)
all either discard or hand up bad runs; S-PRAC (PAPERS.md) instead
CRC-protects segments and repairs losses with random linear network
coding.  This experiment pits all four on the same recorded traces in
the reproduction's harshest regime — heavy offered load (collision
bursts) crossed with a raised noise floor.  The declared points are a
channel-noise x seed grid (every point replicated across seeds for
paired confidence intervals); the segment count and η are evaluation
knobs, looped over the same traces of each run.

Expectations under test:

* coded repair (:class:`~repro.link.schemes.SpracScheme`) delivers
  strictly more than the fragmented CRC it extends, at every noise
  level and segment count, beyond seed noise;
* the whole-packet CRC collapses in this regime;
* PPR's threshold rule hands up incorrect bits at every η, and
  more of them as η grows — while SPRAC's deliveries are verified by
  construction (a segment is handed up only on its own CRC or exact
  coding recovery; the trace model in ``SpracScheme.evaluate_traces``
  encodes exactly that, so it is a modelling property here, not a measured
  outcome);
* the repair redundancy is charged as overhead, so SPRAC buys its
  delivery edge with goodput — the S-PRAC trade, visible in the
  derated throughput.
"""

from __future__ import annotations

import numpy as np

from repro.analysis.stats import mean_ci
from repro.analysis.textplot import format_table
from repro.experiments.common import (
    DEFAULT_SEED,
    LOAD_HEAVY,
    ExperimentOutput,
    ShapeCheck,
    grid,
    mean_delivery_rate,
)
from repro.experiments.registry import register
from repro.link.schemes import (
    FragmentedCrcScheme,
    PacketCrcScheme,
    PprScheme,
    SpracScheme,
)
from repro.sim.metrics import SchemeEvaluation, evaluate_schemes
from repro.sim.network import SimulationResult

# The raised noise floor is the channel-noise axis: -95 dBm is the
# paper testbed's floor, -87 dBm costs every link ~8 dB of SNR.
NOISE_FLOORS = (-95.0, -87.0)
SEEDS = (DEFAULT_SEED, DEFAULT_SEED + 1, DEFAULT_SEED + 2)
SEGMENTS = (15, 30, 60)
ETAS = (4.0, 6.0, 8.0)


def _incorrect_bits(evaluation: SchemeEvaluation) -> int:
    return sum(
        evaluation.stats[link].delivered_incorrect_bits
        for link in evaluation.stats.links()
    )


@register(
    "coded_recovery",
    title="Coded partial recovery in very noisy channels (S-PRAC)",
    paper_expectation=(
        "beyond the paper (S-PRAC, PAPERS.md): segmented RLNC repair "
        "out-delivers fragmented CRCs at every noise level and "
        "segment count, while the packet CRC collapses and PPR's "
        "misses grow with η (SPRAC's deliveries are CRC- or "
        "coding-verified by construction); the repair redundancy is "
        "paid for in goodput"
    ),
    points=grid(
        noise_floor_dbm=NOISE_FLOORS,
        seed=SEEDS,
        load=LOAD_HEAVY,
        carrier_sense=False,
    ),
    order=101,
)
def run(runs: list[SimulationResult]) -> ExperimentOutput:
    """Evaluate the four contenders on every declared run."""
    # The segment counts and etas ride on the same traces, so every
    # contender is evaluated once per (noise, seed) run and the
    # (k, eta) cells are assembled from those evaluations.  One
    # SpracScheme per k serves every run, so its codec's recovery memo
    # is shared across them.
    packet = PacketCrcScheme()
    frags = {k: FragmentedCrcScheme(n_fragments=k) for k in SEGMENTS}
    spracs = {k: SpracScheme(n_segments=k, n_repair=k // 2) for k in SEGMENTS}
    pprs = {eta: PprScheme(eta=eta) for eta in ETAS}
    schemes = [packet, *frags.values(), *spracs.values(), *pprs.values()]
    packet_rate: dict[tuple, float] = {}
    frag_rates: dict[tuple, tuple[float, float]] = {}  # frag, sprac
    goodputs: dict[tuple, tuple[float, float]] = {}
    ppr_outcomes: dict[tuple, tuple[float, int]] = {}  # rate, bad bits
    for result in runs:
        noise = result.config.noise_floor_dbm
        seed = result.config.seed
        evals = {
            e.scheme: e
            for e in evaluate_schemes(
                result, schemes, postamble_options=(True,)
            )
        }
        packet_rate[(noise, seed)] = mean_delivery_rate(evals[packet])
        for k in SEGMENTS:
            frag_eval, sprac_eval = evals[frags[k]], evals[spracs[k]]
            frag_rates[(noise, seed, k)] = (
                mean_delivery_rate(frag_eval),
                mean_delivery_rate(sprac_eval),
            )
            goodputs[(noise, seed, k)] = (
                frag_eval.aggregate_throughput_kbps(),
                sprac_eval.aggregate_throughput_kbps(),
            )
        for eta in ETAS:
            ppr_outcomes[(noise, seed, eta)] = (
                mean_delivery_rate(evals[pprs[eta]]),
                _incorrect_bits(evals[pprs[eta]]),
            )

    rows = []
    cell_stats: dict[str, dict[str, float]] = {}
    for noise in NOISE_FLOORS:
        for k in SEGMENTS:
            frags = [frag_rates[(noise, s, k)][0] for s in SEEDS]
            spracs = [frag_rates[(noise, s, k)][1] for s in SEEDS]
            gaps = [b - a for a, b in zip(frags, spracs, strict=True)]
            frag_mean, frag_hw = mean_ci(frags)
            sprac_mean, sprac_hw = mean_ci(spracs)
            gap_mean, gap_hw = mean_ci(gaps)
            packet_mean, _ = mean_ci(
                [packet_rate[(noise, s)] for s in SEEDS]
            )
            cell_stats[f"{noise}dBm-k{k}"] = {
                "packet_crc_mean": packet_mean,
                "frag_mean": frag_mean,
                "frag_ci": frag_hw,
                "sprac_mean": sprac_mean,
                "sprac_ci": sprac_hw,
                "gap_mean": gap_mean,
                "gap_ci": gap_hw,
                "gap_min": float(min(gaps)),
                "goodput_frag_kbps": float(
                    np.mean(
                        [goodputs[(noise, s, k)][0] for s in SEEDS]
                    )
                ),
                "goodput_sprac_kbps": float(
                    np.mean(
                        [goodputs[(noise, s, k)][1] for s in SEEDS]
                    )
                ),
            }
            rows.append(
                [
                    f"{noise:.0f} dBm",
                    k,
                    f"{packet_mean:.3f}",
                    f"{frag_mean:.3f} +- {frag_hw:.3f}",
                    f"{sprac_mean:.3f} +- {sprac_hw:.3f}",
                    f"{gap_mean:+.3f} +- {gap_hw:.3f}",
                ]
            )
    delivery_table = format_table(
        [
            "noise floor",
            "k",
            "packet CRC",
            "fragmented CRC",
            "SPRAC (r=k/2)",
            "paired gap",
        ],
        rows,
        title=(
            f"Mean per-link delivery at heavy load over {len(SEEDS)} "
            "seeds (95% CI)"
        ),
    )

    ppr_rows = []
    ppr_stats: dict[str, dict[str, float]] = {}
    for noise in NOISE_FLOORS:
        for eta in ETAS:
            rates = [ppr_outcomes[(noise, s, eta)][0] for s in SEEDS]
            bad = [ppr_outcomes[(noise, s, eta)][1] for s in SEEDS]
            rate_mean, rate_hw = mean_ci(rates)
            ppr_stats[f"{noise}dBm-eta{eta:g}"] = {
                "rate_mean": rate_mean,
                "rate_ci": rate_hw,
                "incorrect_kbits_mean": float(np.mean(bad)) / 1e3,
                "incorrect_kbits_min": float(min(bad)) / 1e3,
            }
            ppr_rows.append(
                [
                    f"{noise:.0f} dBm",
                    f"{eta:g}",
                    f"{rate_mean:.3f} +- {rate_hw:.3f}",
                    f"{np.mean(bad) / 1e3:.1f}",
                ]
            )
    ppr_table = format_table(
        ["noise floor", "eta", "PPR delivery", "incorrect Kbits"],
        ppr_rows,
        title="PPR threshold rule on the same traces",
    )

    cells = list(cell_stats.values())
    separated = all(
        c["gap_min"] > 0 and c["gap_mean"] - c["gap_ci"] > 0
        for c in cells
    )
    collapse_margin = min(
        c["frag_mean"] - c["packet_crc_mean"] for c in cells
    )
    ppr_cells = list(ppr_stats.values())
    eta_monotone = all(
        ppr_stats[f"{noise}dBm-eta{a:g}"]["incorrect_kbits_mean"]
        <= ppr_stats[f"{noise}dBm-eta{b:g}"]["incorrect_kbits_mean"]
        for noise in NOISE_FLOORS
        for a, b in zip(ETAS[:-1], ETAS[1:], strict=True)
    )
    goodput_trade = all(
        c["goodput_sprac_kbps"] < c["goodput_frag_kbps"]
        for c in cells
    )
    checks = [
        ShapeCheck(
            name="coded repair above fragmented CRC at every noise "
            "level and segment count, beyond seed noise",
            passed=separated,
            detail="paired SPRAC-vs-fragmented gap positive in every "
            "replication with its 95% band clear of zero"
            if separated
            else "paired gap not separated from zero in some cell",
        ),
        ShapeCheck(
            name="whole-packet CRC collapses in the very noisy regime",
            passed=collapse_margin > 0.05,
            detail=f"fragmented CRC leads packet CRC by >= "
            f"{collapse_margin:.3f} everywhere",
        ),
        ShapeCheck(
            name="PPR hands up unverified errors at every eta",
            passed=all(
                c["incorrect_kbits_min"] > 0 for c in ppr_cells
            ),
            detail="PPR incorrect bits > 0 in every cell (SPRAC "
            "deliveries are CRC- or coding-verified by construction)",
        ),
        ShapeCheck(
            name="PPR's incorrect deliveries grow with eta",
            passed=eta_monotone,
            detail="mean incorrect Kbits non-decreasing along "
            f"eta = {ETAS}",
        ),
        ShapeCheck(
            name="repair redundancy is charged to goodput",
            passed=goodput_trade,
            detail="SPRAC's derated goodput below fragmented CRC's "
            "in every cell (the S-PRAC trade)",
        ),
    ]
    return ExperimentOutput(
        rendered=delivery_table + "\n\n" + ppr_table,
        shape_checks=checks,
        series={
            "noise_floors_dbm": list(NOISE_FLOORS),
            "seeds": list(SEEDS),
            "segments": list(SEGMENTS),
            "etas": list(ETAS),
            "cells": cell_stats,
            "ppr": ppr_stats,
        },
    )
