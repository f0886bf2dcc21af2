"""SoftPHY chunk fallback for frames SIC could not fully clean.

Successive interference cancellation either recovers a frame whole or
leaves symbols whose Hamming hints still exceed the PPR confidence
threshold η.  PPR's answer to the leftovers is chunked retransmission
(paper §5): partition the frame into chunks by the Eq. 4/5 dynamic
program and request only the bad ones.  This module packages that
fallback for the recovery pipeline: given a frame's post-SIC hints,
label symbols by the threshold rule and, when anything is still bad,
compute the optimal chunk plan to feed the ARQ layer.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.arq.chunking import ChunkPlan, plan_chunks
from repro.arq.runlength import RunLengthPacket


@dataclass(frozen=True)
class ChunkRecovery:
    """What PPR chunking would still have to retransmit.

    ``runs`` is the threshold-labelled run-length view of the frame;
    ``plan`` is the Eq. 4/5-optimal chunking, or ``None`` when every
    symbol cleared the threshold (nothing to retransmit).
    """

    eta: float
    runs: RunLengthPacket
    plan: ChunkPlan | None

    @property
    def clean(self) -> bool:
        """Whether every symbol cleared the confidence threshold."""
        return self.plan is None

    @property
    def n_bad_symbols(self) -> int:
        """Symbols still below confidence after cancellation."""
        return self.runs.n_bad_symbols

    @property
    def cost_bits(self) -> float:
        """Feedback cost of the chunk plan (0 when clean)."""
        return 0.0 if self.plan is None else float(self.plan.cost_bits)


def plan_chunk_recovery(
    hints: np.ndarray,
    eta: float,
) -> ChunkRecovery:
    """Chunk-recovery plan for a frame's post-decode Hamming hints.

    Symbols with ``hint <= eta`` count as good (the PPR threshold
    rule); when any symbol is bad, the Eq. 4/5 DP picks the chunking
    that minimises the retransmission-request cost.
    """
    if eta < 0:
        raise ValueError(f"eta must be non-negative, got {eta}")
    runs = RunLengthPacket.from_hints(np.asarray(hints), eta)
    plan = None if runs.all_good else plan_chunks(runs)
    return ChunkRecovery(eta=float(eta), runs=runs, plan=plan)
