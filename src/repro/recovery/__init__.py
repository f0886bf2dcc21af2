"""Collision recovery: successive interference cancellation + chunks.

The subsystem that turns a collision from a loss into two decodes:
:class:`SicDecoder` acquires and decodes the stronger frame, cancels
its re-synthesised waveform out of the capture, decodes the weaker
frame from the residual, and falls back to PPR chunk planning
(:func:`plan_chunk_recovery`) for anything still below confidence.
It works on waveform captures: :mod:`repro.experiments` maps its
operating region in ``exp_sic_collision`` and runs it on a captured
collision in ``exp_waveform_capture``.
"""

from repro.recovery.chunks import ChunkRecovery, plan_chunk_recovery
from repro.recovery.sic import SicDecoder, SicFrame, SicPairResult

__all__ = [
    "ChunkRecovery",
    "SicDecoder",
    "SicFrame",
    "SicPairResult",
    "plan_chunk_recovery",
]
