"""Successive interference cancellation over collided captures.

A two-packet collision at sample fidelity is a *sum*: the capture is
``g1·x1 + g2·x2 + noise``.  Capture effect lets the standard receiver
decode the stronger frame straight through the interference; SIC then
treats that decode as side information — re-synthesise the stronger
frame's waveform (:func:`repro.phy.remodulate.remodulate_frame`),
estimate its complex channel gain against the capture, subtract the
reconstruction, and run the receiver again on the residual, where the
weaker frame now stands alone.  Whatever survives neither pass falls
back to PPR chunk recovery (:mod:`repro.recovery.chunks`), so the
pipeline degrades gracefully from "both frames whole" to "retransmit
these chunks".

:class:`SicDecoder` packages the pipeline; :class:`SicPairResult` is
one collision's outcome, each side a :class:`SicFrame` carrying its
reception, estimated gain, and chunk-fallback plan.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.phy.batch import FrameReception, WaveformBatchEngine, body_start
from repro.arq.runlength import PAPER_ETA
from repro.phy.codebook import Codebook
from repro.phy.modulation import CHIPS_PER_SYMBOL, SAMPLES_PER_CHIP
from repro.phy.remodulate import estimate_complex_scale, remodulate_frame
from repro.phy.sync import SYNC_SYMBOLS, sync_field_symbols
from repro.recovery.chunks import ChunkRecovery, plan_chunk_recovery


@dataclass(frozen=True)
class SicFrame:
    """One collided frame as the SIC pipeline recovered it.

    ``frame_start`` is the capture sample where the frame's preamble
    begins (derived from the sync anchor, so postamble-rollback frames
    get a rolled-back start); ``scale`` is the estimated complex
    channel gain of the frame within the capture it was decoded from;
    ``via_residual`` marks a frame decoded after cancellation;
    ``fallback`` is the PPR chunk plan for whatever symbols are still
    below confidence.
    """

    reception: FrameReception
    frame_start: int
    scale: complex
    via_residual: bool
    fallback: ChunkRecovery

    @property
    def clean(self) -> bool:
        """Whether every symbol cleared the confidence threshold."""
        return self.fallback.clean


@dataclass(frozen=True)
class SicPairResult:
    """Outcome of one SIC pass over a two-packet collision.

    ``strong`` is the frame the plain receiver captured (``None`` when
    nothing acquired at all); ``weak`` the frame recovered from the
    residual (``None`` when cancellation was skipped or the residual
    held no credible frame); ``residual`` the capture after
    cancellation (the untouched capture when ``cancelled`` is False).
    """

    strong: SicFrame | None
    weak: SicFrame | None
    residual: np.ndarray
    cancelled: bool

    @property
    def frames(self) -> list[SicFrame]:
        """The recovered frames, strongest first."""
        return [f for f in (self.strong, self.weak) if f is not None]


class SicDecoder:
    """The SIC pipeline: capture → strong decode → cancel → weak decode.

    Parameters
    ----------
    codebook:
        DSSS codebook shared by both transmitters.
    threshold:
        Sync-correlation detection threshold for both passes.

    The chunk fallback labels codewords at the paper's threshold
    ``PAPER_ETA``.
    """

    def __init__(self, codebook: Codebook, threshold: float = 0.70) -> None:
        self._codebook = codebook
        self._engine = WaveformBatchEngine(codebook, threshold=threshold)

    def _frame_start(
        self, reception: FrameReception, n_body: int
    ) -> int:
        """Capture sample where the frame's preamble begins."""
        assert reception.detection is not None
        sync_span = SYNC_SYMBOLS * CHIPS_PER_SYMBOL * SAMPLES_PER_CHIP
        return body_start(reception.detection, n_body) - sync_span

    def _frame_stream(self, reception: FrameReception) -> np.ndarray:
        """Full symbol stream (sync fields included) of a decode."""
        return np.concatenate(
            [
                sync_field_symbols("preamble"),
                reception.symbols,
                sync_field_symbols("postamble"),
            ]
        )

    def _sic_frame(
        self,
        reception: FrameReception,
        frame_start: int,
        scale: complex,
        via_residual: bool,
    ) -> SicFrame:
        return SicFrame(
            reception=reception,
            frame_start=frame_start,
            scale=scale,
            via_residual=via_residual,
            fallback=plan_chunk_recovery(reception.hints, PAPER_ETA),
        )

    def decode_pair(
        self, capture: np.ndarray, n_body: int
    ) -> SicPairResult:
        """Run the full SIC pipeline over one collided capture.

        The strong pass is the standard reception policy (preamble
        forward, else postamble rollback).  Cancellation is skipped
        when nothing acquires or the gain estimate carries no energy;
        a residual detection within one symbol of the cancelled frame
        is discarded as a cancellation remnant rather than reported as
        a second frame.
        """
        capture = np.asarray(capture, dtype=np.complex128)
        strong = self._engine.receive_frames(capture, n_body)
        if not strong.acquired:
            return SicPairResult(
                strong=None,
                weak=None,
                residual=capture.copy(),
                cancelled=False,
            )
        start = self._frame_start(strong, n_body)
        stream = self._frame_stream(strong)
        unit = remodulate_frame(stream, self._codebook)
        scale = estimate_complex_scale(capture, unit, start)
        strong_frame = self._sic_frame(strong, start, scale, False)
        if not abs(scale) > 0:
            return SicPairResult(
                strong=strong_frame,
                weak=None,
                residual=capture.copy(),
                cancelled=False,
            )
        reconstruction = remodulate_frame(
            stream,
            self._codebook,
            gain=abs(scale),
            phase=float(np.angle(scale)),
        )
        weak, residual = self._engine.receive_residual(
            capture, [(reconstruction, start)], n_body
        )
        weak_frame = None
        if weak.acquired:
            weak_start = self._frame_start(weak, n_body)
            # A lock within one symbol of the cancelled frame is the
            # cancellation's own remnant, not a second transmission.
            guard = CHIPS_PER_SYMBOL * SAMPLES_PER_CHIP
            if abs(weak_start - start) > guard:
                weak_scale = estimate_complex_scale(
                    residual,
                    remodulate_frame(self._frame_stream(weak), self._codebook),
                    weak_start,
                )
                weak_frame = self._sic_frame(
                    weak, weak_start, weak_scale, True
                )
        return SicPairResult(
            strong=strong_frame,
            weak=weak_frame,
            residual=residual,
            cancelled=True,
        )
