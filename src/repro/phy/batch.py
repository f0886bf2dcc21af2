"""Batched reception: decode many packets' words or captures in one call.

Nearest-codeword decoding is already vectorised *within* one
reception; network-scale experiments, however, decode thousands of
receptions per trial, and the per-call numpy dispatch overhead
dominates once each individual call is small.  This module fuses those
calls: receptions are concatenated into one matrix, decoded in a
single pass through the shared PHY core, and split back — bit-identical
to per-reception decoding, since decoding is independent across rows.

:class:`BatchReceptionEngine` is the network simulation's only decode
path (ragged uint32 chip-word lists).  :class:`WaveformBatchEngine`
lifts the same idea to the sample domain: a ragged list of complex
capture windows goes through fused preamble/postamble correlation, one
fused MSK matched-filter reduction, and one fused nearest-codeword
decode.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.phy.codebook import Codebook
from repro.phy.frontend import (
    ChipExtractRequest,
    ReceiverFrontend,
    SyncDetection,
)
from repro.phy.modulation import SAMPLES_PER_CHIP
from repro.phy.remodulate import subtract_frame
from repro.phy.sync import SYNC_SYMBOLS
from repro.utils.bitops import pack_bits_to_uint32


def _split_offsets(sizes: list[int]) -> np.ndarray:
    """Split points for ``np.split`` given per-piece sizes."""
    return np.cumsum(sizes[:-1]) if len(sizes) > 1 else np.array([], int)


class BatchReceptionEngine:
    """Fused nearest-codeword decoding over many receptions.

    Wraps one codebook and decodes ragged lists of packed chip-word
    arrays (one array per reception, arbitrary lengths) with a single
    ``decode_hard`` call.
    """

    def __init__(self, codebook: Codebook) -> None:
        self._codebook = codebook

    @property
    def codebook(self) -> Codebook:
        """The codebook decoded against."""
        return self._codebook

    def decode_hard_ragged(
        self, word_arrays: Sequence[np.ndarray]
    ) -> list[tuple[np.ndarray, np.ndarray]]:
        """Decode many uint32 word arrays in one fused call.

        Returns one ``(symbols, distances)`` pair per input array, in
        order; empty inputs yield empty outputs.  Equivalent to calling
        ``codebook.decode_hard`` per array.
        """
        sizes = [int(np.asarray(w).size) for w in word_arrays]
        total = sum(sizes)
        if total == 0:
            empty_syms = np.zeros(0, dtype=np.int64)
            empty_d = np.zeros(0, dtype=np.int64)
            return [(empty_syms.copy(), empty_d.copy()) for _ in sizes]
        fused = np.concatenate(
            [np.asarray(w, dtype=np.uint32).ravel() for w in word_arrays]
        )
        symbols, distances = self._codebook.decode_hard(fused)
        offsets = _split_offsets(sizes)
        return list(
            zip(np.split(symbols, offsets), np.split(distances, offsets), strict=True)
        )


@dataclass(frozen=True)
class WaveformDecodeRequest:
    """One codeword-run decode from a batch of captures.

    ``capture`` indexes the capture list; ``symbol_offset`` is in whole
    codewords relative to ``anchor_sample`` (negative for postamble
    rollback), mirroring
    :meth:`repro.phy.frontend.ReceiverFrontend.decode_symbols_at`.
    """

    capture: int
    anchor_sample: int
    symbol_offset: int
    n_symbols: int
    phase: float = 0.0


@dataclass(frozen=True)
class CollisionPairReception:
    """Both sides of a two-packet collision in one capture window.

    ``first`` decoded forward from its preamble, ``second`` rolled
    back from the last postamble (the Fig. 5/13 scenario).  The full
    detection lists are kept so callers can reason about what else
    did — or did not — rise above the sync threshold.
    """

    preamble_detections: list[SyncDetection]
    postamble_detections: list[SyncDetection]
    first: "FrameReception"
    second: "FrameReception"


@dataclass(frozen=True)
class FrameReception:
    """One capture's frame decode through the waveform engine.

    ``detection`` is the sync field the receiver locked on (``None``
    when neither sync field was found — ``symbols``/``hints`` are then
    empty); a postamble detection records a Fig. 5-style rollback.
    """

    detection: SyncDetection | None
    symbols: np.ndarray
    hints: np.ndarray

    @property
    def acquired(self) -> bool:
        """Whether any sync field was detected."""
        return self.detection is not None


class WaveformBatchEngine:
    """Fused waveform reception over many capture windows.

    The sample-domain analogue of :class:`BatchReceptionEngine`: a
    ragged list of complex-baseband captures is synchronised
    (row-stacked preamble/postamble correlation), matched-filtered
    (one fused reduction over every request's chip windows), and
    despread (one fused nearest-codeword decode) — bit-identical to
    running :class:`~repro.phy.frontend.ReceiverFrontend` per capture,
    since every stage is independent across rows.
    """

    def __init__(
        self,
        codebook: Codebook,
        threshold: float = 0.70,
    ) -> None:
        self._frontend = ReceiverFrontend(codebook, threshold)
        self._engine = BatchReceptionEngine(codebook)

    @property
    def codebook(self) -> Codebook:
        """The codebook decoded against."""
        return self._frontend.codebook

    def detect_batch(
        self, captures: Sequence[np.ndarray], kind: str
    ) -> list[list[SyncDetection]]:
        """Sync detections of ``kind`` for every capture, in one pass."""
        return self._frontend.detect_batch(captures, kind)

    def decode_symbols_batch(
        self,
        captures: Sequence[np.ndarray],
        requests: Sequence[WaveformDecodeRequest],
    ) -> list[tuple[np.ndarray, np.ndarray]]:
        """Hard-decode many codeword runs in one fused pass.

        Returns one ``(symbols, hamming_hints)`` pair per request —
        bit-identical to
        :meth:`~repro.phy.frontend.ReceiverFrontend.decode_symbols_at`
        per request.
        """
        if not requests:
            return []
        width = self.codebook.chips_per_symbol
        soft_runs = self._frontend.extract_batch(
            captures,
            [
                ChipExtractRequest(
                    capture=r.capture,
                    anchor_sample=r.anchor_sample,
                    chip_offset=r.symbol_offset * width,
                    n_chips=r.n_symbols * width,
                    phase=r.phase,
                )
                for r in requests
            ],
        )
        # One fused pack + one fused nearest-codeword decode over every
        # request's hard decisions.
        hard = [
            (soft > 0).astype(np.uint8).reshape(-1, width)
            for soft in soft_runs
        ]
        words = pack_bits_to_uint32(np.concatenate(hard))
        symbols, dists = self._engine.decode_hard_ragged([words])[0]
        offsets = _split_offsets([h.shape[0] for h in hard])
        return [
            (s, d.astype(np.float64))
            for s, d in zip(
                np.split(symbols, offsets), np.split(dists, offsets), strict=True
            )
        ]

    def receive_collision_pair(
        self, capture: np.ndarray, n_body: int
    ) -> CollisionPairReception:
        """Decode both packets of a two-packet collision (Fig. 5/13).

        The first packet anchors on its (cleanly received) preamble
        and decodes forward; the second packet's preamble collided, so
        it anchors on the *last* postamble in the capture and rolls
        back.  Both codeword runs go through one fused matched-filter
        + nearest-codeword decode.  Raises ``RuntimeError`` when a
        required sync field is missing.
        """
        pre_dets = self.detect_batch([capture], "preamble")[0]
        if not pre_dets:
            raise RuntimeError("first packet's preamble not detected")
        post_dets = self.detect_batch([capture], "postamble")[0]
        if not post_dets:
            raise RuntimeError("second packet's postamble not detected")
        det1 = pre_dets[0]
        det2 = max(post_dets, key=lambda d: d.sample_offset)
        (sym1, hints1), (sym2, hints2) = self.decode_symbols_batch(
            [capture],
            [
                WaveformDecodeRequest(
                    capture=0,
                    anchor_sample=det1.sample_offset,
                    symbol_offset=SYNC_SYMBOLS,
                    n_symbols=n_body,
                    phase=det1.phase,
                ),
                WaveformDecodeRequest(
                    capture=0,
                    anchor_sample=det2.sample_offset,
                    symbol_offset=-n_body,
                    n_symbols=n_body,
                    phase=det2.phase,
                ),
            ],
        )
        return CollisionPairReception(
            preamble_detections=pre_dets,
            postamble_detections=post_dets,
            first=FrameReception(
                detection=det1, symbols=sym1, hints=hints1
            ),
            second=FrameReception(
                detection=det2, symbols=sym2, hints=hints2
            ),
        )

    def receive_residual(
        self,
        capture: np.ndarray,
        cancellations: Sequence[tuple[np.ndarray, int]],
        n_body: int,
    ) -> tuple[FrameReception, np.ndarray]:
        """Decode what remains of a capture after cancelling frames.

        ``cancellations`` is a list of ``(waveform, sample_offset)``
        reconstructions (already scaled by their estimated complex
        gains — see :func:`repro.phy.remodulate.estimate_complex_scale`);
        each is subtracted from the capture and the residual goes
        through the standard single-frame reception policy
        (:meth:`receive_frames`).  Returns the residual reception and
        the residual samples, so callers can iterate the cancellation
        or hand the leftovers to chunk recovery.
        """
        residual = np.asarray(capture, dtype=np.complex128)
        for waveform, sample_offset in cancellations:
            residual = subtract_frame(residual, waveform, sample_offset)
        reception = self.receive_frames([residual], n_body)[0]
        return reception, residual

    def receive_frames(
        self,
        captures: Sequence[np.ndarray],
        n_body: int,
    ) -> list[FrameReception]:
        """PPR reception policy over many captures, fused end to end.

        Each capture is assumed to hold (at most) one frame whose body
        is ``n_body`` codewords between the standard sync
        fields.  A receiver that hears the preamble decodes forward
        from it; one that missed it but hears the postamble rolls back
        through the capture (paper §4); captures with neither sync
        field yield an empty reception.
        """
        if n_body < 0:
            raise ValueError(
                f"n_body must be non-negative, got {n_body}"
            )
        width = self.codebook.chips_per_symbol

        def _fits(
            capture_len: int,
            detection: SyncDetection,
            symbol_offset: int,
        ) -> bool:
            """Whether the body's chip span lies inside the capture."""
            start = (
                detection.sample_offset
                + symbol_offset * width * SAMPLES_PER_CHIP
            )
            n_chips = n_body * width
            # The last chip's pulse spans two chip periods.
            needed = start + (n_chips + 1) * SAMPLES_PER_CHIP if n_chips else start
            return start >= 0 and needed <= capture_len

        lengths = [np.asarray(c).size for c in captures]
        pre = self.detect_batch(captures, "preamble")
        chosen: list[SyncDetection | None] = []
        for i, pre_dets in enumerate(pre):
            if pre_dets and _fits(
                lengths[i], pre_dets[0], SYNC_SYMBOLS
            ):
                chosen.append(pre_dets[0])
            else:
                chosen.append(None)
        # Postamble correlation is only paid for the captures the
        # preamble path could not serve (the rollback minority).
        fallback = [
            i for i, detection in enumerate(chosen) if detection is None
        ]
        if fallback:
            post = self.detect_batch(
                [captures[i] for i in fallback], "postamble"
            )
            for i, post_dets in zip(fallback, post, strict=True):
                if not post_dets:
                    continue
                last = max(post_dets, key=lambda d: d.sample_offset)
                if _fits(lengths[i], last, -n_body):
                    chosen[i] = last
        requests = []
        for i, detection in enumerate(chosen):
            if detection is None:
                continue
            symbol_offset = (
                SYNC_SYMBOLS
                if detection.kind == "preamble"
                else -n_body
            )
            requests.append(
                WaveformDecodeRequest(
                    capture=i,
                    anchor_sample=detection.sample_offset,
                    symbol_offset=symbol_offset,
                    n_symbols=n_body,
                    phase=detection.phase,
                )
            )
        decoded = iter(self.decode_symbols_batch(captures, requests))
        receptions = []
        for detection in chosen:
            if detection is None:
                receptions.append(
                    FrameReception(
                        detection=None,
                        symbols=np.zeros(0, dtype=np.int64),
                        hints=np.zeros(0, dtype=np.float64),
                    )
                )
            else:
                symbols, hints = next(decoded)
                receptions.append(
                    FrameReception(
                        detection=detection, symbols=symbols, hints=hints
                    )
                )
        return receptions
