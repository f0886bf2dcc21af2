"""Reception engines: fused chip-word decoding and the waveform receiver.

Nearest-codeword decoding is already vectorised *within* one
reception; network-scale experiments, however, decode thousands of
receptions per trial, and the per-call numpy dispatch overhead
dominates once each individual call is small.
:class:`BatchReceptionEngine` fuses those calls: receptions are
concatenated into one matrix, decoded in a single pass through the
shared PHY core, and split back — bit-identical to per-reception
decoding, since decoding is independent across rows.  It is the
network simulation's only decode path (ragged uint32 chip-word lists).

:class:`WaveformBatchEngine` is the sample-domain receiver: it detects
preamble and postamble waveforms in one capture window (with phase
estimation from the correlation peak), matched-filters the frame body
forward from a preamble or *backwards* from a postamble — postamble
rollback at waveform level — and despreads it through
:class:`BatchReceptionEngine`.  All frame fields are whole codewords
(32 chips), so chip offsets relative to an anchor are always even and
the O-QPSK I/Q rail parity is preserved.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.phy.codebook import Codebook
from repro.phy.demodulation import MskDemodulator
from repro.phy.fftcorr import FftCorrelator
from repro.phy.modulation import CHIPS_PER_SYMBOL, SAMPLES_PER_CHIP, MskModulator
from repro.phy.remodulate import subtract_frame
from repro.phy.sync import SYNC_SYMBOLS, peak_offsets, sync_field_symbols
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
class SyncDetection:
    """A detected sync field in a capture window.

    ``sample_offset`` is where the field's first chip pulse starts;
    ``phase`` is the carrier phase estimated from the correlation peak
    (radians); ``score`` is the normalised correlation in [0, 1].
    """

    kind: str
    sample_offset: int
    phase: float
    score: float


@dataclass(frozen=True)
class CollisionPairReception:
    """Both sides of a two-packet collision in one capture window.

    ``first`` decoded forward from the first preamble, ``second``
    rolled back from the last postamble (the Fig. 5/13 scenario); a
    side whose sync field was not detected, or whose body would reach
    outside the capture, is an empty reception.  The full detection
    lists are kept so callers can reason about what else did — or did
    not — rise above the sync threshold.
    """

    preamble_detections: list[SyncDetection]
    postamble_detections: list[SyncDetection]
    first: "FrameReception"
    second: "FrameReception"

    @property
    def frame(self) -> "FrameReception":
        """The single-frame policy's reception of the capture (what
        :meth:`WaveformBatchEngine.receive_frames` returns for it): the
        forward decode when it acquired, else the rollback."""
        return self.first if self.first.acquired else self.second


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
    """The waveform receiver: sync detection and frame decoding for one
    capture window at a time (paper §4).

    The receiver correlates a capture against the modulated preamble
    and postamble, locks on a preamble, or else on the last postamble,
    and rolls back through the capture from it (Fig. 5).  Each body is
    matched-filtered by :class:`~repro.phy.demodulation.MskDemodulator`
    after derotating the capture by the detected carrier phase, and
    all of a capture's bodies are despread in one
    :meth:`BatchReceptionEngine.decode_hard_ragged` call.

    Parameters
    ----------
    codebook:
        The DSSS codebook (defines sync chip patterns and decoding).
    threshold:
        Normalised-correlation detection threshold for both sync kinds.
    """

    def __init__(
        self,
        codebook: Codebook,
        threshold: float = 0.70,
    ) -> None:
        if not 0 < threshold <= 1:
            raise ValueError(f"threshold must be in (0, 1], got {threshold}")
        self._threshold = float(threshold)
        self._demod = MskDemodulator()
        self._decoder = BatchReceptionEngine(codebook)
        modulator = MskModulator()
        self._refs = {
            kind: modulator.modulate_symbols(sync_field_symbols(kind), codebook)
            for kind in ("preamble", "postamble")
        }
        self._correlator = FftCorrelator(self._refs)

    # -- detection -----------------------------------------------------------

    def correlation(self, capture: np.ndarray, kind: str) -> np.ndarray:
        """Normalised sync correlation magnitude at every sample offset.

        The raw correlation is one FFT product
        (:class:`~repro.phy.fftcorr.FftCorrelator`) instead of one
        ``np.correlate`` per offset — the pattern here is 1280 samples
        at 4 samples/chip, where the FFT path is ~8x faster.  The
        time-domain loop spec :meth:`correlation_reference` is pinned
        at 1e-12 rather than bit-for-bit, the FFT reassociation being
        the one sanctioned deviation."""
        [corr] = self.correlations(capture, (kind,))
        return corr

    def correlations(
        self, capture: np.ndarray, kinds: Sequence[str]
    ) -> list[np.ndarray]:
        """:meth:`correlation` of each kind in ``kinds``, bit for bit.

        Both sync fields have one length, so the kinds share one
        forward FFT of the capture and one energy window.
        """
        size = self._correlator.pattern_size
        capture = np.asarray(capture, dtype=np.complex128)
        if capture.size < size:
            return [np.zeros(0, dtype=np.float64) for _ in kinds]
        raws = self._correlator.correlate(capture, kinds)
        energy = np.concatenate([[0.0], np.cumsum(np.abs(capture) ** 2)])
        root = np.sqrt(energy[size:] - energy[:-size])
        out = []
        for kind, raw in zip(kinds, raws, strict=True):
            denom = root * np.linalg.norm(self._refs[kind])
            with np.errstate(divide="ignore", invalid="ignore"):
                out.append(np.where(denom > 0, np.abs(raw) / denom, 0.0))
        return out

    def correlation_reference(
        self, capture: np.ndarray, kind: str
    ) -> np.ndarray:
        """Per-offset loop implementation, kept as the executable spec
        for :meth:`correlation`: a scalar running energy sum and one
        conjugate dot product per alignment.  The FFT fast path
        reassociates these sums, so the equivalence suite pins the
        pair at 1e-12."""
        ref = self._refs[kind]
        ref_conj = np.conj(ref)
        ref_norm = float(np.linalg.norm(ref))
        samples = np.asarray(capture, dtype=np.complex128)
        m = ref.size
        n = samples.size
        if n < m:
            return np.zeros(0, dtype=np.float64)
        energy = np.empty(n + 1, dtype=np.float64)
        energy[0] = 0.0
        acc = 0.0
        for i in range(n):
            acc += abs(samples[i]) ** 2
            energy[i + 1] = acc
        out = np.empty(n - m + 1, dtype=np.float64)
        for i in range(out.size):
            raw = np.dot(samples[i : i + m], ref_conj)
            denom = np.sqrt(energy[i + m] - energy[i]) * ref_norm
            out[i] = abs(raw) / denom if denom > 0 else 0.0
        return out

    def detect(self, capture: np.ndarray, kind: str) -> list[SyncDetection]:
        """All detections of ``kind`` in the capture, by correlation
        peak, each with the carrier phase at its peak."""
        capture = np.asarray(capture, dtype=np.complex128)
        return self._peaks(capture, kind, self.correlation(capture, kind))

    def _peaks(
        self, capture: np.ndarray, kind: str, corr: np.ndarray
    ) -> list[SyncDetection]:
        """The detections of ``kind`` at the peaks of its correlation."""
        ref = self._refs[kind]
        detections = []
        for peak in peak_offsets(corr, self._threshold, ref.size):
            raw = np.dot(capture[peak : peak + ref.size], np.conj(ref))
            detections.append(
                SyncDetection(
                    kind=kind,
                    sample_offset=peak,
                    phase=float(np.angle(raw)),
                    score=float(corr[peak]),
                )
            )
        return detections

    # -- decoding ------------------------------------------------------------

    def decode(
        self,
        capture: np.ndarray,
        detections: Sequence[SyncDetection],
        n_body: int,
    ) -> list[tuple[np.ndarray, np.ndarray]]:
        """Hard-decode the ``n_body``-codeword body each detection
        anchors: forward from a preamble, rolled back from a postamble.

        Returns one ``(symbols, hamming_hints)`` pair per detection.
        Raises ``ValueError`` when a body reaches outside the capture.
        """
        capture = np.asarray(capture, dtype=np.complex128)
        words = []
        for detection in detections:
            samples = capture
            if detection.phase:
                samples = capture * np.exp(-1j * detection.phase)
            soft = self._demod.demodulate_soft(
                samples,
                body_start(detection, n_body),
                n_body * CHIPS_PER_SYMBOL,
            )
            hard = (soft > 0).astype(np.uint8).reshape(-1, CHIPS_PER_SYMBOL)
            words.append(pack_bits_to_uint32(hard))
        return [
            (symbols, hints.astype(np.float64))
            for symbols, hints in self._decoder.decode_hard_ragged(words)
        ]

    def receive_collision_pair(
        self, capture: np.ndarray, n_body: int
    ) -> CollisionPairReception:
        """Decode both packets of a two-packet collision (Fig. 5/13).

        The first packet anchors on its (cleanly received) preamble
        and decodes forward; the second packet's preamble collided, so
        it anchors on the *last* postamble in the capture and rolls
        back.  Both bodies are decoded in one call; a side with no
        usable anchor is an empty reception.
        """
        capture = np.asarray(capture, dtype=np.complex128)
        kinds = ("preamble", "postamble")
        pre_dets, post_dets = (
            self._peaks(capture, kind, corr)
            for kind, corr in zip(
                kinds, self.correlations(capture, kinds), strict=True
            )
        )
        anchors = [
            pre_dets[0] if pre_dets else None,
            max(post_dets, key=lambda d: d.sample_offset, default=None),
        ]
        anchors = [
            d if d is not None and _fits(capture, d, n_body) else None
            for d in anchors
        ]
        decoded = iter(
            self.decode(capture, [d for d in anchors if d is not None], n_body)
        )
        first, second = (
            FrameReception(d, *next(decoded)) if d is not None else _NOT_ACQUIRED
            for d in anchors
        )
        return CollisionPairReception(
            preamble_detections=pre_dets,
            postamble_detections=post_dets,
            first=first,
            second=second,
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
        return self.receive_frames(residual, n_body), residual

    def receive_frames(
        self, capture: np.ndarray, n_body: int
    ) -> FrameReception:
        """PPR reception policy over one capture.

        The capture is assumed to hold (at most) one frame whose body
        is ``n_body`` codewords between the standard sync fields.  The
        receiver decodes forward from a preamble it hears; one that
        missed it but hears a postamble rolls back through the capture
        (paper §4); a capture with neither sync field, or whose body
        would reach outside it, yields an empty reception.
        """
        if n_body < 0:
            raise ValueError(
                f"n_body must be non-negative, got {n_body}"
            )
        capture = np.asarray(capture, dtype=np.complex128)
        pre = self.detect(capture, "preamble")
        detection = pre[0] if pre and _fits(capture, pre[0], n_body) else None
        if detection is None:
            # Postamble correlation is only paid when the preamble path
            # could not serve the capture (the rollback minority).
            post = self.detect(capture, "postamble")
            last = max(post, key=lambda d: d.sample_offset, default=None)
            if last is not None and _fits(capture, last, n_body):
                detection = last
        if detection is None:
            return _NOT_ACQUIRED
        [(symbols, hints)] = self.decode(capture, [detection], n_body)
        return FrameReception(detection=detection, symbols=symbols, hints=hints)


_NOT_ACQUIRED = FrameReception(
    detection=None,
    symbols=np.zeros(0, dtype=np.int64),
    hints=np.zeros(0, dtype=np.float64),
)


def _fits(capture: np.ndarray, detection: SyncDetection, n_body: int) -> bool:
    """Whether the body a detection anchors lies inside the capture."""
    start = body_start(detection, n_body)
    n_chips = n_body * CHIPS_PER_SYMBOL
    # The last chip's pulse spans two chip periods.
    needed = start + (n_chips + 1) * SAMPLES_PER_CHIP if n_chips else start
    return start >= 0 and needed <= capture.size


def body_start(detection: SyncDetection, n_body: int) -> int:
    """Sample where the body's first chip pulse starts: the sync field
    ``SYNC_SYMBOLS`` codewords before it for a preamble, ``n_body``
    codewords after it for a postamble (the rollback)."""
    offset = SYNC_SYMBOLS if detection.kind == "preamble" else -n_body
    return (
        detection.sample_offset
        + offset * CHIPS_PER_SYMBOL * SAMPLES_PER_CHIP
    )
