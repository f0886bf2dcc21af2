"""SoftPHY decoders: soft-decision and matched-filter hints.

Paper §3.1 lays out three sources of PHY hints, all behind one
convention: **lower hint = higher confidence** (see
:mod:`repro.phy.symbols`).

* Hard-decision nearest-codeword decoding, whose hint is the Hamming
  distance (the design the paper implements and evaluates), is
  :meth:`repro.phy.codebook.Codebook.decode_hard` itself.
* :class:`SoftDecisionDecoder` — Eq. 1 correlation over ±1 chip
  samples; the hint is the (negated, normalised) correlation margin.
* :class:`MatchedFilterHinter` — per-chip matched filter magnitudes
  aggregated per codeword, for uncoded PHYs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.phy.codebook import Codebook


@dataclass(frozen=True)
class DecodeResult:
    """Raw output of a decoder: symbols plus lower-is-better hints."""

    symbols: np.ndarray
    hints: np.ndarray


class SoftDecisionDecoder:
    """Correlation-metric soft-decision decoding (paper §3.1, Eq. 1).

    Consumes per-chip *samples* (matched-filter outputs, roughly ±1
    plus noise) rather than sliced chips.  The decoded symbol maximises
    ``C(R, C_i) = sum_j (2 c_ij - 1) r_ij``.

    The hint must be lower-is-better, so we report the *normalised
    negative margin*: with ±1 samples the margin ranges in ``[0, 2B]``
    and ``(2B - margin) / 4`` maps it to ``[0, B/2]`` — 0 when the
    winner is maximally separated, ``B/2`` when the decision was a
    dead tie.  (Noisy samples can push the margin past ``2B`` and the
    hint slightly negative; only the ordering matters upstream.)
    """

    def __init__(self, codebook: Codebook) -> None:
        self._codebook = codebook

    @property
    def codebook(self) -> Codebook:
        """The codebook decoded against."""
        return self._codebook

    def decode_samples(self, chip_samples: np.ndarray) -> DecodeResult:
        """Decode ``(n, chips_per_symbol)`` soft chip samples."""
        chip_samples = np.asarray(chip_samples, dtype=np.float64)
        signs = self._codebook.sign_matrix
        corr = chip_samples @ signs.T
        # Only the top-2 correlations matter (winner + margin), so an
        # O(n_codewords) partition beats the old full argsort on this
        # per-reception hot path.
        top2 = np.argpartition(corr, -2, axis=1)[:, -2:]
        vals = np.take_along_axis(corr, top2, axis=1)
        first_larger = (vals[:, 0] > vals[:, 1]) | (
            (vals[:, 0] == vals[:, 1]) & (top2[:, 0] < top2[:, 1])
        )
        best_idx = np.where(first_larger, top2[:, 0], top2[:, 1])
        margin = np.abs(vals[:, 0] - vals[:, 1])
        # Map the margin (in [0, 2B] for ±1 samples) to a
        # lower-is-better hint in [0, B/2] comparable in spirit to a
        # Hamming distance.
        hints = (2.0 * self._codebook.chips_per_symbol - margin) / 4.0
        return DecodeResult(symbols=best_idx.astype(np.int64), hints=hints)


class MatchedFilterHinter:
    """Matched-filter magnitude hints for uncoded PHYs (paper §3.1).

    For a PHY without channel coding, the demodulator's matched-filter
    output magnitude is itself the confidence.  Given per-chip filter
    outputs, this aggregates mean |magnitude| per codeword and converts
    to a lower-is-better hint by negating against the nominal amplitude.
    """

    def __init__(self, nominal_amplitude: float = 1.0, group: int = 32) -> None:
        if nominal_amplitude <= 0:
            raise ValueError(
                f"nominal_amplitude must be positive, got {nominal_amplitude}"
            )
        if group <= 0:
            raise ValueError(f"group must be positive, got {group}")
        self._nominal = float(nominal_amplitude)
        self._group = int(group)

    def hints_from_samples(self, samples: np.ndarray) -> np.ndarray:
        """Aggregate per-chip magnitudes into per-codeword hints.

        ``samples`` is a flat array of matched-filter outputs; length
        must be a multiple of the group size.  Output hint is
        ``max(0, nominal - mean|sample|)`` per group: 0 when chips come
        through at full amplitude, growing as the signal weakens.
        """
        samples = np.asarray(samples, dtype=np.float64)
        if samples.size % self._group != 0:
            raise ValueError(
                f"sample count {samples.size} is not a multiple of "
                f"{self._group}"
            )
        mags = np.abs(samples).reshape(-1, self._group).mean(axis=1)
        return np.maximum(0.0, self._nominal - mags)

