"""Frame re-synthesis for successive interference cancellation.

The SIC pipeline (:mod:`repro.recovery.sic`) decodes the stronger
frame of a collision, rebuilds its transmitted waveform from the
decoded symbols, scales it by the estimated complex channel gain, and
subtracts it from the capture so the weaker frame can be decoded from
the residual.  This module holds the three sample-domain pieces:

* :func:`remodulate_frame` — decoded symbols back to a complex
  baseband waveform (spread through the codebook, MSK-modulated,
  scaled by an estimated gain and carrier phase), with its per-chip
  loop twin :func:`remodulate_frame_reference` pinned bit-for-bit;
* :func:`estimate_complex_scale` — the least-squares complex gain of
  a unit reconstruction against the capture segment it overlaps;
* :func:`subtract_frame` — clipped subtraction of a reconstruction
  placed at a sample offset (possibly hanging off either capture
  edge).
"""

from __future__ import annotations

import numpy as np

from repro.phy.codebook import Codebook
from repro.phy.modulation import MskModulator


def _frame_scale(gain: float, phase: float) -> complex:
    """Shared complex scale so the kernel twins multiply identically."""
    return complex(gain) * complex(np.exp(1j * float(phase)))


def remodulate_frame(
    symbols: np.ndarray,
    codebook: Codebook,
    gain: float = 1.0,
    phase: float = 0.0,
) -> np.ndarray:
    """Re-synthesise a frame's waveform from decoded symbols.

    Spreads ``symbols`` through ``codebook``, MSK-modulates the chips
    (vectorized rail-split program), and scales by ``gain`` at carrier
    ``phase`` — the transmitter inverted, as the canceller needs it.
    Bit-identical to :func:`remodulate_frame_reference`.
    """
    chips = codebook.encode(np.asarray(symbols, dtype=np.int64))
    wave = MskModulator().modulate_chips(chips)
    return _frame_scale(gain, phase) * wave


def remodulate_frame_reference(
    symbols: np.ndarray,
    codebook: Codebook,
    gain: float = 1.0,
    phase: float = 0.0,
) -> np.ndarray:
    """Per-chip loop implementation, kept as the executable spec for
    :func:`remodulate_frame` (the equivalence suite pins the two
    bit-for-bit)."""
    chips = codebook.encode(np.asarray(symbols, dtype=np.int64))
    wave = MskModulator().modulate_chips_reference(chips)
    return _frame_scale(gain, phase) * wave


def estimate_complex_scale(
    capture: np.ndarray, frame: np.ndarray, offset: int
) -> complex:
    """Least-squares complex gain of ``frame`` within ``capture``.

    Returns the scale ``s`` minimising ``|capture_seg - s * frame_seg|``
    over the samples where the frame (placed with its first sample at
    ``offset``) overlaps the capture — amplitude *and* residual carrier
    phase in one estimate.  Returns ``0j`` when the overlap is empty or
    the frame segment carries no energy (nothing to cancel).
    """
    capture = np.asarray(capture, dtype=np.complex128)
    frame = np.asarray(frame, dtype=np.complex128)
    start = max(0, offset)
    stop = min(capture.size, offset + frame.size)
    if stop <= start:
        return 0j
    seg_c = capture[start:stop]
    seg_f = frame[start - offset : stop - offset]
    denom = np.vdot(seg_f, seg_f).real
    if not denom > 0:
        return 0j
    return complex(np.vdot(seg_f, seg_c) / denom)


def subtract_frame(
    capture: np.ndarray, frame: np.ndarray, offset: int
) -> np.ndarray:
    """Capture minus a reconstruction placed at ``offset``.

    The frame's first sample lands at capture sample ``offset``
    (negative offsets and overhang past the capture end are clipped).
    Returns a new array; the capture is never mutated.
    """
    capture = np.asarray(capture, dtype=np.complex128)
    frame = np.asarray(frame, dtype=np.complex128)
    residual = capture.copy()
    start = max(0, offset)
    stop = min(capture.size, offset + frame.size)
    if stop > start:
        residual[start:stop] -= frame[start - offset : stop - offset]
    return residual
