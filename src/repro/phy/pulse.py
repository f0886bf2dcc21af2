"""Pulse shapes for the MSK (half-sine O-QPSK) waveform path.

802.15.4's 2450 MHz PHY is O-QPSK with half-sine pulse shaping, which
is mathematically MSK (paper §6, [22]).  Each chip rides a half-sine
pulse spanning two chip periods; even chips go to the I rail, odd chips
to the Q rail offset by one chip period.
"""

from __future__ import annotations

import numpy as np


def half_sine_pulse(sps: int) -> np.ndarray:
    """Half-sine pulse spanning two chip periods at ``sps`` samples/chip.

    Normalised to unit energy so matched-filter outputs are directly
    comparable across oversampling factors.
    """
    if sps < 1:
        raise ValueError(f"sps must be >= 1, got {sps}")
    length = 2 * sps
    t = (np.arange(length) + 0.5) / length
    pulse = np.sin(np.pi * t)
    return pulse / np.linalg.norm(pulse)
