"""MSK matched-filter demodulator (waveform path).

Undoes :class:`repro.phy.modulation.MskModulator`: correlates each
chip's two-chip-period window against the half-sine pulse, reading the
I rail for even chips and the Q rail for odd chips.  With correct
timing there is no inter-chip interference (adjacent same-rail pulses
abut exactly), so the soft output for chip *k* is
``amplitude * sign(chip_k) + noise``.

The matched filter is one fused reduction over a
``sliding_window_view`` of the capture — all chips' windows against
the pulse at once.  The per-chip loop survives as
:meth:`MskDemodulator.demodulate_soft_reference`, the executable spec
the equivalence suite pins bit-for-bit.  Both paths spell the inner
product as multiply-then-``sum`` so the reduction order (numpy's
pairwise summation over the last axis) is identical between them.
"""

from __future__ import annotations

import numpy as np

from repro.phy.modulation import SAMPLES_PER_CHIP, half_sine_pulse


class MskDemodulator:
    """Matched-filter chip demodulator for half-sine O-QPSK/MSK."""

    def __init__(self) -> None:
        self._pulse = half_sine_pulse()

    def _window_view(
        self, samples: np.ndarray, start: int, n_chips: int
    ) -> np.ndarray:
        """Validated strided view of chip windows, one pulse long each.

        ``start`` is the sample index where chip 0's pulse begins.  The
        capture must contain the full span of every requested chip; a
        truncated capture raises ``ValueError`` so callers never decode
        silence as data.
        """
        samples = np.asarray(samples, dtype=np.complex128)
        if start < 0:
            raise ValueError(f"start must be non-negative, got {start}")
        if n_chips < 0:
            raise ValueError(f"n_chips must be non-negative, got {n_chips}")
        plen = self._pulse.size
        needed = start + (n_chips - 1) * SAMPLES_PER_CHIP + plen if n_chips else start
        if needed > samples.size:
            raise ValueError(
                f"capture too short: need {needed} samples, have "
                f"{samples.size}"
            )
        if n_chips == 0:
            return np.zeros((0, plen), dtype=np.complex128)
        windows = np.lib.stride_tricks.sliding_window_view(samples, plen)
        step = SAMPLES_PER_CHIP
        return windows[start : start + n_chips * step : step]

    @staticmethod
    def _rail_split(corr: np.ndarray) -> np.ndarray:
        """I rail for even chips, Q rail for odd chips."""
        out = np.empty(corr.size, dtype=np.float64)
        out[0::2] = corr[0::2].real
        out[1::2] = corr[1::2].imag
        return out

    def demodulate_soft(
        self, samples: np.ndarray, start: int, n_chips: int
    ) -> np.ndarray:
        """Matched-filter soft outputs for ``n_chips`` chips.

        One fused array program: every chip's two-chip-period window is
        correlated against the pulse in a single reduction over the
        window matrix.
        """
        windows = self._window_view(samples, start, n_chips)
        corr = (windows * self._pulse).sum(axis=1)
        return self._rail_split(corr)

    def demodulate_soft_reference(
        self, samples: np.ndarray, start: int, n_chips: int
    ) -> np.ndarray:
        """Per-chip loop implementation, kept as the executable spec
        for :meth:`demodulate_soft` (pinned bit-for-bit by the
        equivalence suite)."""
        samples = np.asarray(samples, dtype=np.complex128)
        # Same validation as the vectorized path.
        self._window_view(samples, start, n_chips)
        pulse = self._pulse
        plen = pulse.size
        out = np.empty(n_chips, dtype=np.float64)
        for k in range(n_chips):
            s0 = start + k * SAMPLES_PER_CHIP
            window = samples[s0 : s0 + plen]
            corr = (window * pulse).sum()
            out[k] = corr.real if k % 2 == 0 else corr.imag
        return out
