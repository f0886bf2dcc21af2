"""MSK (half-sine O-QPSK) modulator.

Produces complex-baseband sample streams from chip sequences, matching
the CC2420's modulation (paper §6): even-indexed chips modulate the I
rail, odd-indexed chips the Q rail delayed by one chip period, each
chip shaped by a half-sine spanning two chip periods.  802.15.4's
2450 MHz PHY is O-QPSK with half-sine pulse shaping, which is
mathematically MSK (paper §6, [22]).
"""

from __future__ import annotations

import numpy as np

from repro.phy.codebook import Codebook

# 802.15.4 timing: 2 Mchip/s, 32 chips per symbol; every waveform is
# sampled at 4 samples per chip.
CHIP_RATE_HZ = 2.0e6
CHIPS_PER_SYMBOL = 32
SAMPLES_PER_CHIP = 4
SYMBOL_PERIOD_S = CHIPS_PER_SYMBOL / CHIP_RATE_HZ


def half_sine_pulse() -> np.ndarray:
    """Half-sine pulse spanning two chip periods, normalised to unit
    energy so matched-filter outputs read in units of amplitude."""
    length = 2 * SAMPLES_PER_CHIP
    t = (np.arange(length) + 0.5) / length
    pulse = np.sin(np.pi * t)
    return pulse / np.linalg.norm(pulse)


class MskModulator:
    """Chip-stream -> complex baseband MSK samples at
    ``SAMPLES_PER_CHIP`` samples per chip.

    The output has unit amplitude; the channel applies each link's gain.
    """

    def __init__(self) -> None:
        self._pulse = half_sine_pulse()

    def samples_for_chips(self, n_chips: int) -> int:
        """Waveform length (samples) for a chip sequence of given length."""
        if n_chips < 0:
            raise ValueError(f"n_chips must be non-negative, got {n_chips}")
        if n_chips == 0:
            return 0
        # Last chip's pulse spans two chip periods; Q rail adds one more
        # chip of offset when the last chip index is odd.
        return (n_chips + 1) * SAMPLES_PER_CHIP

    def _validated_signs(self, chips: np.ndarray) -> np.ndarray:
        """Shared validation: 0/1 chips, even count, as ±1 signs."""
        chips = np.asarray(chips, dtype=np.int64)
        if chips.size % 2 != 0:
            raise ValueError(
                f"chip count must be even for O-QPSK, got {chips.size}"
            )
        if chips.size and (chips.min() < 0 or chips.max() > 1):
            raise ValueError("chips must be 0/1")
        return chips * 2 - 1

    def modulate_chips(self, chips: np.ndarray) -> np.ndarray:
        """Modulate a 0/1 chip array into complex baseband samples.

        The chip count must be even (chips alternate I/Q rails).

        Vectorized rail-split program: same-rail pulses abut exactly
        (two-chip-period pulse, two-chip same-rail spacing), so each
        rail is the flattened outer product of its chips' signs with
        the pulse — no per-chip loop, bit-identical to
        :meth:`modulate_chips_reference`.
        """
        signs = self._validated_signs(chips)
        n = signs.size
        if n == 0:
            return np.zeros(0, dtype=np.complex128)
        out_len = self.samples_for_chips(n)
        wave_i = np.zeros(out_len, dtype=np.float64)
        wave_q = np.zeros(out_len, dtype=np.float64)
        # Even chips fill the I rail from sample 0, odd chips the Q
        # rail one chip later (the inherent one-chip O-QPSK offset);
        # consecutive same-rail blocks are disjoint, so assignment of
        # the flattened outer product reproduces the reference's
        # accumulate-into-zeros exactly.
        blocks_i = signs[0::2, None] * self._pulse
        blocks_q = signs[1::2, None] * self._pulse
        wave_i[: blocks_i.size] = blocks_i.ravel()
        wave_q[SAMPLES_PER_CHIP : SAMPLES_PER_CHIP + blocks_q.size] = (
            blocks_q.ravel()
        )
        return wave_i + 1j * wave_q

    def modulate_chips_reference(self, chips: np.ndarray) -> np.ndarray:
        """Per-chip loop implementation, kept as the executable spec
        for :meth:`modulate_chips` (the equivalence suite pins the two
        bit-for-bit)."""
        signs = self._validated_signs(chips)
        n = signs.size
        if n == 0:
            return np.zeros(0, dtype=np.complex128)
        out_len = self.samples_for_chips(n)
        wave_i = np.zeros(out_len, dtype=np.float64)
        wave_q = np.zeros(out_len, dtype=np.float64)
        pulse = self._pulse
        plen = pulse.size
        # Chip k's pulse starts k chips in and spans two chips; even
        # chips on I, odd chips on Q (inherent one-chip offset).
        for k in range(n):
            start = k * SAMPLES_PER_CHIP
            rail = wave_i if k % 2 == 0 else wave_q
            rail[start : start + plen] += signs[k] * pulse
        return wave_i + 1j * wave_q

    def modulate_symbols(
        self, symbols: np.ndarray, codebook: Codebook
    ) -> np.ndarray:
        """Spread symbols through ``codebook`` and modulate the chips."""
        chips = codebook.encode(np.asarray(symbols, dtype=np.int64))
        return self.modulate_chips(chips)
