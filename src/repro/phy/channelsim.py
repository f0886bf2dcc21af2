"""Complex-baseband channel for the waveform path.

Supports the impairments the Fig. 13 experiment needs: additive white
Gaussian noise, per-transmission gain and delay, and the superposition
of multiple concurrent transmissions (collisions).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.utils.rng import RngLike, ensure_rng


@dataclass(frozen=True)
class TransmissionInstance:
    """One waveform placed on the medium.

    ``offset`` is in samples from the start of the capture window;
    ``gain`` is linear amplitude.
    """

    samples: np.ndarray
    offset: int
    gain: float = 1.0

    def __post_init__(self) -> None:
        if self.offset < 0:
            raise ValueError(f"offset must be non-negative, got {self.offset}")
        if self.gain <= 0:
            raise ValueError(f"gain must be positive, got {self.gain}")


def mix_transmissions(
    transmissions: list[TransmissionInstance],
) -> np.ndarray:
    """Superpose transmissions into one capture window (no noise), just
    long enough to hold the last sample of each."""
    if not transmissions:
        raise ValueError("need at least one transmission")
    window_len = max(t.offset + t.samples.size for t in transmissions)
    out = np.zeros(window_len, dtype=np.complex128)
    for t in transmissions:
        wave = np.asarray(t.samples, dtype=np.complex128)
        out[t.offset : t.offset + wave.size] += t.gain * wave
    return out


def add_awgn(
    samples: np.ndarray,
    noise_power: float,
    rng: RngLike = None,
) -> np.ndarray:
    """Add circular complex Gaussian noise of the given total power.

    ``noise_power`` is E[|n|^2]; each of the real/imag components gets
    half of it.
    """
    if noise_power < 0:
        raise ValueError(f"noise_power must be non-negative, got {noise_power}")
    samples = np.asarray(samples, dtype=np.complex128)
    if noise_power == 0:
        return samples.copy()
    gen = ensure_rng(rng)
    sigma = np.sqrt(noise_power / 2.0)
    noise = gen.normal(0.0, sigma, samples.size) + 1j * gen.normal(
        0.0, sigma, samples.size
    )
    return samples + noise


def awgn_collision_channel(
    transmissions: list[TransmissionInstance],
    noise_power: float,
    rng: RngLike = None,
) -> np.ndarray:
    """Convenience: mix transmissions then add AWGN."""
    mixed = mix_transmissions(transmissions)
    return add_awgn(mixed, noise_power, rng)
