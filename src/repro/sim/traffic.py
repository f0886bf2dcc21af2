"""Offered-load generators.

The paper quotes offered load per node in Kbits/s (3.5, 6.9, 13.8) with
a fixed emulated packet size; sources here convert that into packet
inter-arrival processes.  Arrivals are Poisson — the natural model
for independent senders and the one that produces the partial-overlap
collisions PPR feeds on.
"""

from __future__ import annotations

import numpy as np


class PoissonSource:
    """Poisson packet arrivals matching a target offered load."""

    def __init__(
        self,
        load_bits_per_s: float,
        payload_bytes: int,
        rng: np.random.Generator,
    ) -> None:
        if load_bits_per_s <= 0:
            raise ValueError(
                f"load must be positive, got {load_bits_per_s}"
            )
        if payload_bytes <= 0:
            raise ValueError(
                f"payload_bytes must be positive, got {payload_bytes}"
            )
        self._mean_interval = (8.0 * payload_bytes) / load_bits_per_s
        self._rng = rng

    def next_interval(self) -> float:
        """Draw the next inter-arrival time."""
        return float(self._rng.exponential(self._mean_interval))
