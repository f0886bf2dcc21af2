"""CSMA medium access with optional carrier sense (paper §7.2.2).

The paper toggles carrier sense: Fig. 8 has it on, Figs. 9-12 off.
The MAC here is unslotted CSMA with binary exponential backoff; after
``max_attempts`` busy sensings the frame is sent anyway, sustaining the
offered load the way a saturated real network does (the alternative —
dropping — would silently reduce load and flatter every scheme).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.utils.units import dbm_to_mw


@dataclass(frozen=True)
class CsmaConfig:
    """Carrier-sense parameters.

    ``cs_threshold_dbm`` is the energy-detect threshold; backoff delays
    are uniform in [0, window) with the window doubling per retry.
    """

    enabled: bool = True
    cs_threshold_dbm: float = -75.0
    initial_backoff_s: float = 0.005
    max_backoff_s: float = 0.32
    max_attempts: int = 6

    def __post_init__(self) -> None:
        if self.initial_backoff_s <= 0:
            raise ValueError("initial_backoff_s must be positive")
        if self.max_backoff_s < self.initial_backoff_s:
            raise ValueError(
                "max_backoff_s must be >= initial_backoff_s"
            )
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")

    @property
    def cs_threshold_mw(self) -> float:
        """Energy-detect threshold in milliwatts."""
        return float(dbm_to_mw(self.cs_threshold_dbm))


class CsmaMac:
    """Per-sender carrier-sense state machine.

    The owner calls :meth:`attempt` with the currently-sensed power;
    the MAC answers either "transmit now" or "retry after this delay".
    """

    def __init__(
        self, config: CsmaConfig, rng: np.random.Generator
    ) -> None:
        self._config = config
        self._rng = rng
        self._attempt = 0

    def attempt(self, sensed_power_mw: float) -> tuple[bool, float]:
        """Decide whether to transmit given the sensed power.

        Returns ``(transmit_now, delay_s)``: if ``transmit_now`` the
        frame goes on air and the backoff state resets; otherwise the
        caller should re-attempt after ``delay_s``.
        """
        cfg = self._config
        if not cfg.enabled:
            self._attempt = 0
            return True, 0.0
        channel_clear = sensed_power_mw < cfg.cs_threshold_mw
        if channel_clear or self._attempt >= cfg.max_attempts - 1:
            self._attempt = 0
            return True, 0.0
        window = min(
            cfg.initial_backoff_s * (2**self._attempt), cfg.max_backoff_s
        )
        self._attempt += 1
        return False, float(self._rng.uniform(0.0, window))
