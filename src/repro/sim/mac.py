"""CSMA medium access with optional carrier sense (paper §7.2.2).

The paper toggles carrier sense: Fig. 8 has it on, Figs. 9-12 off.
The MAC here is unslotted CSMA with binary exponential backoff; after
``MAX_ATTEMPTS`` busy sensings the frame is sent anyway, sustaining the
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

    ``CS_THRESHOLD_DBM`` is the energy-detect threshold; backoff delays
    are uniform in [0, window) with the window doubling per retry from
    ``INITIAL_BACKOFF_S`` up to ``MAX_BACKOFF_S``.
    """

    CS_THRESHOLD_DBM = -75.0
    INITIAL_BACKOFF_S = 0.005
    MAX_BACKOFF_S = 0.32
    MAX_ATTEMPTS = 6

    enabled: bool = True

    @property
    def cs_threshold_mw(self) -> float:
        """Energy-detect threshold in milliwatts."""
        return float(dbm_to_mw(self.CS_THRESHOLD_DBM))


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
        if channel_clear or self._attempt >= cfg.MAX_ATTEMPTS - 1:
            self._attempt = 0
            return True, 0.0
        window = min(
            cfg.INITIAL_BACKOFF_S * (2**self._attempt), cfg.MAX_BACKOFF_S
        )
        self._attempt += 1
        return False, float(self._rng.uniform(0.0, window))
