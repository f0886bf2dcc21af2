"""Radio medium: path loss, shadowing, powers, and transmissions.

Propagation is log-distance path loss with per-link lognormal
shadowing, the standard indoor model.  Shadowing is frozen per directed
link for a whole run (office links are static on experiment
timescales), seeded deterministically so every experiment is
repeatable.

The medium also bridges to the waveform path:
:meth:`RadioMedium.amplitude_gain` scales complex-baseband waveforms
by the link budget, and :func:`waveform_capture` renders a set of
(possibly colliding) transmissions into one receiver's capture window
for the :class:`~repro.phy.batch.WaveformBatchEngine` — the same
geometry the chip-level simulation uses, at sample fidelity.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.phy.channelsim import TransmissionInstance, awgn_collision_channel
from repro.phy.modulation import SYMBOL_PERIOD_S
from repro.utils.rng import RngLike, derive_rng
from repro.utils.units import dbm_to_mw

#: Transmit power of every node
TX_POWER_DBM = 0.0


@dataclass(frozen=True)
class PathLossModel:
    """Log-distance path loss: PL(d) = PL0 + 10 n log10(d / d0) + X_σ.

    The constants approximate a 2.4 GHz indoor office: 40 dB loss at
    1 m and exponent 3.8 through walls and furniture; the shadowing
    defaults to 6 dB.
    """

    PL0_DB = 40.0
    D0_M = 1.0
    EXPONENT = 3.8

    shadowing_sigma_db: float = 6.0

    def __post_init__(self) -> None:
        if self.shadowing_sigma_db < 0:
            raise ValueError("shadowing sigma must be non-negative")

    def mean_loss_db(self, distance_m) -> np.ndarray:
        """Deterministic part of the path loss at a distance."""
        d = np.maximum(np.asarray(distance_m, dtype=np.float64), self.D0_M)
        return self.PL0_DB + 10.0 * self.EXPONENT * np.log10(d / self.D0_M)


@dataclass(frozen=True)
class Transmission:
    """One frame on the air.

    ``n_symbols`` counts its on-air symbols (sync fields included);
    ``start`` is in seconds, and the duration follows from the 802.15.4
    symbol period ``SYMBOL_PERIOD_S``.  The symbols themselves are not kept: a run hands them to
    the receiver once, and a reception keeps only what SoftPHY hands up.
    ``seq`` is the link-layer sequence number carried in the frame
    header, assigned when the frame is *built*; ``tx_id`` is assigned
    when the frame actually reaches the air, so the two can differ for
    frames deferred by CSMA backoff or a busy sender.
    """

    tx_id: int
    sender: int
    dst: int
    start: float
    n_symbols: int
    seq: int = -1

    @property
    def duration(self) -> float:
        """Airtime in seconds."""
        return self.n_symbols * SYMBOL_PERIOD_S

    @property
    def end(self) -> float:
        """Time the last symbol finishes."""
        return self.start + self.duration


class RadioMedium:
    """Node geometry plus frozen per-link channel gains.

    Powers are handled in milliwatts internally; the public interface
    speaks dBm.  ``seed`` fixes the shadowing realisation.
    """

    def __init__(
        self,
        positions_m: np.ndarray,
        path_loss: PathLossModel | None = None,
        noise_floor_dbm: float = -95.0,
        seed: int = 0,
        extra_loss_db: np.ndarray | None = None,
    ) -> None:
        positions = np.asarray(positions_m, dtype=np.float64)
        if positions.ndim != 2 or positions.shape[1] != 2:
            raise ValueError(
                f"positions must be (n, 2), got {positions.shape}"
            )
        self._model = path_loss or PathLossModel()
        self._noise_mw = float(dbm_to_mw(noise_floor_dbm))
        n = positions.shape[0]
        diff = positions[:, None, :] - positions[None, :, :]
        dist = np.sqrt((diff**2).sum(axis=-1))
        loss = self._model.mean_loss_db(dist)
        if extra_loss_db is not None:
            extra = np.asarray(extra_loss_db, dtype=np.float64)
            if extra.shape != (n, n):
                raise ValueError(
                    f"extra_loss_db must be ({n}, {n}), got {extra.shape}"
                )
            loss = loss + extra
        if self._model.shadowing_sigma_db > 0:
            rng = derive_rng(seed, "shadowing")
            shadow = rng.normal(
                0.0, self._model.shadowing_sigma_db, size=(n, n)
            )
            # Shadowing is reciprocal: the obstruction between two nodes
            # attenuates both directions alike.
            shadow = np.triu(shadow, 1)
            shadow = shadow + shadow.T
            loss = loss + shadow
        rx_dbm = TX_POWER_DBM - loss
        self._rx_mw = dbm_to_mw(rx_dbm)
        np.fill_diagonal(self._rx_mw, np.inf)  # own signal saturates

    @property
    def noise_mw(self) -> float:
        """Thermal noise floor in milliwatts."""
        return self._noise_mw

    @property
    def rx_power_matrix_mw(self) -> np.ndarray:
        """Read-only ``(sender, receiver)`` received powers in mW.

        The diagonal is ``inf``: a node's own signal saturates it.
        """
        view = self._rx_mw.view()
        view.flags.writeable = False
        return view

    def rx_power_mw(self, sender: int, receiver: int) -> float:
        """Received power of ``sender`` at ``receiver`` in mW."""
        if sender == receiver:
            raise ValueError("sender and receiver must differ")
        return float(self._rx_mw[sender, receiver])

    def snr(self, sender: int, receiver: int) -> float:
        """Interference-free linear SNR of a link."""
        return self.rx_power_mw(sender, receiver) / self._noise_mw

    def amplitude_gain(self, sender: int, receiver: int) -> float:
        """Complex-baseband amplitude scale of a link (√ received mW).

        A unit-amplitude waveform from ``sender`` arrives at
        ``receiver`` multiplied by this; squaring it recovers
        :meth:`rx_power_mw`, so waveform-level captures built with it
        see the same link budget as the chip-level simulation.
        """
        return float(np.sqrt(self.rx_power_mw(sender, receiver)))

    def carrier_sensed_power_mw(
        self, listener: int, active: list[Transmission]
    ) -> float:
        """Total power a listener hears from active transmissions."""
        total = 0.0
        for t in active:
            if t.sender != listener:
                total += self.rx_power_mw(t.sender, listener)
        return total

    def interference_timeline_mw(
        self,
        reception: Transmission,
        receiver: int,
        others: list[Transmission],
        power_scale: "dict[int, float] | None" = None,
    ) -> np.ndarray:
        """Per-symbol interference power during ``reception``.

        Each overlapping transmission adds its received power to the
        symbols of ``reception`` it overlaps in time — the mechanism
        that corrupts only parts of packets (paper Fig. 5).
        ``power_scale`` optionally maps a transmission id to a linear
        fading gain applied on top of the static link budget.
        """
        n = reception.n_symbols
        interference = np.zeros(n, dtype=np.float64)
        for other in others:
            if other.tx_id == reception.tx_id:
                continue
            if other.sender == receiver:
                # A half-duplex receiver transmitting over the whole
                # overlap hears nothing useful; model as huge
                # interference on the overlapped symbols.
                power = np.inf
            else:
                power = self.rx_power_mw(other.sender, receiver)
                if power_scale is not None:
                    power *= power_scale.get(other.tx_id, 1.0)
            lo = (other.start - reception.start) / SYMBOL_PERIOD_S
            hi = (other.end - reception.start) / SYMBOL_PERIOD_S
            lo_idx = max(0, int(np.floor(lo)))
            hi_idx = min(n, int(np.ceil(hi)))
            if hi_idx > lo_idx:
                interference[lo_idx:hi_idx] += power
        return interference


def waveform_instances(
    medium: RadioMedium,
    receiver: int,
    transmissions: Sequence[Transmission],
    waves: Sequence[np.ndarray],
    sample_rate: float,
) -> list[TransmissionInstance]:
    """Place transmissions' waveforms on a receiver's capture window.

    ``waves`` holds each transmission's unit-scale complex-baseband
    waveform; sample offsets come from the start times (relative to
    the earliest transmission) and amplitudes from the medium's link
    budget (:meth:`RadioMedium.amplitude_gain`).  Feed the result to
    :func:`repro.phy.channelsim.mix_transmissions` /
    :func:`waveform_capture`.
    """
    if not transmissions:
        raise ValueError("need at least one transmission")
    if sample_rate <= 0:
        raise ValueError(
            f"sample_rate must be positive, got {sample_rate}"
        )
    t0 = min(t.start for t in transmissions)
    return [
        TransmissionInstance(
            samples=wave,
            offset=int(round((t.start - t0) * sample_rate)),
            gain=medium.amplitude_gain(t.sender, receiver),
        )
        for t, wave in zip(transmissions, waves, strict=True)
    ]


def waveform_capture(
    medium: RadioMedium,
    receiver: int,
    transmissions: Sequence[Transmission],
    waves: Sequence[np.ndarray],
    sample_rate: float,
    rng: RngLike = None,
) -> np.ndarray:
    """One receiver's capture of (possibly colliding) transmissions.

    Superposes the link-budget-scaled waveforms and adds AWGN at the
    medium's noise floor — the sample-fidelity counterpart of the
    chip-level :meth:`RadioMedium.interference_timeline_mw` path, and
    the input format of the
    :class:`~repro.phy.batch.WaveformBatchEngine`.
    """
    instances = waveform_instances(
        medium, receiver, transmissions, waves, sample_rate
    )
    return awgn_collision_channel(instances, medium.noise_mw, rng=rng)
