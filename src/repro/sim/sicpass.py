"""Waveform-fidelity SIC re-decode over a chip-level simulation run.

The event-driven simulation stays the fast default: every reception is
decoded at chip level.  With ``SimulationConfig.sic_recovery`` on, the
run takes a second look at two-frame collisions — each isolated
overlapping pair at a receiver whose chip-level decode left damage is
re-rendered at sample fidelity through the existing waveform bridge
(same link budget via :meth:`RadioMedium.amplitude_gain`, same
block-fading draw as the chip path) and pushed through the
:class:`~repro.recovery.sic.SicDecoder` pipeline.  Records the SIC
pass genuinely improves are updated in place; everything else is left
exactly as the chip-level decode produced it.

Determinism: the capture noise for a pair is drawn from
``keyed_rng(seed, "sic-capture", receiver, tx_a, tx_b)`` — a pure
function of the run config, so the pass is bit-identical however the
surrounding sweep is scheduled (serial or ``--jobs N``).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.link.frame import (
    parse_header_bytes,
    parse_trailer_bytes,
    payload_slice,
)
from repro.phy.channelsim import TransmissionInstance, awgn_collision_channel
from repro.phy.codebook import Codebook
from repro.phy.modulation import MskModulator
from repro.phy.spreading import symbols_to_bytes
from repro.recovery.sic import SicDecoder, SicFrame
from repro.sim.medium import RadioMedium
from repro.utils.rng import keyed_rng

if TYPE_CHECKING:
    from repro.sim.network import ReceptionRecord, SimulationConfig

# Samples per chip for the re-rendered captures.  4 matches the
# waveform experiments; the SIC pass needs no more timing resolution
# than the modem it reuses.
SIC_SPS = 4


def _damaged(record: "ReceptionRecord") -> bool:
    """Whether a chip-level record left anything for SIC to recover."""
    return (
        not record.acquired(True)
        or not record.header_ok
        or not record.trailer_ok
        or int(record.body_hints.max()) > 0
    )


def _match_tx(
    frame: SicFrame,
    expected_starts: dict[int, int],
    guard_samples: int,
    claimed: set[int],
) -> int | None:
    """The transmission a recovered frame belongs to, by start sample.

    A frame is attributed to the unclaimed transmission whose expected
    waveform offset is nearest its recovered ``frame_start``, within
    one symbol — anything farther is a false lock, not a recovery.
    """
    best: int | None = None
    best_gap = guard_samples + 1
    for tx_id, start in expected_starts.items():
        if tx_id in claimed:
            continue
        gap = abs(frame.frame_start - start)
        if gap < best_gap:
            best = tx_id
            best_gap = gap
    return best if best_gap <= guard_samples else None


def _adopt(
    record: "ReceptionRecord", frame: SicFrame, eta: float
) -> bool:
    """Replace a record's decode with a SIC recovery when it improves.

    Improvement is measured in η-bad symbols: an unacquired record
    gains acquisition outright; an acquired one is only overwritten
    when the SIC decode leaves strictly fewer symbols below
    confidence.  The record's transmission is never touched —
    correctness stays measured against the same ground truth.
    """
    symbols = frame.reception.symbols
    if symbols.size != record.body_symbols.size:
        return False
    bad_before = int(np.count_nonzero(record.body_hints > eta))
    if record.acquired(True) and frame.fallback.n_bad_symbols >= bad_before:
        return False
    record.body_symbols = symbols.astype(np.int8)
    record.body_hints = np.minimum(
        frame.reception.hints, 255.0
    ).astype(np.uint8)
    payload = payload_slice(symbols.size)
    _, record.header_ok = parse_header_bytes(
        symbols_to_bytes(symbols[: payload.start])
    )
    _, record.trailer_ok = parse_trailer_bytes(
        symbols_to_bytes(symbols[payload.stop :])
    )
    detection = frame.reception.detection
    if detection is not None and detection.kind == "preamble":
        record.preamble_detectable = True
        record.acquired_preamble = True
    else:
        record.postamble_detectable = True
    return True


def apply_sic_recovery(
    config: "SimulationConfig",
    codebook: Codebook,
    medium: RadioMedium,
    fades: dict[tuple[int, int], float],
    records: list["ReceptionRecord"],
) -> int:
    """Re-decode isolated collision pairs at waveform fidelity.

    For every receiver, every pair of audible transmissions that
    overlap each other and nothing else is a SIC candidate; a pair is
    re-rendered only when at least one of its chip-level records is
    damaged.  Returns the number of records updated.
    """
    width = codebook.chips_per_symbol
    sample_rate = width * SIC_SPS / config.symbol_period_s
    by_receiver: dict[int, dict[int, "ReceptionRecord"]] = {}
    for record in records:
        by_receiver.setdefault(record.receiver, {})[record.tx.tx_id] = record
    # Mirror the chip-level detectability rule: a sync field whose chip
    # error rate is p correlates at 1 - 2p in the ±1 chip domain, so
    # the config's sync_error_threshold maps onto this correlation
    # threshold — the two fidelity levels agree on what "detectable"
    # means.
    decoder = SicDecoder(
        codebook,
        sps=SIC_SPS,
        threshold=1.0 - 2.0 * config.sync_error_threshold,
    )
    modulator = MskModulator(sps=SIC_SPS)
    wave_cache: dict[int, np.ndarray] = {}
    guard = width * SIC_SPS
    updated = 0
    for receiver in sorted(by_receiver):
        recmap = by_receiver[receiver]
        audible = [recmap[tx_id].tx for tx_id in sorted(recmap)]
        for i, a in enumerate(audible):
            for b in audible[i + 1 :]:
                if not a.overlaps(b):
                    continue
                if any(
                    c.tx_id not in (a.tx_id, b.tx_id)
                    and (c.overlaps(a) or c.overlaps(b))
                    for c in audible
                ):
                    continue  # only isolated two-frame collisions
                if not (_damaged(recmap[a.tx_id]) or _damaged(recmap[b.tx_id])):
                    continue
                t0 = min(a.start, b.start)
                instances = []
                for t in (a, b):
                    wave = wave_cache.get(t.tx_id)
                    if wave is None:
                        wave = modulator.modulate_symbols(
                            t.symbols, codebook
                        )
                        wave_cache[t.tx_id] = wave
                    fade = fades.get((t.tx_id, receiver), 1.0)
                    instances.append(
                        TransmissionInstance(
                            samples=wave,
                            offset=int(round((t.start - t0) * sample_rate)),
                            gain=medium.amplitude_gain(t.sender, receiver)
                            * float(np.sqrt(fade)),
                        )
                    )
                rng = keyed_rng(
                    config.seed, "sic-capture", receiver, a.tx_id, b.tx_id
                )
                capture = awgn_collision_channel(
                    instances, medium.noise_mw, rng=rng
                )
                result = decoder.decode_pair(
                    capture, recmap[a.tx_id].body_symbols.size
                )
                expected_starts = {
                    a.tx_id: instances[0].offset,
                    b.tx_id: instances[1].offset,
                }
                claimed: set[int] = set()
                for frame in result.frames:
                    tx_id = _match_tx(
                        frame, expected_starts, guard, claimed
                    )
                    if tx_id is None:
                        continue
                    claimed.add(tx_id)
                    record = recmap[tx_id]
                    if _damaged(record) and _adopt(
                        record, frame, decoder.eta
                    ):
                        updated += 1
    return updated
