"""Waveform-fidelity SIC re-decode over a chip-level simulation run.

The event-driven simulation stays the fast default: every reception is
decoded at chip level.  With ``SimulationConfig.sic_recovery`` on, the
run takes a second look at two-frame collisions — each isolated
overlapping pair at a receiver whose chip-level decode left damage is
re-rendered at sample fidelity through the existing waveform bridge
(same link budget via :meth:`RadioMedium.amplitude_gain`, same
block-fading draw as the chip path) and pushed through the
:class:`~repro.recovery.sic.SicDecoder` pipeline.  Trace-table rows
the SIC pass genuinely improves are rewritten in place; everything
else is left exactly as the chip-level decode produced it.

Determinism: the capture noise for a pair is drawn from
``keyed_rng(seed, "sic-capture", receiver, tx_a, tx_b)`` — a pure
function of the run config, so the pass is bit-identical however the
surrounding sweep is scheduled (serial or ``--jobs N``).
"""

from __future__ import annotations

from collections.abc import Sequence
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
from repro.sim.medium import RadioMedium, Transmission
from repro.utils.rng import keyed_rng

if TYPE_CHECKING:
    from repro.sim.network import SimulationConfig, TraceTable

# Samples per chip for the re-rendered captures.  4 matches the
# waveform experiments; the SIC pass needs no more timing resolution
# than the modem it reuses.
SIC_SPS = 4


def _damaged(table: "TraceTable", row: int) -> bool:
    """Whether a chip-level row left anything for SIC to recover."""
    return (
        not table.acquired(True)[row]
        or not table.header_ok[row]
        or not table.trailer_ok[row]
        or int(table.body_hints[row].max()) > 0
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
    table: "TraceTable", row: int, frame: SicFrame, eta: float
) -> bool:
    """Replace a row's decode with a SIC recovery when it improves.

    Improvement is measured in η-bad symbols: an unacquired row gains
    acquisition outright; an acquired one is only overwritten when
    the SIC decode leaves strictly fewer symbols below confidence.
    The row's transmission is never touched — correctness stays
    measured against the same ground truth.
    """
    symbols = frame.reception.symbols
    if symbols.size != table.body_symbols.shape[1]:
        return False
    bad_before = int(np.count_nonzero(table.body_hints[row] > eta))
    if table.acquired(True)[row] and frame.fallback.n_bad_symbols >= bad_before:
        return False
    table.body_symbols[row] = symbols.astype(np.int8)
    table.body_hints[row] = np.minimum(
        frame.reception.hints, 255.0
    ).astype(np.uint8)
    payload = payload_slice(symbols.size)
    _, table.header_ok[row] = parse_header_bytes(
        symbols_to_bytes(symbols[: payload.start])
    )
    _, table.trailer_ok[row] = parse_trailer_bytes(
        symbols_to_bytes(symbols[payload.stop :])
    )
    detection = frame.reception.detection
    if detection is not None and detection.kind == "preamble":
        table.preamble_detectable[row] = True
        table.acquired_preamble[row] = True
    else:
        table.postamble_detectable[row] = True
    return True


def apply_sic_recovery(
    config: "SimulationConfig",
    codebook: Codebook,
    medium: RadioMedium,
    transmissions: Sequence[Transmission],
    receivers: Sequence[int],
    gains: np.ndarray,
    table: "TraceTable",
) -> int:
    """Re-decode isolated collision pairs at waveform fidelity.

    For every receiver, every pair of audible transmissions that
    overlap each other and nothing else is a SIC candidate; a pair is
    re-rendered only when at least one of its chip-level rows is
    damaged.  ``gains[i, j]`` is the block fade of ``transmissions[i]``
    at ``receivers[j]``.  Rows are rewritten in place; returns how
    many.
    """
    width = codebook.chips_per_symbol
    sample_rate = width * SIC_SPS / config.symbol_period_s
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
    for col, receiver in enumerate(receivers):
        # This receiver's rows, keyed by the index of their
        # transmission (ascending: the table is transmission-major).
        rows = np.flatnonzero(table.receiver == receiver)
        row_of = dict(
            zip(table.tx_index[rows].tolist(), rows.tolist(), strict=True)
        )
        audible = list(row_of)
        for k, a in enumerate(audible):
            ta = transmissions[a]
            for b in audible[k + 1 :]:
                tb = transmissions[b]
                if not ta.overlaps(tb):
                    continue
                if any(
                    c not in (a, b)
                    and (
                        transmissions[c].overlaps(ta)
                        or transmissions[c].overlaps(tb)
                    )
                    for c in audible
                ):
                    continue  # only isolated two-frame collisions
                if not (
                    _damaged(table, row_of[a]) or _damaged(table, row_of[b])
                ):
                    continue
                t0 = min(ta.start, tb.start)
                instances = []
                for i in (a, b):
                    t = transmissions[i]
                    wave = wave_cache.get(i)
                    if wave is None:
                        wave = modulator.modulate_symbols(t.symbols, codebook)
                        wave_cache[i] = wave
                    instances.append(
                        TransmissionInstance(
                            samples=wave,
                            offset=int(round((t.start - t0) * sample_rate)),
                            gain=medium.amplitude_gain(t.sender, receiver)
                            * float(np.sqrt(gains[i, col])),
                        )
                    )
                rng = keyed_rng(
                    config.seed, "sic-capture", receiver, ta.tx_id, tb.tx_id
                )
                capture = awgn_collision_channel(
                    instances, medium.noise_mw, rng=rng
                )
                result = decoder.decode_pair(
                    capture, table.body_symbols.shape[1]
                )
                expected_starts = {
                    a: instances[0].offset,
                    b: instances[1].offset,
                }
                claimed: set[int] = set()
                for frame in result.frames:
                    i = _match_tx(frame, expected_starts, guard, claimed)
                    if i is None:
                        continue
                    claimed.add(i)
                    if _damaged(table, row_of[i]) and _adopt(
                        table, row_of[i], frame, decoder.eta
                    ):
                        updated += 1
    return updated
