"""Figure 13: anatomy of a collision, at waveform level.

Two MSK packets from different senders partially overlap at one
receiver.  The paper shows each packet's per-codeword Hamming distance
over time with markers for correct codewords: distance sits near zero
on the cleanly-received runs, rises sharply across the collision burst,
and the packet whose preamble was lost is recovered through its
postamble.

This experiment exercises the full waveform pipeline — MSK modulation,
superposition, AWGN, preamble/postamble correlation sync, matched
filtering, despreading — rather than the chip-level shortcut the
network simulations use.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.analysis.textplot import render_series
from repro.experiments.common import ExperimentOutput, ShapeCheck
from repro.experiments.registry import register
from repro.phy.batch import WaveformBatchEngine
from repro.phy.channelsim import TransmissionInstance, awgn_collision_channel
from repro.phy.codebook import ZigbeeCodebook
from repro.phy.modulation import SAMPLES_PER_CHIP, MskModulator
from repro.phy.sync import sync_field_symbols
from repro.utils.rng import derive_rng

# The capture: codewords per packet body, how many of them the two
# packets overlap by, AWGN power and the seed of the bodies and the
# noise.
N_BODY = 120
OVERLAP_SYMBOLS = 45
NOISE_POWER = 0.05
SEED = 7


@dataclass
class CollisionAnatomy:
    """Decoded view of one packet in the collision."""

    name: str
    sync_kind: str
    hints: np.ndarray
    correct: np.ndarray


@register(
    "fig13",
    title="Anatomy of a collision (waveform level)",
    paper_expectation=(
        "Hamming distance ~0 on cleanly-received codeword runs, high "
        "across the collision burst; the packet whose preamble was "
        "lost is recovered via its postamble"
    ),
    order=13,
)
def run() -> ExperimentOutput:
    """Simulate the two-packet collision and decode both sides.

    Runs the waveform pipeline on its own single-collision channel;
    the spec declares no simulation points.
    """
    codebook = ZigbeeCodebook()
    rng = derive_rng(SEED, "fig13")
    modulator = MskModulator()
    engine = WaveformBatchEngine(codebook)

    preamble = sync_field_symbols("preamble")
    postamble = sync_field_symbols("postamble")
    body1 = rng.integers(0, 16, N_BODY)
    body2 = rng.integers(0, 16, N_BODY)
    stream1 = np.concatenate([preamble, body1, postamble])
    stream2 = np.concatenate([preamble, body2, postamble])
    wave1 = modulator.modulate_symbols(stream1, codebook)
    wave2 = modulator.modulate_symbols(stream2, codebook)

    # Packet 2 starts so that its preamble lands inside packet 1's tail:
    # packet 1 loses its tail, packet 2 loses its head (and preamble).
    chips_per_symbol = codebook.chips_per_symbol
    offset_symbols = stream1.size - OVERLAP_SYMBOLS
    offset_samples = offset_symbols * chips_per_symbol * SAMPLES_PER_CHIP
    capture = awgn_collision_channel(
        [
            TransmissionInstance(samples=wave1, offset=0, gain=1.0),
            TransmissionInstance(
                samples=wave2, offset=offset_samples, gain=1.0
            ),
        ],
        noise_power=NOISE_POWER,
        rng=derive_rng(SEED, "fig13-noise"),
    )

    # Packet 1 syncs on its (cleanly received) preamble; packet 2's
    # preamble collided, so it anchors on its postamble and rolls
    # back.  Both packets' codeword runs go through the engine's fused
    # matched filter + nearest-codeword decode in one call.
    pair = engine.receive_collision_pair(capture, N_BODY)
    sym1, hints1 = pair.first.symbols, pair.first.hints
    sym2, hints2 = pair.second.symbols, pair.second.hints

    packet1 = CollisionAnatomy(
        name="first packet (preamble sync)",
        sync_kind="preamble",
        hints=hints1,
        correct=sym1 == body1,
    )
    packet2 = CollisionAnatomy(
        name="second packet (postamble rollback)",
        sync_kind="postamble",
        hints=hints2,
        correct=sym2 == body2,
    )

    xs = np.arange(N_BODY)
    rendered = render_series(
        xs,
        {
            "packet 1 Hamming distance": packet1.hints,
            "packet 2 Hamming distance": packet2.hints,
        },
        xlabel="time (codeword number)",
    )

    # Shape checks: clean regions decode with low hints, the overlapped
    # regions show high hints, and hints track correctness.
    clean1 = packet1.hints[: N_BODY - OVERLAP_SYMBOLS]
    dirty1 = packet1.hints[N_BODY - OVERLAP_SYMBOLS :]
    # Packet 2's head: overlap minus its sync field (which also collided).
    dirty2_len = max(OVERLAP_SYMBOLS - preamble.size, 1)
    clean2 = packet2.hints[dirty2_len:]
    checks = [
        ShapeCheck(
            name="packet 1 clean run decodes with near-zero hints",
            passed=float(np.mean(clean1)) <= 1.0
            and bool(packet1.correct[: clean1.size].all()),
            detail=f"mean hint {np.mean(clean1):.2f} over "
            f"{clean1.size} codewords",
        ),
        ShapeCheck(
            name="collision region shows high hints on packet 1",
            passed=float(np.mean(dirty1)) >= 4.0,
            detail=f"mean hint {np.mean(dirty1):.2f} in overlap",
        ),
        ShapeCheck(
            name="packet 2 recovered through postamble rollback",
            passed=float(np.mean(clean2)) <= 1.0
            and float(np.mean(packet2.correct[dirty2_len:])) >= 0.95,
            detail=f"clean-run mean hint {np.mean(clean2):.2f}, "
            f"correct {np.mean(packet2.correct[dirty2_len:]):.2%}",
        ),
        ShapeCheck(
            name="hints separate correct from incorrect codewords",
            passed=_hint_separation(packet1, packet2),
            detail="mean hint(incorrect) > mean hint(correct) + 3",
        ),
    ]
    return ExperimentOutput(
        rendered=rendered,
        shape_checks=checks,
        series={
            "packet1_hints": packet1.hints,
            "packet1_correct": packet1.correct,
            "packet2_hints": packet2.hints,
            "packet2_correct": packet2.correct,
        },
    )


def _hint_separation(*packets: CollisionAnatomy) -> bool:
    hints = np.concatenate([p.hints for p in packets])
    correct = np.concatenate([p.correct for p in packets])
    if correct.all() or not correct.any():
        return False
    return float(hints[~correct].mean()) > float(hints[correct].mean()) + 3.0
