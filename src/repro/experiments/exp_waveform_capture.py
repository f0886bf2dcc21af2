"""Capture effect at waveform level, over testbed geometry.

Beyond-the-paper experiment on the batched waveform pipeline: two
senders at unequal ranges from one receiver
(:func:`repro.sim.testbed.collision_testbed`) collide on the air, and
the receiver's capture window is rendered through the radio medium's
actual link budget (:func:`repro.sim.medium.waveform_capture`) rather
than the unit gains the Fig. 13 anatomy uses.  The expected asymmetry
is the capture effect: the near (stronger) sender's frame decodes
through the collision almost untouched, while the far sender loses its
preamble under the near frame and is only recovered — clean tail,
destroyed head — by rolling back from its postamble, exactly the
§4 rollback story at sample fidelity.

The whole reception runs through the
:class:`~repro.phy.batch.WaveformBatchEngine`: one sync pass per field
and one matched-filter + nearest-codeword decode for both frames.

A second capture repeats the collision with the chip grids *exactly*
codeword-aligned — PPR's blind spot: the near frame's chips form
valid codewords inside the far frame's decode windows, so the far
head decodes to confidently wrong symbols (hint 0) that the η
threshold rule happily delivers.  Successive interference
cancellation (:class:`repro.recovery.SicDecoder`) closes the hole on
both captures: it subtracts the re-modulated near frame and decodes
the far frame whole from the residual, turning the misleading head
into a full recovery under :class:`~repro.link.schemes.SicScheme`.
"""

from __future__ import annotations

import numpy as np

from repro.analysis.textplot import render_series
from repro.experiments.common import ExperimentOutput, ShapeCheck
from repro.experiments.registry import register
from repro.link.schemes import SicScheme
from repro.phy.batch import WaveformBatchEngine
from repro.phy.codebook import ZigbeeCodebook
from repro.phy.modulation import (
    CHIPS_PER_SYMBOL,
    CHIP_RATE_HZ,
    SAMPLES_PER_CHIP,
    MskModulator,
)
from repro.phy.sync import sync_field_symbols
from repro.recovery import SicDecoder
from repro.sim.medium import PathLossModel, RadioMedium, Transmission
from repro.sim.medium import waveform_capture as render_capture
from repro.sim.metrics import trace_deliver
from repro.sim.testbed import collision_testbed
from repro.utils.rng import derive_rng

# The capture: codewords per frame body, how many of them the two
# frames overlap by, the far sender's range from the receiver (the
# near one sits at the testbed's ``COLLISION_NEAR_M``), and the seed of
# the bodies, the geometry and the noise.
N_BODY = 60
OVERLAP_SYMBOLS = 25
FAR_M = 9.0
SEED = 19


@register(
    "waveform_capture",
    title="Capture effect at waveform level (testbed geometry)",
    paper_expectation=(
        "the near sender's frame decodes through the collision "
        "(capture effect); the far sender's preamble is buried but "
        "its clean tail is recovered by postamble rollback; a "
        "codeword-aligned overlap defeats the hints (confidently "
        "wrong head) and is recovered whole only by SIC"
    ),
    order=17,
)
def run() -> ExperimentOutput:
    """Render the two-sender collision through the medium and decode.

    Runs the waveform pipeline on its own single-collision capture;
    the spec declares no simulation points.
    """
    codebook = ZigbeeCodebook()
    rng = derive_rng(SEED, "waveform-capture")
    modulator = MskModulator()
    engine = WaveformBatchEngine(codebook)
    testbed = collision_testbed(far_m=FAR_M)
    near, far = testbed.sender_ids
    (receiver,) = testbed.receiver_ids
    # Frozen geometry, no shadowing: the experiment is about the
    # capture asymmetry the distances alone create.
    medium = RadioMedium(
        testbed.positions_m,
        path_loss=PathLossModel(shadowing_sigma_db=0.0),
        seed=SEED,
    )

    preamble = sync_field_symbols("preamble")
    postamble = sync_field_symbols("postamble")
    body_near = rng.integers(0, 16, N_BODY)
    body_far = rng.integers(0, 16, N_BODY)
    stream_near = np.concatenate([preamble, body_near, postamble])
    stream_far = np.concatenate([preamble, body_far, postamble])

    # The far sender starts while the near frame's tail is still on
    # the air: its preamble lands under the (much stronger) near frame.
    # The extra half-symbol keeps the two chip grids (and the O-QPSK
    # rail parity) aligned but their codeword boundaries offset — a
    # symbol-aligned overlap would leave the near frame's chips
    # forming *valid* codewords inside the far frame's windows, hiding
    # the corruption from the Hamming hints entirely.
    sample_rate = CHIP_RATE_HZ * SAMPLES_PER_CHIP
    offset_symbols = stream_near.size - OVERLAP_SYMBOLS
    offset_chips = (
        offset_symbols * CHIPS_PER_SYMBOL + CHIPS_PER_SYMBOL // 2
    )
    far_start_s = offset_chips / CHIP_RATE_HZ
    transmissions = [
        Transmission(
            tx_id=0,
            sender=near,
            dst=receiver,
            start=0.0,
            n_symbols=stream_near.size,
        ),
        Transmission(
            tx_id=1,
            sender=far,
            dst=receiver,
            start=far_start_s,
            n_symbols=stream_far.size,
        ),
    ]
    waves = [
        modulator.modulate_symbols(stream_near, codebook),
        modulator.modulate_symbols(stream_far, codebook),
    ]
    capture = render_capture(
        medium,
        receiver,
        transmissions,
        waves,
        sample_rate,
        rng=derive_rng(SEED, "waveform-capture-noise"),
    )

    # Fused reception: the near frame syncs on its clean preamble; the
    # far frame's preamble collided, so it anchors on its postamble
    # and rolls back.  Both codeword runs decode in one engine call.
    pair = engine.receive_collision_pair(capture, N_BODY)
    hints_near, hints_far = pair.first.hints, pair.second.hints
    correct_near = pair.first.symbols == body_near
    correct_far = pair.second.symbols == body_far

    # The same collision with the chip grids codeword-aligned — the
    # hints' blind spot.  The near frame's chips now fill whole decode
    # windows of the far frame, forming *valid* codewords: the far
    # head decodes to wrong symbols at hint 0.
    aligned_chips = offset_symbols * CHIPS_PER_SYMBOL
    transmissions_aligned = [
        transmissions[0],
        Transmission(
            tx_id=1,
            sender=far,
            dst=receiver,
            start=aligned_chips / CHIP_RATE_HZ,
            n_symbols=stream_far.size,
        ),
    ]
    capture_aligned = render_capture(
        medium,
        receiver,
        transmissions_aligned,
        waves,
        sample_rate,
        rng=derive_rng(SEED, "waveform-capture-aligned-noise"),
    )
    pair_aligned = engine.receive_collision_pair(
        capture_aligned, N_BODY
    )
    hints_aligned = pair_aligned.second.hints
    correct_aligned = pair_aligned.second.symbols == body_far

    # SIC closes the hole: cancel the re-modulated near frame and
    # decode the far frame from the residual, on both captures.  The
    # waveform threshold 0.5 mirrors the chip-level detectability rule
    # (chip error rate p <-> correlation 1 - 2p at p = 0.25).
    scheme = SicScheme()
    decoder = SicDecoder(codebook, threshold=0.5)
    sic_far_passed = {}
    for label, sic_capture in (
        ("offset", capture),
        ("aligned", capture_aligned),
    ):
        sic_far_passed[label] = False
        for frame in decoder.decode_pair(
            sic_capture, N_BODY
        ).frames:
            wrong_far = int(np.sum(frame.reception.symbols != body_far))
            wrong_near = int(
                np.sum(frame.reception.symbols != body_near)
            )
            if wrong_far < wrong_near:
                delivery = trace_deliver(
                    scheme,
                    frame.reception.symbols == body_far,
                    frame.reception.hints,
                )
                sic_far_passed[label] = delivery.frame_passed

    xs = np.arange(N_BODY)
    rendered = render_series(
        xs,
        {
            "near frame Hamming distance": hints_near,
            "far frame Hamming distance": hints_far,
        },
        xlabel="time (codeword number)",
    )

    # The far frame's head: the overlap minus its (collided) sync field.
    dirty_far_len = max(OVERLAP_SYMBOLS - preamble.size, 1)
    clean_far = hints_far[dirty_far_len:]
    snr_gap_db = 10.0 * np.log10(
        medium.snr(near, receiver) / medium.snr(far, receiver)
    )
    checks = [
        ShapeCheck(
            name="near frame captures through the collision",
            passed=float(np.mean(correct_near)) >= 0.95,
            detail=f"{correct_near.sum()}/{N_BODY} codewords "
            f"correct at +{snr_gap_db:.1f} dB link advantage",
        ),
        ShapeCheck(
            name="far frame's preamble is buried by the near frame",
            passed=all(
                abs(d.sample_offset - offset_chips * SAMPLES_PER_CHIP)
                > SAMPLES_PER_CHIP
                for d in pair.preamble_detections
            ),
            detail=f"{len(pair.preamble_detections)} preamble "
            "detection(s), none near the far frame's offset",
        ),
        ShapeCheck(
            name="far frame's clean tail recovered via postamble rollback",
            passed=float(np.mean(clean_far)) <= 1.0
            and float(np.mean(correct_far[dirty_far_len:])) >= 0.95,
            detail=f"clean-tail mean hint {np.mean(clean_far):.2f}, "
            f"correct {np.mean(correct_far[dirty_far_len:]):.2%}",
        ),
        ShapeCheck(
            name="far frame's overlapped head shows high hints",
            passed=float(np.mean(hints_far[:dirty_far_len])) >= 4.0,
            detail=f"mean hint {np.mean(hints_far[:dirty_far_len]):.2f} "
            "in the overlap",
        ),
        ShapeCheck(
            name="aligned overlap hides the corruption from the hints",
            passed=bool((~correct_aligned[:dirty_far_len]).all())
            and float(np.mean(hints_aligned[:dirty_far_len])) <= 1.0,
            detail=f"{int((~correct_aligned[:dirty_far_len]).sum())}"
            f"/{dirty_far_len} head codewords wrong at mean hint "
            f"{np.mean(hints_aligned[:dirty_far_len]):.2f} — the η "
            "rule would deliver them",
        ),
        ShapeCheck(
            name="SIC recovers the far frame whole from both captures",
            passed=sic_far_passed["offset"]
            and sic_far_passed["aligned"],
            detail="SicScheme frame CRC passes on the cancelled "
            f"residual: offset={sic_far_passed['offset']}, "
            f"aligned={sic_far_passed['aligned']}",
        ),
    ]
    return ExperimentOutput(
        rendered=rendered,
        shape_checks=checks,
        series={
            "near_hints": hints_near,
            "near_correct": correct_near,
            "far_hints": hints_far,
            "far_correct": correct_far,
            "snr_gap_db": snr_gap_db,
            "aligned_far_hints": hints_aligned,
            "aligned_far_correct": correct_aligned,
            "sic_far_passed_offset": sic_far_passed["offset"],
            "sic_far_passed_aligned": sic_far_passed["aligned"],
        },
    )
