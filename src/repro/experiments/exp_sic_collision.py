"""SIC collision recovery across relative SNR and overlap offset.

Beyond-the-paper experiment on the :mod:`repro.recovery` pipeline: two
senders at unequal ranges collide on the air, and the receiver tries
three strategies on the very same rendered capture —

* **capture-only**: the plain waveform receiver (preamble lock plus
  postamble rollback, :meth:`receive_collision_pair`), which can hand
  up at most the frames the capture effect leaves intact;
* **PPR chunks**: partial credit for the capture-only decodes — every
  codeword whose SoftPHY hint clears η is delivered (paper §5);
* **SIC**: decode the stronger frame, re-modulate it at the estimated
  complex gain, subtract, decode the weaker frame from the residual
  (:class:`repro.recovery.SicDecoder`).

Sweeping the far sender's range (relative SNR) against the overlap
offset maps the *both-frames-recovered region*: SIC turns a collision
into two deliveries wherever capture decodes the strong frame and the
weak frame clears the noise floor.  The region is bounded on both
sides — near-equal powers deny capture a clean strong decode, and a
deeply faded weak frame drowns before cancellation can help — while
the capture-only baseline never exceeds one frame anywhere.
"""

from __future__ import annotations

import numpy as np

from repro.analysis.textplot import format_table
from repro.arq.runlength import PAPER_ETA
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
from repro.phy.spreading import bytes_to_symbols
from repro.phy.sync import SYNC_ERROR_THRESHOLD, sync_field_symbols
from repro.recovery import SicDecoder
from repro.sim.medium import PathLossModel, RadioMedium, Transmission
from repro.sim.medium import waveform_capture as render_capture
from repro.sim.testbed import collision_testbed
from repro.utils.rng import derive_rng, keyed_rng

# Bytes per frame payload and the seed of the payloads, geometry and
# noise.  The near sender sits at the testbed's ``COLLISION_NEAR_M``;
# PPR chunk credit counts codewords at the paper's ``PAPER_ETA``.
PAYLOAD_BYTES = 24
SEED = 23

#: far-sender ranges spanning near-equal power (4.5 m, +1.9 dB gap)
#: through the comfortable middle to the noise floor (36 m, -4 dB SNR)
FAR_DISTANCES_M = (4.5, 6.0, 9.0, 15.0, 24.0, 30.0, 36.0)

#: overlap depths (symbols of the near frame's tail under the far
#: frame's head) crossed with a half-symbol chip slip, so the sweep
#: hits both codeword-aligned and misaligned collisions
OVERLAP_SYMBOLS = (12, 24, 36)
EXTRA_CHIPS = (0, CHIPS_PER_SYMBOL // 2)


def _delivered(symbols, hints, body, eta):
    """(whole frame correct, codewords delivered under the η rule)."""
    correct = symbols == body
    good = int(((hints <= eta) & correct).sum())
    return bool(correct.all()), good


def _closest_body(symbols, bodies):
    """Index of the transmitted body this decode is nearest to."""
    distances = [int(np.sum(symbols != body)) for body in bodies]
    return int(np.argmin(distances))


def _judge(candidates, bodies, eta):
    """Score a strategy's decode attempts against the transmissions.

    Each attempt is matched to the transmitted body it is nearest to;
    a body counts as recovered *whole* when any attempt reproduces it
    exactly, and its delivered codewords are the best any attempt
    managed under the η rule.  Returns ``(whole frames, codewords)``.
    """
    whole = [False] * len(bodies)
    good = [0] * len(bodies)
    for symbols, hints in candidates:
        which = _closest_body(symbols, bodies)
        ok, delivered = _delivered(
            symbols, hints, bodies[which], eta
        )
        whole[which] = whole[which] or ok
        good[which] = max(good[which], delivered)
    return sum(whole), sum(good)


@register(
    "sic_collision",
    title="SIC both-frames-recovered region (relative SNR x overlap)",
    paper_expectation=(
        "successive interference cancellation recovers BOTH frames of "
        "a collision across a wide band of relative SNRs, bounded by "
        "near-equal powers (no capture) and the noise floor (weak "
        "frame inaudible); plain capture never delivers more than one"
    ),
    order=18,
)
def run() -> ExperimentOutput:
    """Map the recovery region over the (range, offset) grid.

    Every capture is rendered once and judged by all three
    strategies; the spec declares no simulation points.
    """
    codebook = ZigbeeCodebook()
    modulator = MskModulator()
    scheme = SicScheme(eta=PAPER_ETA)
    # The chip-level simulation calls a sync field detectable when its
    # chip error rate is at most SYNC_ERROR_THRESHOLD; in the +-1
    # correlation domain an error rate p maps to 1 - 2p, so the
    # waveform passes use that threshold to agree on "detectable".
    threshold = 1 - 2 * SYNC_ERROR_THRESHOLD
    engine = WaveformBatchEngine(codebook, threshold=threshold)
    decoder = SicDecoder(codebook, threshold=threshold)

    payload_rng = derive_rng(SEED, "sic-collision-payload")
    payloads = [
        payload_rng.integers(0, 256, PAYLOAD_BYTES, dtype=np.uint8)
        .tobytes()
        for _ in range(2)
    ]
    bodies = [
        bytes_to_symbols(scheme.encode_payload(p)) for p in payloads
    ]
    preamble = sync_field_symbols("preamble")
    postamble = sync_field_symbols("postamble")
    streams = [
        np.concatenate([preamble, body, postamble]) for body in bodies
    ]
    waves = [
        modulator.modulate_symbols(stream, codebook)
        for stream in streams
    ]
    n_body = bodies[0].size
    n_stream = streams[0].size
    offsets_chips = [
        (n_stream - overlap) * CHIPS_PER_SYMBOL + extra
        for overlap in OVERLAP_SYMBOLS
        for extra in EXTRA_CHIPS
    ]

    base_frames = np.zeros(
        (len(FAR_DISTANCES_M), len(offsets_chips)), dtype=np.int64
    )
    sic_frames = np.zeros_like(base_frames)
    base_good = np.zeros_like(base_frames)
    sic_good = np.zeros_like(base_frames)
    weak_snr_db = np.zeros(len(FAR_DISTANCES_M))

    for i_dist, far_m in enumerate(FAR_DISTANCES_M):
        testbed = collision_testbed(far_m=far_m)
        near, far = testbed.sender_ids
        (receiver,) = testbed.receiver_ids
        # Frozen geometry, no shadowing: the sweep *is* the SNR axis.
        medium = RadioMedium(
            testbed.positions_m,
            path_loss=PathLossModel(shadowing_sigma_db=0.0),
            seed=SEED,
        )
        weak_snr_db[i_dist] = 10.0 * np.log10(
            medium.snr(far, receiver)
        )
        for i_off, offset_chips in enumerate(offsets_chips):
            transmissions = [
                Transmission(
                    tx_id=0,
                    sender=near,
                    dst=receiver,
                    start=0.0,
                    n_symbols=streams[0].size,
                ),
                Transmission(
                    tx_id=1,
                    sender=far,
                    dst=receiver,
                    start=offset_chips / CHIP_RATE_HZ,
                    n_symbols=streams[1].size,
                ),
            ]
            capture = render_capture(
                medium,
                receiver,
                transmissions,
                waves,
                CHIP_RATE_HZ * SAMPLES_PER_CHIP,
                rng=keyed_rng(
                    SEED, "sic-collision-noise", i_dist, i_off
                ),
            )

            # Capture-only: the plain receiver's best effort (both
            # sync anchors when it finds them, else the one it has).
            pair = engine.receive_collision_pair(capture, n_body)
            plain = [
                (r.symbols, r.hints)
                for r in (pair.first, pair.second)
                if r.acquired
            ]
            base_frames[i_dist, i_off], base_good[i_dist, i_off] = (
                _judge(plain, bodies, PAPER_ETA)
            )

            # The SIC pipeline degrades gracefully: when cancellation
            # yields no credible weak frame, the plain decodes (and
            # their PPR chunk credit) are still on the table.  Its
            # strong pass is the plain receiver's, received once.
            result = decoder.decode_pair(capture, n_body, strong=pair.frame)
            cancelled = plain + [
                (f.reception.symbols, f.reception.hints)
                for f in result.frames
            ]
            sic_frames[i_dist, i_off], sic_good[i_dist, i_off] = (
                _judge(cancelled, bodies, PAPER_ETA)
            )

    headers = ["far sender", "weak SNR"] + [
        f"-{overlap}sym{'+' if extra else ''}"
        for overlap in OVERLAP_SYMBOLS
        for extra in EXTRA_CHIPS
    ]
    rows = [
        [f"{far_m:.1f} m", f"{weak_snr_db[i]:+.1f} dB"]
        + [
            f"{base_frames[i, j]}->{sic_frames[i, j]}"
            for j in range(len(offsets_chips))
        ]
        for i, far_m in enumerate(FAR_DISTANCES_M)
    ]
    rendered = format_table(
        headers,
        rows,
        title=(
            "frames recovered whole, capture-only -> SIC (columns: "
            "overlap depth in symbols; '+' marks a half-symbol slip)"
        ),
    )

    total_symbols = 2 * n_body * base_frames.size
    both = sic_frames == 2
    checks = [
        ShapeCheck(
            name="SIC both-frames-recovered region is non-empty",
            passed=bool(both.any()),
            detail=f"{int(both.sum())}/{base_frames.size} grid points "
            "deliver both frames whole under SIC",
        ),
        ShapeCheck(
            name="capture-only never delivers more than one frame",
            passed=bool((base_frames <= 1).all()),
            detail=f"max {int(base_frames.max())} whole frame(s) "
            "without cancellation",
        ),
        ShapeCheck(
            name="the region is bounded by the noise floor",
            passed=bool((~both[weak_snr_db < 0.0, :]).all())
            and bool(both[weak_snr_db > 10.0, :].any()),
            detail="no both-frame recovery below 0 dB weak-frame SNR",
        ),
        ShapeCheck(
            name="SIC strictly beats PPR-chunk partial delivery",
            passed=int(sic_good.sum()) > int(base_good.sum()),
            detail=f"{sic_good.sum()}/{total_symbols} vs "
            f"{base_good.sum()}/{total_symbols} codewords delivered",
        ),
    ]
    return ExperimentOutput(
        rendered=rendered,
        shape_checks=checks,
        series={
            "far_distances_m": np.asarray(FAR_DISTANCES_M),
            "weak_snr_db": weak_snr_db,
            "offsets_chips": np.asarray(offsets_chips),
            "base_frames": base_frames,
            "sic_frames": sic_frames,
            "base_good_symbols": base_good,
            "sic_good_symbols": sic_good,
        },
    )
