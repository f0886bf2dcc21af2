"""Recovering both packets from a collision (paper Fig. 5 / Fig. 13).

Two senders' MSK waveforms overlap at one receiver.  The first
packet's preamble survives; the second packet's preamble is buried
under the first packet, but its *postamble* is clean — so the receiver
rolls back through its sample buffer and recovers it anyway.

Everything here runs at waveform level: half-sine O-QPSK modulation,
complex-baseband superposition, AWGN, correlation synchronisation and
matched-filter demodulation — fused through the batched waveform
reception engine (one sync pass and one matched-filter + decode call
for both packets).

Run:  python examples/collision_recovery.py
"""

import numpy as np

from repro import MskModulator, WaveformBatchEngine, ZigbeeCodebook
from repro.phy.channelsim import TransmissionInstance, awgn_collision_channel
from repro.phy.modulation import SAMPLES_PER_CHIP
from repro.phy.sync import sync_field_symbols


def main() -> None:
    codebook = ZigbeeCodebook()
    rng = np.random.default_rng(42)
    modulator = MskModulator()
    n_body = 80
    overlap = 30  # symbols of overlap between the two packets

    preamble = sync_field_symbols("preamble")
    postamble = sync_field_symbols("postamble")
    body1 = rng.integers(0, 16, n_body)
    body2 = rng.integers(0, 16, n_body)
    frame1 = np.concatenate([preamble, body1, postamble])
    frame2 = np.concatenate([preamble, body2, postamble])

    # Packet 2 starts while packet 1's tail is still in the air.
    chips_per_symbol = codebook.chips_per_symbol
    offset = (frame1.size - overlap) * chips_per_symbol * SAMPLES_PER_CHIP
    capture = awgn_collision_channel(
        [
            TransmissionInstance(samples=modulator.modulate_symbols(
                frame1, codebook), offset=0),
            TransmissionInstance(samples=modulator.modulate_symbols(
                frame2, codebook), offset=offset),
        ],
        noise_power=0.05,
        rng=rng,
    )
    print(f"capture window: {capture.size} complex samples, "
          f"{overlap} symbols of overlap")

    engine = WaveformBatchEngine(codebook)

    # --- packet 1 by preamble, packet 2 by postamble rollback, both --------
    # --- through one fused sync + matched-filter + decode pass       --------
    pair = engine.receive_collision_pair(capture, n_body)
    print(f"\npreamble detections : "
          f"{[(d.sample_offset, round(d.score, 2)) for d in pair.preamble_detections]}")
    print(f"postamble detections: "
          f"{[(d.sample_offset, round(d.score, 2)) for d in pair.postamble_detections]}")

    hints1, hints2 = pair.first.hints, pair.second.hints
    ok1 = pair.first.symbols == body1
    print(f"\npacket 1 (preamble path) : {ok1.sum()}/{n_body} correct")
    print(f"  clean-region mean hint : "
          f"{hints1[: n_body - overlap].mean():.2f}")
    print(f"  overlap-region mean hint: "
          f"{hints1[n_body - overlap:].mean():.2f}")
    ok2 = pair.second.symbols == body2
    print(f"packet 2 (postamble rollback) : {ok2.sum()}/{n_body} correct")

    # --- what PPR delivers --------------------------------------------------
    eta = 6
    for name, hints, ok in (
        ("packet 1", hints1, ok1),
        ("packet 2", hints2, ok2),
    ):
        good = hints <= eta
        delivered = (good & ok).sum()
        misses = (good & ~ok).sum()
        print(
            f"{name}: PPR delivers {delivered}/{n_body} symbols "
            f"(misses: {misses}); status-quo packet CRC delivers "
            f"{'all' if ok.all() else 'none'}"
        )


if __name__ == "__main__":
    main()
