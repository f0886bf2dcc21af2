"""Successive interference cancellation on a collided capture.

Two packets collide; capture effect lets the receiver decode the
stronger one straight through the interference.  SIC then treats that
decode as side information: re-modulate the stronger packet's chips,
estimate its complex channel gain against the capture, subtract the
reconstruction, and decode the weaker packet from the residual —
where it now stands alone.  Whatever the residual pass cannot clean
falls back to PPR chunk recovery.

The collision here is the hints' worst case: the overlap is exactly
codeword-aligned, so the strong packet's chips form *valid* codewords
inside the weak packet's decode windows — the corrupted head looks
perfectly confident (hint 0) and postamble rollback cannot flag it.
Only cancellation actually removes the interference.

Run:  python examples/sic_recovery.py
"""

import numpy as np

from repro import SicDecoder, WaveformBatchEngine, ZigbeeCodebook
from repro.phy.modulation import SAMPLES_PER_CHIP, MskModulator
from repro.phy.channelsim import TransmissionInstance, awgn_collision_channel
from repro.phy.sync import sync_field_symbols


def main() -> None:
    codebook = ZigbeeCodebook()
    rng = np.random.default_rng(7)
    modulator = MskModulator()
    n_body = 60
    overlap = 24  # symbols of codeword-aligned overlap

    preamble = sync_field_symbols("preamble")
    postamble = sync_field_symbols("postamble")
    body_strong = rng.integers(0, 16, n_body)
    body_weak = rng.integers(0, 16, n_body)
    frame_strong = np.concatenate([preamble, body_strong, postamble])
    frame_weak = np.concatenate([preamble, body_weak, postamble])

    # The weak packet starts while the strong one's tail is on the air,
    # 12 dB down and with the chip grids codeword-aligned.
    chips_per_symbol = codebook.chips_per_symbol
    offset = (frame_strong.size - overlap) * chips_per_symbol * SAMPLES_PER_CHIP
    weak_gain = 0.25
    capture = awgn_collision_channel(
        [
            TransmissionInstance(
                samples=modulator.modulate_symbols(frame_strong, codebook),
                offset=0,
            ),
            TransmissionInstance(
                samples=modulator.modulate_symbols(frame_weak, codebook),
                offset=offset,
                gain=weak_gain,
            ),
        ],
        noise_power=0.002,
        rng=rng,
    )
    print(f"capture window: {capture.size} complex samples, "
          f"{overlap} symbols of aligned overlap, weak packet at "
          f"{20 * np.log10(weak_gain):.0f} dB")

    # --- the plain receiver: capture effect plus postamble rollback --------
    engine = WaveformBatchEngine(codebook, threshold=0.5)
    pair = engine.receive_collision_pair(capture, n_body)
    ok_strong = pair.first.symbols == body_strong
    ok_weak = pair.second.symbols == body_weak
    head = overlap - preamble.size
    head_hints = pair.second.hints[:head]
    print("\nplain receiver:")
    print(f"  strong packet : {ok_strong.sum()}/{n_body} correct")
    print(f"  weak packet   : {ok_weak.sum()}/{n_body} correct")
    print(f"  weak head     : {int((~ok_weak[:head]).sum())}/{head} wrong "
          f"at mean hint {head_hints.mean():.2f} — confidently wrong; "
          f"the SoftPHY threshold rule would deliver them")

    # --- SIC: decode strong, re-modulate, subtract, decode the rest --------
    decoder = SicDecoder(codebook, threshold=0.5)
    result = decoder.decode_pair(capture, n_body)
    print(f"\nSIC pipeline (cancelled={result.cancelled}):")
    assert result.strong is not None and result.weak is not None
    est = result.strong.scale
    print(f"  strong packet : "
          f"{(result.strong.reception.symbols == body_strong).sum()}"
          f"/{n_body} correct, estimated gain {abs(est):.3f}")
    est = result.weak.scale
    print(f"  weak packet   : "
          f"{(result.weak.reception.symbols == body_weak).sum()}"
          f"/{n_body} correct from the residual, estimated gain "
          f"{abs(est):.3f} (true {weak_gain})")
    for label, frame in (("strong", result.strong), ("weak", result.weak)):
        if frame.clean:
            print(f"  {label} packet recovered whole — nothing to retransmit")
        else:
            plan = frame.fallback
            print(f"  {label} packet: {plan.n_bad_symbols} symbols still "
                  f"bad, PPR chunk plan costs {plan.cost_bits:.0f} "
                  f"feedback bits")


if __name__ == "__main__":
    main()
