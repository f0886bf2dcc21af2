"""Quickstart: SoftPHY hints and partial packet recovery in 60 lines.

Walks the core loop of the paper: spread data through the 802.15.4
codebook, corrupt part of it the way a collision would, decode with
Hamming-distance hints, apply the threshold rule, and let PP-ARQ
retransmit only the damaged ranges.

Run:  python examples/quickstart.py
"""

import numpy as np

from repro import PpArqSession, ZigbeeCodebook
from repro.phy.chipchannel import transmit_chipwords
from repro.phy.symbols import SoftPacket


def main() -> None:
    codebook = ZigbeeCodebook()
    rng = np.random.default_rng(7)

    # --- 1. SoftPHY hints ------------------------------------------------
    symbols = rng.integers(0, 16, 100)
    words = codebook.encode_words(symbols)

    # A collision corrupts symbols 40..60 (chip error rate ~0.4);
    # the rest of the packet sees a clean channel.
    p = np.full(100, 0.005)
    p[40:60] = 0.4
    received = transmit_chipwords(words, p, rng)
    decoded, hints = codebook.decode_hard(received)

    correct = decoded == symbols
    print(f"decoded correctly: {correct.sum()}/100 symbols")
    print(f"mean hint on clean symbols   : {hints[correct].mean():.2f}")
    print(f"mean hint on corrupt symbols : {hints[~correct].mean():.2f}")

    # --- 2. the threshold rule (paper §3.2, eta = 6) -----------------------
    eta = 6
    good = hints <= eta
    print(f"\nthreshold rule at eta={eta}:")
    print(f"  labelled good : {good.sum()} (of which correct: "
          f"{(good & correct).sum()})")
    print(f"  labelled bad  : {(~good).sum()} (of which incorrect: "
          f"{(~good & ~correct).sum()})")

    # --- 3. PP-ARQ: retransmit only the damaged ranges --------------------
    def collision_channel(tx_symbols: np.ndarray) -> SoftPacket:
        if tx_symbols.size == 0:
            return SoftPacket(
                symbols=tx_symbols, hints=np.zeros(0), truth=tx_symbols
            )
        p = np.full(tx_symbols.size, 0.005)
        burst = max(1, tx_symbols.size // 5)
        start = rng.integers(0, tx_symbols.size - burst + 1)
        p[start : start + burst] = 0.4
        rx = transmit_chipwords(
            codebook.encode_words(tx_symbols), p, rng
        )
        out, dist = codebook.decode_hard(rx)
        return SoftPacket(
            symbols=out, hints=dist.astype(float), truth=tx_symbols
        )

    session = PpArqSession(collision_channel)
    payload = bytes(rng.integers(0, 256, 250, dtype=np.uint8))
    log = session.transfer(seq=1, payload=payload)
    recovered = session.receiver.reassembled_payload(1)

    print(f"\nPP-ARQ transfer of a {len(payload)}-byte packet:")
    print(f"  delivered            : {log.delivered}")
    print(f"  payload intact       : {recovered == payload}")
    print(f"  rounds               : {log.rounds}")
    print(f"  retransmission sizes : {log.retransmit_packet_bytes} bytes "
          f"(vs {len(payload)} to resend everything)")
    print(f"  feedback sizes       : {log.feedback_bits} bits")


if __name__ == "__main__":
    main()
