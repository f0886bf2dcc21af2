"""Multi-receiver diversity on SoftPHY hints (paper §8.4).

The paper suggests PPR's hints give multi-radio diversity (MRD) a
PHY-independent combining rule: several access points hear the same
transmission and a combiner keeps, per codeword, the copy with the
most confident hint.  This example builds the scenario twice:

1. a controlled two-receiver case with complementary collision bursts,
   where combining recovers essentially the whole packet; and
2. the simulated 27-node testbed, where the four sinks hear each
   transmission with independent fading and the combiner's gain over a
   randomly-assigned receiver is measured across the whole run.

Run:  python examples/multi_receiver_diversity.py
"""

from collections import defaultdict

import numpy as np

from repro import NetworkSimulation, SimulationConfig, ZigbeeCodebook
from repro.link.diversity import combine_soft_packets, diversity_gain
from repro.phy.chipchannel import transmit_chipwords
from repro.phy.symbols import SoftPacket


def controlled_case() -> None:
    codebook = ZigbeeCodebook()
    rng = np.random.default_rng(5)
    truth = rng.integers(0, 16, 500)
    words = codebook.encode_words(truth)

    # Receiver A is hit over the head of the packet, receiver B over
    # the tail — e.g. different hidden terminals near each one.
    p_a = np.full(500, 0.003)
    p_a[:200] = 0.45
    p_b = np.full(500, 0.003)
    p_b[300:] = 0.45

    packets = []
    for p in (p_a, p_b):
        received = transmit_chipwords(words, p, rng)
        decoded, dist = codebook.decode_hard(received)
        packets.append(
            SoftPacket(
                symbols=decoded, hints=dist.astype(float), truth=truth
            )
        )

    gains = diversity_gain(packets, eta=6.0)
    result = combine_soft_packets(packets)
    print("controlled complementary-burst case:")
    print(f"  receiver A delivers : "
          f"{(packets[0].good_mask(6) & packets[0].correct_mask()).mean():.1%}")
    print(f"  receiver B delivers : "
          f"{(packets[1].good_mask(6) & packets[1].correct_mask()).mean():.1%}")
    print(f"  combined delivers   : {gains['combined']:.1%} "
          f"(misses {gains['combined_miss_fraction']:.2%})")
    print(f"  symbols taken from A: {result.source_share(0):.1%}, "
          f"from B: {result.source_share(1):.1%}\n")


def testbed_case() -> None:
    config = SimulationConfig(
        load_bits_per_s_per_node=13800.0,
        payload_bytes=600,
        duration_s=12.0,
        carrier_sense=False,
        seed=21,
    )
    print("simulating the 27-node testbed at heavy load ...")
    result = NetworkSimulation(config).run()

    by_tx = defaultdict(list)
    for rec in result.records:
        if rec.acquired(True):
            by_tx[rec.tx.tx_id].append(rec)
    groups = [recs for recs in by_tx.values() if len(recs) >= 2]

    vs_mean, vs_best = [], []
    for recs in groups:
        packets = [
            SoftPacket(
                symbols=r.body_symbols.astype(np.int64),
                hints=r.body_hints.astype(np.float64),
                truth=r.body_truth,
            )
            for r in recs
        ]
        g = diversity_gain(packets, eta=6.0)
        vs_mean.append(g["combined"] - g["mean_single"])
        vs_best.append(g["combined"] - g["best_single"])

    print(f"{len(groups)} transmissions heard by 2+ receivers")
    print(f"  combining vs a randomly-assigned receiver : "
          f"+{np.mean(vs_mean):.2%} of payload on average")
    print(f"  combining vs the best single receiver     : "
          f"+{np.mean(vs_best):.2%} (never negative: "
          f"{min(vs_best) >= 0})")
    print(
        "\nAs §8.4 anticipates, hint combining gets the benefit of the "
        "best receiver\nwithout knowing in advance which one that is."
    )


def main() -> None:
    controlled_case()
    testbed_case()


if __name__ == "__main__":
    main()
