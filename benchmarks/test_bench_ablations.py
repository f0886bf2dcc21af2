"""Ablation benchmarks for PPR's design choices.

Each ablation isolates one decision the paper makes and measures its
effect on the same traces the figure benchmarks use:

* the threshold η = 6 (paper §3.2 / §7.2),
* the 802.15.4 codebook's distance structure vs a random codebook,
* the chunking DP vs naive per-run feedback (§5.1),
* the conclusion's claim that PPR lets a PHY run at a BER one or two
  orders of magnitude higher.
"""

import numpy as np

from repro.arq.chunking import chunk_cost_naive, plan_chunks
from repro.arq.runlength import RunLengthPacket
from repro.phy.chipchannel import transmit_chipwords
from repro.phy.codebook import ZigbeeCodebook


def test_bench_ablation_eta_sweep(benchmark, shared_runs):
    """Net goodput vs η: the paper's η = 6 sits on the plateau.

    Net goodput counts delivered-correct bits minus a 10x penalty per
    delivered-incorrect bit (a miss corrupts data and costs recovery).
    Too-small η withholds good codewords; too-large η leaks misses.
    """
    result = shared_runs.get(load=13800.0, carrier_sense=False)
    records = [r for r in result.records if r.acquired(True)]

    def sweep():
        etas = np.arange(0, 17, 2)
        net = {}
        for eta in etas:
            delivered = 0
            leaked = 0
            for rec in records:
                good = rec.payload_hints() <= eta
                correct = rec.payload_correct()
                delivered += int((good & correct).sum())
                leaked += int((good & ~correct).sum())
            net[int(eta)] = delivered - 10 * leaked
        return net

    net = benchmark.pedantic(sweep, rounds=1, iterations=1)
    print("\nnet goodput (symbols) by eta:", net)
    best = max(net, key=net.get)
    # eta = 6 within 1% of the best candidate's net goodput.
    assert net[6] >= 0.99 * net[best], (
        f"paper's eta=6 far from optimum {best}"
    )
    # Extremes are worse than the plateau.
    assert net[0] < net[6]


def test_bench_ablation_codebook_distance(benchmark):
    """Codebook distance structure matters: degrade the 802.15.4
    codebook by moving two codewords to Hamming distance 4 of each
    other and watch the symbol error rate climb.

    (A *random* 16x32 codebook is nearly as good as the standard one —
    expected, since random spreading codes concentrate around distance
    16 — so the ablation builds a deliberately weak codebook.)
    """
    from repro.phy.codebook import Codebook

    rng = np.random.default_rng(1)
    zigbee = ZigbeeCodebook()
    chips = zigbee.encode(np.arange(16)).reshape(16, 32)
    # Make codeword 1 a distance-4 neighbour of codeword 0.
    chips[1] = chips[0].copy()
    chips[1, :4] ^= 1
    weak = Codebook(chips)

    def run():
        out = {}
        for name, cb in (("zigbee", zigbee), ("weakened_d4", weak)):
            symbols = rng.integers(0, 16, 5000)
            received = transmit_chipwords(
                cb.encode_words(symbols), 0.10, rng
            )
            decoded, hints = cb.decode_hard(received)
            correct = decoded == symbols
            out[name] = {
                "ser": float((~correct).mean()),
                "min_distance": cb.min_distance(),
            }
        return out

    stats = benchmark.pedantic(run, rounds=1, iterations=1)
    print("\ncodebook ablation:", stats)
    assert stats["zigbee"]["min_distance"] > stats["weakened_d4"][
        "min_distance"
    ]
    assert stats["zigbee"]["ser"] < stats["weakened_d4"]["ser"]


def test_bench_ablation_dp_vs_naive_feedback(benchmark, shared_runs):
    """The §5.1 DP vs naive per-bad-run feedback on real run-length
    patterns from the heavy-load traces."""
    result = shared_runs.get(load=13800.0, carrier_sense=False)
    patterns = []
    for rec in result.records:
        if not rec.acquired(True):
            continue
        runs = RunLengthPacket.from_hints(rec.payload_hints(), eta=6.0)
        if 0 < runs.n_bad_runs <= 60:
            patterns.append(runs)
    assert patterns, "need damaged receptions for this ablation"

    def run():
        savings = []
        for runs in patterns:
            dp = plan_chunks(runs, checksum_bits=8).cost_bits
            naive = chunk_cost_naive(runs, checksum_bits=8)
            savings.append(1.0 - dp / naive if naive else 0.0)
        return {
            "n_packets": len(savings),
            "mean_saving": float(np.mean(savings)),
            "max_saving": float(np.max(savings)),
        }

    stats = benchmark.pedantic(run, rounds=1, iterations=1)
    print("\nDP feedback savings vs naive:", stats)
    assert stats["mean_saving"] >= 0.0  # DP never loses
    assert stats["max_saving"] > 0.0  # and sometimes wins outright


def test_bench_ablation_higher_ber_operating_point(benchmark):
    """The conclusion's claim: with PPR, a PHY can run at a BER one or
    two orders of magnitude higher.  Sweep channel quality and find the
    worst chip error rate at which each scheme still achieves 90% of
    its clean-channel goodput — PPR's operating point tolerates a far
    higher error rate than whole-packet CRC."""
    codebook = ZigbeeCodebook()
    rng = np.random.default_rng(3)
    n_symbols = 3000  # ~1500-byte packets

    def sweep_point(p_chip, eta=6.0, n_packets=8):
        """Goodput fractions and the *data* symbol error rate at one
        channel quality."""
        pkt_bits = 0
        ppr_bits = 0
        symbol_errors = 0
        total = 0
        for _ in range(n_packets):
            symbols = rng.integers(0, 16, n_symbols)
            received = transmit_chipwords(
                codebook.encode_words(symbols),
                p_chip,
                rng,
            )
            decoded, hints = codebook.decode_hard(received)
            correct = decoded == symbols
            total += n_symbols
            symbol_errors += int((~correct).sum())
            if correct.all():
                pkt_bits += n_symbols
            good = hints <= eta
            ppr_bits += int((good & correct).sum())
        return {
            "pkt": pkt_bits / total,
            "ppr": ppr_bits / total,
            "ser": symbol_errors / total,
        }

    def run():
        ps = [1e-4, 1e-3, 3e-3, 1e-2, 3e-2, 0.1, 0.15, 0.2]
        table = {p: sweep_point(p) for p in ps}
        floor = 1.0 / (8 * n_symbols * 8)  # one error over the sweep

        def limit_ser(key):
            ok = [p for p in ps if table[p][key] >= 0.9]
            return max(table[max(ok)]["ser"], floor) if ok else floor

        return {
            "table": table,
            "pkt_limit_ser": limit_ser("pkt"),
            "ppr_limit_ser": limit_ser("ppr"),
        }

    stats = benchmark.pedantic(run, rounds=1, iterations=1)
    print("\ndata symbol error rate tolerated at 90% goodput:")
    print(f"  packet CRC: {stats['pkt_limit_ser']:.2e}")
    print(f"  PPR       : {stats['ppr_limit_ser']:.2e}")
    # "a BER that is one or even two orders-of-magnitude higher"
    # (paper conclusion) — measured on the data error rate each scheme
    # can absorb while keeping 90% goodput.
    assert stats["ppr_limit_ser"] >= 10 * stats["pkt_limit_ser"]
