"""Cross-layer integration tests.

These exercise complete paths through the system: testbed traces into
PP-ARQ recovery, waveform PHY into link-layer frame parsing, and the
adaptive threshold learning from real channel statistics.
"""

import numpy as np

from repro.arq.protocol import PpArqSession
from repro.link.adaptive import AdaptiveThreshold
from repro.link.frame import (
    PprFrame,
    parse_header_bytes,
    parse_trailer_bytes,
    payload_slice,
)
from repro.link.schemes import PprScheme
from repro.phy.channelsim import add_awgn
from repro.phy.chipchannel import transmit_chipwords
from repro.phy.frontend import ReceiverFrontend
from repro.phy.modulation import MskModulator
from repro.phy.spreading import symbols_to_bytes
from repro.phy.symbols import SoftPacket
from repro.utils.rng import ensure_rng


class TestWaveformToLinkLayer:
    def test_frame_through_waveform_phy(self, codebook, rng):
        """Build a PPR frame, modulate it, push it through AWGN, and
        recover it via both sync paths."""
        scheme = PprScheme(eta=6)
        payload = bytes(rng.integers(0, 256, 60, dtype=np.uint8))
        frame = PprFrame.build(
            src=1, dst=2, seq=9, wire_payload=scheme.encode_payload(payload)
        )
        wave = MskModulator(sps=4).modulate_symbols(
            frame.on_air_symbols(), codebook
        )
        noisy = add_awgn(wave, 0.15, rng)
        frontend = ReceiverFrontend(codebook, sps=4)

        # Preamble path.
        det = frontend.detect(noisy, "preamble")[0]
        symbols, hints = frontend.decode_symbols_at(
            noisy, det.sample_offset, 10, frame.n_body_symbols, det.phase
        )
        region = payload_slice(symbols.size)
        _, header_ok = parse_header_bytes(
            symbols_to_bytes(symbols[: region.start])
        )
        _, trailer_ok = parse_trailer_bytes(
            symbols_to_bytes(symbols[region.stop :])
        )
        assert header_ok and trailer_ok
        wire_payload = symbols_to_bytes(symbols[region])
        assert wire_payload == scheme.encode_payload(payload)
        assert hints.mean() < 1.0

        # Postamble path: roll back from the detected postamble.
        post = frontend.detect(noisy, "postamble")[0]
        symbols2, _ = frontend.decode_symbols_at(
            noisy,
            post.sample_offset,
            -frame.n_body_symbols,
            frame.n_body_symbols,
            post.phase,
        )
        assert np.array_equal(symbols2, symbols)


class TestTracesToPpArq:
    def test_pparq_over_recorded_trace_statistics(
        self, codebook, small_sim_result
    ):
        """Drive PP-ARQ with a channel whose burst statistics come from
        the recorded testbed traces, closing the loop between the
        capacity experiments and the ARQ experiments."""
        damaged = [
            rec
            for rec in small_sim_result.records
            if rec.acquired(True) and not rec.payload_correct().all()
        ]
        assert damaged, "heavy-load run must contain damaged receptions"
        error_masks = [~rec.payload_correct() for rec in damaged[:20]]
        rng = ensure_rng(0)
        cursor = {"i": 0}

        def trace_channel(symbols):
            symbols = np.asarray(symbols, dtype=np.int64)
            if symbols.size == 0:
                return SoftPacket(
                    symbols=symbols, hints=np.zeros(0), truth=symbols
                )
            mask = error_masks[cursor["i"] % len(error_masks)]
            cursor["i"] += 1
            p = np.full(symbols.size, 0.005)
            scaled = np.interp(
                np.linspace(0, 1, symbols.size),
                np.linspace(0, 1, mask.size),
                mask.astype(float),
            )
            p[scaled > 0.5] = 0.4
            words = codebook.encode_words(symbols)
            received = transmit_chipwords(words, p, rng)
            decoded, dist = codebook.decode_hard(received)
            return SoftPacket(
                symbols=decoded,
                hints=dist.astype(float),
                truth=symbols,
            )

        session = PpArqSession(trace_channel, eta=6.0)
        payload = bytes(rng.integers(0, 256, 150, dtype=np.uint8))
        delivered = 0
        for seq in range(5):
            log = session.transfer(seq, payload)
            delivered += int(log.delivered)
            if log.delivered:
                assert session.receiver.reassembled_payload(seq) == payload
        assert delivered == 5


class TestPhyIndependence:
    """The conclusion's promise: 'a PP-ARQ link layer can use different
    SoftPHY implementations without change.'  PP-ARQ is driven here by
    soft-decision correlation hints instead of Hamming distances — the
    receiver code is untouched; only η comes from a calibration pass
    through the adaptive learner."""

    def test_pparq_over_soft_decision_hints(self, codebook):
        from repro.phy.decoder import SoftDecisionDecoder

        rng = ensure_rng(44)
        decoder = SoftDecisionDecoder(codebook)
        noise_sigma = 0.8

        def sdd_channel(symbols):
            symbols = np.asarray(symbols, dtype=np.int64)
            if symbols.size == 0:
                return SoftPacket(
                    symbols=symbols, hints=np.zeros(0), truth=symbols
                )
            clean = (
                codebook.encode(symbols).reshape(-1, 32) * 2.0 - 1.0
            )
            noisy = clean + rng.normal(0, noise_sigma, clean.shape)
            # A collision burst flips sign coherence over a range.
            burst = max(1, symbols.size // 4)
            start = int(rng.integers(0, max(1, symbols.size - burst)))
            noisy[start : start + burst] += rng.normal(
                0, 3.0, (burst, 32)
            )
            result = decoder.decode_samples(noisy)
            return SoftPacket(
                symbols=result.symbols,
                hints=result.hints,
                truth=symbols,
            )

        # Calibrate eta on this PHY's hint scale (SDD margins, not
        # Hamming distances) from verified observations.
        adapt = AdaptiveThreshold(max_hint=32)
        for _ in range(30):
            probe = rng.integers(0, 16, 200)
            soft = sdd_channel(probe)
            adapt.observe(soft.hints, soft.correct_mask())
        eta = float(adapt.best_threshold())

        session = PpArqSession(sdd_channel, eta=eta)
        payload = bytes(rng.integers(0, 256, 150, dtype=np.uint8))
        log = session.transfer(3, payload)
        assert log.delivered
        assert session.receiver.reassembled_payload(3) == payload
        # The recovery was genuinely partial, not full-packet resends.
        if log.retransmit_packet_bytes:
            assert min(log.retransmit_packet_bytes) < len(payload)


class TestAdaptiveFromChannel:
    def test_threshold_learned_from_real_hints(self, codebook):
        """Feed the adaptive learner genuine decoder output and check
        the learned threshold behaves like the paper's eta = 6."""
        rng = ensure_rng(11)
        adapt = AdaptiveThreshold(miss_cost=10.0)
        for _ in range(40):
            symbols = rng.integers(0, 16, 200)
            words = codebook.encode_words(symbols)
            p = np.full(200, 0.01)
            p[50:100] = 0.45  # collision burst
            received = transmit_chipwords(words, p, rng)
            decoded, dist = codebook.decode_hard(received)
            adapt.observe(dist, decoded == symbols)
        eta = adapt.best_threshold()
        assert 2 <= eta <= 10
        # A quarter of the traffic sits inside an equal-power collision
        # burst, where correct codewords legitimately carry large
        # distances — so the false-alarm rate is higher than the
        # paper's network-wide 0.005 but must stay small.
        assert adapt.false_alarm_rate(eta) < 0.10
        assert adapt.miss_rate(eta) < 0.10

    def test_learned_eta_comparable_to_paper_default(self, codebook):
        """Delivery under the learned threshold should be within a few
        percent of delivery under the paper's fixed eta = 6."""
        rng = ensure_rng(13)
        adapt = AdaptiveThreshold()
        records = []
        for _ in range(30):
            symbols = rng.integers(0, 16, 300)
            words = codebook.encode_words(symbols)
            p = np.full(300, 0.02)
            start = rng.integers(0, 200)
            p[start : start + 80] = 0.4
            received = transmit_chipwords(words, p, rng)
            decoded, dist = codebook.decode_hard(received)
            correct = decoded == symbols
            records.append((dist.astype(float), correct))
            adapt.observe(dist, correct)
        eta = adapt.best_threshold()

        def delivered(threshold):
            return sum(
                int(((h <= threshold) & c).sum()) for h, c in records
            )

        assert delivered(eta) >= 0.95 * delivered(6.0)
