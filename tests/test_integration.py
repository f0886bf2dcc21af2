"""Cross-layer integration tests.

These exercise complete paths through the system: testbed traces into
PP-ARQ recovery, waveform PHY into link-layer frame parsing, and PP-ARQ
over a different SoftPHY hint source.
"""

import numpy as np

from repro.arq.protocol import PpArqSession
from repro.link.frame import (
    PprFrame,
    body_symbol_count,
    parse_header_bytes,
    parse_trailer_bytes,
    payload_slice,
)
from repro.link.schemes import PprScheme
from repro.phy.batch import WaveformBatchEngine
from repro.phy.channelsim import add_awgn
from repro.phy.chipchannel import transmit_chipwords
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
        wave = MskModulator().modulate_symbols(
            frame.on_air_symbols(), codebook
        )
        noisy = add_awgn(wave, 0.15, rng)
        engine = WaveformBatchEngine(codebook)
        n_body = body_symbol_count(len(frame.wire_payload))

        # Preamble path.
        det = engine.detect(noisy, "preamble")[0]
        [(symbols, hints)] = engine.decode(noisy, [det], n_body)
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
        post = engine.detect(noisy, "postamble")[0]
        [(symbols2, _)] = engine.decode(noisy, [post], n_body)
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

        session = PpArqSession(trace_channel)
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
    soft-decision correlation hints (paper §3.1, Eq. 1) instead of
    Hamming distances: the receiver code is untouched, only η is chosen
    for the new hint scale."""

    def test_pparq_over_soft_decision_hints(self, codebook):
        rng = ensure_rng(44)
        noise_sigma = 0.8
        chips = codebook.chips_per_symbol

        def bipolar(symbols):
            return codebook.encode(symbols).reshape(-1, chips) * 2.0 - 1.0

        signs = bipolar(np.arange(codebook.n_symbols))
        # The margin between the two best correlations lies in
        # [0, 2B] for ±1 samples; (2B - margin) / 8 maps it to a
        # lower-is-better hint in [0, B/4].  The receiver's η = 6
        # labels a symbol good when its margin is at least 16.

        def sdd_channel(symbols):
            symbols = np.asarray(symbols, dtype=np.int64)
            if symbols.size == 0:
                return SoftPacket(
                    symbols=symbols, hints=np.zeros(0), truth=symbols
                )
            noisy = bipolar(symbols) + rng.normal(
                0, noise_sigma, (symbols.size, chips)
            )
            # A collision burst flips sign coherence over a range.
            burst = max(1, symbols.size // 4)
            start = int(rng.integers(0, max(1, symbols.size - burst)))
            noisy[start : start + burst] += rng.normal(
                0, 3.0, (burst, chips)
            )
            corr = noisy @ signs.T
            top2 = np.sort(corr, axis=1)[:, -2:]
            margin = top2[:, 1] - top2[:, 0]
            return SoftPacket(
                symbols=corr.argmax(axis=1),
                hints=(2.0 * chips - margin) / 8.0,
                truth=symbols,
            )

        session = PpArqSession(sdd_channel)
        payload = bytes(rng.integers(0, 256, 150, dtype=np.uint8))
        log = session.transfer(3, payload)
        assert log.delivered
        assert session.receiver.reassembled_payload(3) == payload
        # The recovery was genuinely partial, not full-packet resends.
        if log.retransmit_packet_bytes:
            assert min(log.retransmit_packet_bytes) < len(payload)
