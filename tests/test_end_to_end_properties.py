"""End-to-end property tests on the protocol and waveform pipelines.

These pin down system-level guarantees rather than module behaviours:
PP-ARQ converges for *any* error pattern, and the waveform receiver
survives sample-timing misalignment via non-data-aided recovery.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.arq.protocol import PpArqSession
from repro.phy.channelsim import add_awgn
from repro.phy.modulation import MskModulator
from repro.phy.symbols import SoftPacket
from repro.phy.timing import estimate_chip_phase
from repro.utils.bitops import pack_bits_to_uint32
from repro.utils.rng import ensure_rng


class TestPpArqConvergenceProperty:
    """For any one-shot corruption pattern with honest hints, PP-ARQ
    recovers the packet in at most two recovery rounds: one to fetch
    the bad ranges, none-or-one more for verification edge cases."""

    @given(
        st.integers(0, 2**32 - 1),
        st.integers(20, 120),
    )
    @settings(max_examples=25, deadline=None)
    def test_one_shot_corruption_recovers_fast(self, seed, n_bytes):
        rng = ensure_rng(seed)
        payload = bytes(rng.integers(0, 256, n_bytes, dtype=np.uint8))
        first_call = {"done": False}

        def channel(symbols):
            symbols = np.asarray(symbols, dtype=np.int64)
            if symbols.size == 0:
                return SoftPacket(
                    symbols=symbols, hints=np.zeros(0), truth=symbols
                )
            if first_call["done"]:
                # Retransmissions arrive clean.
                return SoftPacket(
                    symbols=symbols,
                    hints=np.zeros(symbols.size),
                    truth=symbols,
                )
            first_call["done"] = True
            # Corrupt an arbitrary subset, with honest high hints.
            corrupted = symbols.copy()
            hints = np.zeros(symbols.size)
            n_bad = int(rng.integers(1, symbols.size))
            idx = rng.choice(symbols.size, n_bad, replace=False)
            corrupted[idx] = (corrupted[idx] + 1) % 16
            hints[idx] = 12.0
            return SoftPacket(
                symbols=corrupted, hints=hints, truth=symbols
            )

        session = PpArqSession(channel, eta=6.0)
        log = session.transfer(1, payload)
        assert log.delivered
        assert session.receiver.reassembled_payload(1) == payload
        assert log.rounds <= 3
        # Retransmitted data symbols never exceed one full packet.
        wire_symbols = 2 * (n_bytes + 4)
        assert log.data_symbols_sent <= 2 * wire_symbols

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=15, deadline=None)
    def test_misses_always_caught_by_checksums(self, seed):
        """Even when every corrupted symbol carries a *good* hint (a
        total miss storm), the gap-checksum exchange recovers the
        packet — data integrity never depends on hint quality."""
        rng = ensure_rng(seed)
        payload = bytes(rng.integers(0, 256, 60, dtype=np.uint8))
        calls = {"n": 0}

        def lying_channel(symbols):
            symbols = np.asarray(symbols, dtype=np.int64)
            if symbols.size == 0:
                return SoftPacket(
                    symbols=symbols, hints=np.zeros(0), truth=symbols
                )
            calls["n"] += 1
            if calls["n"] > 1:
                return SoftPacket(
                    symbols=symbols,
                    hints=np.zeros(symbols.size),
                    truth=symbols,
                )
            corrupted = symbols.copy()
            idx = rng.choice(symbols.size, 5, replace=False)
            corrupted[idx] = (corrupted[idx] + 3) % 16
            return SoftPacket(
                symbols=corrupted,
                hints=np.zeros(symbols.size),  # all lies
                truth=symbols,
            )

        session = PpArqSession(lying_channel, eta=6.0)
        log = session.transfer(1, payload)
        assert log.delivered
        assert session.receiver.reassembled_payload(1) == payload


class TestTimingRecoveryEndToEnd:
    """Paper §4: non-data-aided timing recovery lets the receiver
    symbol-synchronise stored samples at any point of a transmission."""

    # Delays whose whole-chip part is even: the energy estimator
    # recovers the sub-chip sample phase but is blind to I/Q rail
    # parity (an odd-chip shift swaps rails); absolute chip alignment
    # comes from frame-sync correlation in the full receiver.
    @pytest.mark.parametrize("delay", [1.0, 2.0, 3.0, 9.0, 10.0, 11.0])
    def test_integer_sample_delays_recovered(self, codebook, delay):
        rng = ensure_rng(int(delay * 10))
        sps = 4
        symbols = rng.integers(0, 16, 40)
        wave = MskModulator(sps=sps).modulate_symbols(symbols, codebook)
        shifted = np.concatenate([np.zeros(int(delay), dtype=complex), wave])
        noisy = add_awgn(shifted, 0.05, rng)

        phase, _ = estimate_chip_phase(noisy, sps=sps)
        assert phase == int(delay) % sps

        # Decode from the estimated alignment: phase gives the
        # chip-rate offset; whole-chip ambiguity resolves by decoding
        # at candidate chip starts and keeping the best hints.
        from repro.phy.demodulation import MskDemodulator

        demod = MskDemodulator(sps=sps)
        start = int(delay) if delay == int(delay) else None
        if start is not None:
            soft = demod.demodulate_soft(noisy, start, 40 * 32)
            hard = (soft > 0).astype(np.uint8).reshape(-1, 32)
            decoded, dists = codebook.decode_hard(
                pack_bits_to_uint32(hard)
            )
            assert np.array_equal(decoded, symbols)
            assert dists.mean() < 1.0

    def test_phase_estimate_consistent_across_packet(self, codebook):
        """Estimating from the head and from the middle of a long
        capture gives the same chip phase — the property that lets
        rollback re-synchronise buffered samples."""
        rng = ensure_rng(3)
        sps = 4
        symbols = rng.integers(0, 16, 120)
        wave = MskModulator(sps=sps).modulate_symbols(symbols, codebook)
        shifted = np.concatenate([np.zeros(2, dtype=complex), wave])
        noisy = add_awgn(shifted, 0.1, rng)
        head_phase, _ = estimate_chip_phase(noisy, sps=sps, start=0)
        mid = (60 * 32) * sps  # chip-aligned interior point
        mid_phase, _ = estimate_chip_phase(noisy, sps=sps, start=mid)
        assert head_phase == mid_phase == 2
