"""End-to-end property tests on the PP-ARQ protocol pipeline.

These pin down system-level guarantees rather than module behaviours:
PP-ARQ converges for *any* error pattern.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.arq.protocol import PpArqSession
from repro.phy.symbols import SoftPacket
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

        session = PpArqSession(channel)
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

        session = PpArqSession(lying_channel)
        log = session.transfer(1, payload)
        assert log.delivered
        assert session.receiver.reassembled_payload(1) == payload
