"""Tests for the counter-based (keyed) RNG helpers.

The chip channel's fused transit and the multiprocess trial runner
both assume that a keyed stream depends only on its ``(seed, label,
*ids)`` address and that :func:`derive_key` never aliases distinct id
tuples.  These tests pin that, and the batching/sharding invariances
the simulation relies on.
"""

import numpy as np

from repro.utils import sanitize
from repro.utils.rng import derive_key, keyed_rng


class TestDeriveKey:
    def test_deterministic(self):
        # One call site, two draws: fine under REPRO_SANITIZE (only
        # distinct sites sharing a key are collisions).
        a, b = (derive_key(7, "chip-channel", 3, 24) for _ in range(2))
        assert a.dtype == np.uint64 and a.shape == (2,)
        assert np.array_equal(a, b)

    def test_disjoint_pair_keys_never_alias(self):
        """Every (tx_id, receiver) pair of a large grid — and the same
        pairs under a different seed or label — gets a distinct key."""
        seen = set()
        for seed in (0, 1):
            for tx_id in range(500):
                for receiver in (23, 24, 25, 26):
                    seen.add(
                        tuple(derive_key(seed, "chip-channel", tx_id, receiver))
                    )
        seen.add(tuple(derive_key(0, "other-label", 0, 23)))
        assert len(seen) == 2 * 500 * 4 + 1

    def test_id_boundaries_unambiguous(self):
        """(1, 23) must not collide with e.g. (12, 3) under any string
        concatenation scheme."""
        assert not np.array_equal(
            derive_key(0, "x", 1, 23), derive_key(0, "x", 12, 3)
        )


class TestKeyedRng:
    def test_deterministic_and_order_free(self):
        """A keyed stream yields the same draws no matter what other
        streams did in between — the anti-aliasing property the fused
        channel and the multiprocess runner need.  Rebuilding one
        stream at two sites is the test's point, so the REPRO_SANITIZE
        ledger is suspended."""
        with sanitize.suspended():
            a = keyed_rng(0, "chip-channel", 3, 24).random(64)
            interloper = keyed_rng(0, "chip-channel", 4, 24)
            interloper.random(1000)  # unrelated stream drains heavily
            b = keyed_rng(0, "chip-channel", 3, 24).random(64)
        assert np.array_equal(a, b)

    def test_split_draws_match_one_draw(self):
        """Drawing (n, 32) at once equals drawing row blocks in order
        — what lets the channel group pairs arbitrarily."""
        with sanitize.suspended():
            whole = keyed_rng(1, "x", 7).random((10, 32))
            gen = keyed_rng(1, "x", 7)
        parts = np.vstack([gen.random((4, 32)), gen.random((6, 32))])
        assert np.array_equal(whole, parts)

    def test_distinct_ids_distinct_streams(self):
        a = keyed_rng(0, "chip-channel", 0, 23).random(256)
        b = keyed_rng(0, "chip-channel", 0, 24).random(256)
        assert not np.array_equal(a, b)
        # Crude independence: empirical correlation near zero.
        assert abs(np.corrcoef(a, b)[0, 1]) < 0.2

    def test_keyed_philox_streams_independent(self):
        """Matching draws of two streams whose keys differ in one id
        agree no more than chance."""
        n = 1 << 14
        a = keyed_rng(5, "chip-channel", 5, 23).integers(
            0, 2**32, n, dtype=np.uint32
        )
        b = keyed_rng(5, "chip-channel", 5, 24).integers(
            0, 2**32, n, dtype=np.uint32
        )
        # n words, each matching with probability 2**-32.
        assert np.count_nonzero(a == b) == 0
        # Bitwise balance of the XOR stream (crude independence check).
        bits = np.unpackbits((a ^ b).view(np.uint8))
        assert abs(bits.mean() - 0.5) < 0.01
