"""Tests for repro.utils.rng and units."""

import numpy as np
import pytest

from repro.utils import sanitize
from repro.utils.rng import (
    derive_key,
    derive_rng,
    ensure_rng,
    keyed_rng,
    rng_from_key,
)
from repro.utils.units import dbm_to_mw


class TestRng:
    def test_ensure_passes_generator_through(self):
        gen = ensure_rng(1)
        assert ensure_rng(gen) is gen

    def test_ensure_seeds_from_int(self):
        a = ensure_rng(42).random(5)
        b = ensure_rng(42).random(5)
        assert np.array_equal(a, b)

    def test_derive_deterministic(self):
        a = derive_rng(7, "noise").random(4)
        b = derive_rng(7, "noise").random(4)
        assert np.array_equal(a, b)

    def test_derive_labels_independent(self):
        a = derive_rng(7, "noise").random(4)
        b = derive_rng(7, "traffic").random(4)
        assert not np.array_equal(a, b)

    def test_derive_seeds_independent(self):
        a = derive_rng(7, "noise").random(4)
        b = derive_rng(8, "noise").random(4)
        assert not np.array_equal(a, b)

    def test_ensure_none_gives_generator(self):
        assert isinstance(ensure_rng(None), np.random.Generator)


class TestKeyedStreams:
    def test_derive_key_shape_and_stability(self):
        # One call site deriving twice: REPRO_SANITIZE allows a key to
        # repeat from one site, only two *distinct* sites collide.
        first, second = (derive_key(7, "channel", 3, 9) for _ in range(2))
        assert first.shape == (2,) and first.dtype == np.dtype("<u8")
        assert np.array_equal(first, second)

    def test_derive_key_pinned_value(self):
        # Frozen forever: keys address persisted per-pair streams, so
        # a change here is a determinism break, not a refactor.
        key = derive_key(0, "pin")
        assert [int(k) for k in key] == [
            8470707281523931788,
            16924226012717884954,
        ]

    def test_derive_key_id_widths_do_not_alias(self):
        # (1, 2) must not collide with (12,) or ("1:2" vs "12") style
        # concatenation bugs.
        base = derive_key(0, "s", 1, 2)
        assert not np.array_equal(base, derive_key(0, "s", 12))
        assert not np.array_equal(base, derive_key(0, "s", 1, 2, 0))

    def test_keyed_rng_matches_rng_from_key(self):
        # Two construction paths for one stream is this test's point;
        # the sanitizer would (correctly) read it as a collision.
        with sanitize.suspended():
            a = keyed_rng(5, "noise", 1, 2).random(8)
            b = rng_from_key(derive_key(5, "noise", 1, 2)).random(8)
        assert np.array_equal(a, b)

    def test_keyed_streams_independent_across_ids(self):
        a = keyed_rng(5, "noise", 0).random(8)
        b = keyed_rng(5, "noise", 1).random(8)
        assert not np.array_equal(a, b)


class TestUnits:

    def test_known_values(self):
        assert dbm_to_mw(0.0) == pytest.approx(1.0)
        assert dbm_to_mw(3.0) == pytest.approx(1.995, rel=1e-3)
        assert dbm_to_mw(30.0) == pytest.approx(1000.0)

    def test_array_support(self):
        out = dbm_to_mw(np.array([0.0, 10.0]))
        assert out.tolist() == pytest.approx([1.0, 10.0])
