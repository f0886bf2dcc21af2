"""The determinism contract of the sharded simulation.

One config must produce bit-identical :class:`SimulationResult`s no
matter *how* the work is executed: any ``jobs`` worker count,
prefetched or lazily simulated, fresh or loaded from a store.  The
counter-based chip channel makes this hold by construction — every
(transmission, receiver) pair's randomness is addressed by ``(seed,
tx_id, receiver, word)`` rather than by draw order — and these tests
pin the contract end to end through the :class:`RunCache`.
"""

import numpy as np
import pytest

from repro.experiments.common import RunCache
from test_store import _assert_results_identical

_DURATION_S = 3.0
_SEED = 21


def _runs(jobs: int, **kwargs) -> RunCache:
    return RunCache(
        duration_s=_DURATION_S, seed=_SEED, jobs=jobs, **kwargs
    )


def _points(cache: RunCache):
    return [
        cache.config_for(load=9000.0, carrier_sense=False),
        cache.config_for(load=13800.0, carrier_sense=False),
    ]


class TestJobsInvariance:
    @pytest.mark.parametrize("jobs", [2, 3])
    def test_bit_identical_across_worker_counts(self, jobs):
        sequential = _runs(jobs=1)
        sequential.prefetch(_points(sequential))
        sharded = _runs(jobs=jobs)
        sharded.prefetch(_points(sharded))
        for seq_cfg, sh_cfg in zip(
            _points(sequential), _points(sharded), strict=True
        ):
            _assert_results_identical(
                sequential.get(seq_cfg), sharded.get(sh_cfg)
            )

    def test_lazy_get_matches_prefetch(self):
        lazy = _runs(jobs=1)
        eager = _runs(jobs=2)
        eager.prefetch(_points(eager))
        for config in _points(lazy):
            _assert_results_identical(lazy.get(config), eager.get(config))

    def test_prefetch_is_idempotent_and_caches(self):
        runs = _runs(jobs=2)
        runs.prefetch(_points(runs))
        first = runs.get(_points(runs)[0])
        runs.prefetch(_points(runs))  # all cached: must not resimulate
        assert runs.get(_points(runs)[0]) is first


class TestFullConfigKey:
    """The cache key is the entire config: sweeping any axis creates
    distinct entries, and equal configs hit the same entry whichever
    cache instance or access style produced them."""

    def test_seed_axis_never_aliases(self):
        runs = _runs(jobs=1)
        a = runs.get(load=13800.0, carrier_sense=False)
        b = runs.get(load=13800.0, carrier_sense=False, seed=_SEED + 1)
        assert a is not b
        # Different seeds really are different noise realisations.
        assert len(a.records) != len(b.records) or any(
            not np.array_equal(ra.payload, rb.payload)
            for ra, rb in zip(a.records, b.records, strict=True)
        )

    def test_equal_configs_are_one_entry(self):
        runs = _runs(jobs=1)
        direct = runs.get(
            runs.config_for(load=13800.0, carrier_sense=False)
        )
        via_overrides = runs.get(load=13800.0, carrier_sense=False)
        assert direct is via_overrides


class TestStoreInvariance:
    """A store-backed cache stays on the contract: results loaded from
    disk are bit-identical to freshly simulated ones, for any worker
    count and whichever process wrote the entries."""

    def test_store_round_trip_matches_fresh_simulation(self, tmp_path):
        from repro.store import RunStore

        fresh = _runs(jobs=1)
        fresh.prefetch(_points(fresh))
        writer = _runs(jobs=2, store=RunStore(tmp_path))
        writer.prefetch(_points(writer))
        # A brand-new cache resolves every point from disk alone.
        reader = _runs(jobs=1, store=RunStore(tmp_path))
        reader.prefetch(_points(reader))
        assert reader.store.counters.misses == 0
        for config in _points(fresh):
            _assert_results_identical(
                fresh.get(config), reader.get(config)
            )

    def test_warm_store_identical_across_worker_counts(self, tmp_path):
        from repro.store import RunStore

        for jobs in (1, 3):
            runs = _runs(jobs=jobs, store=RunStore(tmp_path))
            runs.prefetch(_points(runs))
        baseline = _runs(jobs=1)
        baseline.prefetch(_points(baseline))
        warm = _runs(jobs=3, store=RunStore(tmp_path))
        warm.prefetch(_points(warm))
        for config in _points(baseline):
            _assert_results_identical(
                baseline.get(config), warm.get(config)
            )
