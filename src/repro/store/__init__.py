"""Durable content-addressed artifact store for simulation runs.

The memoization layer that makes the experiment registry behave like a
service: :class:`RunStore` persists every simulated point under a key
derived from the full frozen config plus schema/package version stamps,
and a store-backed :class:`~repro.experiments.common.RunCache` resolves
requests memory → disk → simulate (writing back on miss) so repeat
invocations, concurrent sweeps, and parallel CI jobs stop re-paying
for the same simulations.  See ``repro.store.core`` for the on-disk
format and its durability properties.
"""

from repro.store.core import RunStore, StoreCounters
from repro.store.keys import (
    STORE_SCHEMA_VERSION,
    canonical_json,
    config_digest,
    config_key,
)
from repro.store.serialize import (
    config_from_dict,
    config_to_dict,
    result_from_parts,
    result_to_parts,
)

__all__ = [
    "RunStore",
    "StoreCounters",
    "STORE_SCHEMA_VERSION",
    "canonical_json",
    "config_digest",
    "config_key",
    "config_from_dict",
    "config_to_dict",
    "result_from_parts",
    "result_to_parts",
]
