"""Content addressing for the durable run store.

A store key is a SHA-256 over the *canonical JSON* of three things:
the full frozen :class:`~repro.sim.network.SimulationConfig` (field
names and values — never Python ``hash()``, which is neither stable
across processes nor across versions), the store's on-disk schema
version, and the package version.  Folding the two version stamps into
the key means a schema or code change makes every old entry *miss* —
stale results are recomputed and rewritten, never silently reused.
:func:`config_digest` is the config's digest without the stamps: what
the executor keys fault and backoff schedules on, so a version bump
leaves those schedules alone.

Canonical JSON is ``json.dumps`` with sorted keys, no whitespace, and
``allow_nan=False``: for any JSON-representable value it is a
deterministic byte sequence, and Python's shortest-repr float
formatting makes it exact for every finite float64.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any

from repro._version import __version__
from repro.sim.network import SimulationConfig
from repro.store.serialize import config_to_dict

# Version of the on-disk entry layout (document structure, array
# encoding, container).  Bump whenever the serialized form changes
# shape, or the bytes stored for one config change (schema 7: the
# payload rows of frames no PHY mode acquires are all zero); old
# entries then miss by key and are recomputed.
STORE_SCHEMA_VERSION = 7


def canonical_json(data: Any) -> str:
    """Deterministic JSON text for ``data`` (sorted keys, no spaces)."""
    return json.dumps(
        data, sort_keys=True, separators=(",", ":"), allow_nan=False
    )


def config_key(config: SimulationConfig) -> str:
    """The store key (hex SHA-256) addressing ``config``'s run.

    The key folds in the package version stamp, so entries written by
    another version are never addressed.
    """
    material = {
        "store_schema_version": STORE_SCHEMA_VERSION,
        "repro_version": __version__,
        "config": config_to_dict(config),
    }
    digest = hashlib.sha256(canonical_json(material).encode("utf-8"))
    return digest.hexdigest()


def config_digest(config: SimulationConfig) -> bytes:
    """The raw 32-byte SHA-256 of ``config``'s canonical JSON alone.

    Unlike :func:`config_key` it folds in no version stamp, so it
    moves only when the config does.  The supervised executor keys
    per-task fault and backoff streams on it: stable across processes
    and runs (unlike ``hash()``), and across store schema and package
    versions, so injected-fault schedules and retry jitter are
    deterministic properties of the config being simulated.
    """
    text = canonical_json(config_to_dict(config))
    return hashlib.sha256(text.encode("utf-8")).digest()
