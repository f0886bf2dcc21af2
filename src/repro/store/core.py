"""The durable content-addressed run store.

One entry per simulation point, addressed by
:func:`~repro.store.keys.config_key` and laid out two levels deep so
directories stay small::

    <root>/runs/<key[:2]>/<key>.run

Each entry is one plain file of three parts:

1. a canonical-JSON **header** line — schema version, package version,
   entry kind, the key and config the entry answers for, and a SHA-256
   checksum over everything after the header line;
2. a canonical-JSON **structure** line — the run's metadata and the
   array descriptors (:mod:`repro.store.serialize`);
3. the raw **binary section** the descriptors point into.

The checksum covers the structure and binary bytes exactly as written,
and the reader rebuilds the header line from the config it asked for
and that checksum, so every byte of an entry is verified.  Neither
direction copies the bulk data: a write hashes and writes the run's
own array buffers one by one, and a warm hit is one ``readinto`` of
the file, a small JSON parse and views into that one buffer — far
below the cost of simulating the point.

Durability properties:

* **Atomic writes** — entries are written to a temp file in the same
  directory and ``os.replace``d into place, so concurrent ``--jobs N``
  workers, parallel CI jobs, and readers racing writers never observe
  a torn entry; when two processes write the same key, last-writer
  wins and both leave a complete, valid entry.
* **Corruption detection** — a truncated or extended entry, malformed
  JSON, checksum or header mismatch, or a payload that fails to
  deserialize is logged, counted, deleted, and treated as a miss: the
  caller transparently recomputes and the write-back replaces the bad
  entry.
* **Version invalidation** — the version stamps are part of the key
  *and* re-verified on read, so entries written by other code or
  schema versions are never silently reused.

The :class:`StoreCounters` (hits/misses/writes/corrupt) are the first
observability hooks on the serving path: the runner prints them in its
summary and embeds them in the artifact manifest.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Any

from repro._version import __version__
from repro.sim.network import SimulationConfig, SimulationResult
from repro.store.keys import (
    STORE_SCHEMA_VERSION,
    canonical_json,
    config_key,
)
from repro.store.serialize import config_to_dict, result_from_parts, result_to_chunks

logger = logging.getLogger("repro.store")

_ENTRY_KIND = "simulation-run"



def _header_line(key: str, config: SimulationConfig, sha256: str) -> bytes:
    """The header line of the entry for ``key`` whose body hashes to
    ``sha256``: written by :meth:`RunStore.put`, rebuilt to verify."""
    header = {
        "store_schema_version": STORE_SCHEMA_VERSION,
        "repro_version": __version__,
        "kind": _ENTRY_KIND,
        "key": key,
        "config": config_to_dict(config),
        "sha256": sha256,
    }
    return canonical_json(header).encode("utf-8") + b"\n"


@dataclass
class StoreCounters:
    """Observability counters for one :class:`RunStore` instance.

    ``corrupt`` counts entries discarded on read — torn, truncated,
    checksum-mismatched, or stamped by a different schema/package
    version; every such read also counts as a miss, because the caller
    goes on to simulate.
    """

    hits: int = 0
    misses: int = 0
    writes: int = 0
    corrupt: int = 0

    def as_dict(self) -> dict[str, int]:
        """Plain data for manifests and JSON documents."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "writes": self.writes,
            "corrupt": self.corrupt,
        }

    def summary(self) -> str:
        """One human-readable line for the runner's summary."""
        return (
            f"{self.hits} hits, {self.misses} misses, "
            f"{self.writes} writes, {self.corrupt} corrupt"
        )


class RunStore:
    """Durable, content-addressed store of simulation runs.

    ``RunStore(root)`` needs no setup: directories are created on
    first write, and a missing or empty root simply misses.  Instances
    are cheap — every operation goes straight to the filesystem, so
    any number of processes can share one root concurrently.
    """

    def __init__(self, root: Path | str) -> None:
        self.root = Path(root)
        self.counters = StoreCounters()

    def path_for(self, config: SimulationConfig) -> Path:
        """Where ``config``'s entry lives (whether or not it exists)."""
        return self._path_for_key(config_key(config))

    def _path_for_key(self, key: str) -> Path:
        return self.root / "runs" / key[:2] / f"{key}.run"

    def get(self, config: SimulationConfig) -> SimulationResult | None:
        """The stored run for ``config``, or ``None`` on a miss.

        The run's arrays are views into the one buffer the entry is
        read into.  Corrupt or stale entries are logged, deleted, and
        reported as misses so the caller recomputes transparently.
        """
        key = config_key(config)
        path = self._path_for_key(key)
        try:
            with open(path, "rb") as fh:
                # A file that shrank since the stat leaves a zero tail,
                # which fails the checksum like any other truncation.
                raw = bytearray(os.fstat(fh.fileno()).st_size)
                fh.readinto(raw)
        except FileNotFoundError:
            self.counters.misses += 1
            return None
        result = self._load_entry(raw, key, config, path)
        if result is None:
            self.counters.corrupt += 1
            self.counters.misses += 1
            path.unlink(missing_ok=True)
            return None
        self.counters.hits += 1
        return result

    def put(
        self, config: SimulationConfig, result: SimulationResult
    ) -> Path:
        """Write (or atomically replace) the entry for ``config``.

        The binary section goes from the run's arrays straight to the
        checksum and the file, never through a copy.
        """
        if result.config != config:
            raise ValueError(
                "result was simulated under a different config than "
                "the one it is being stored against"
            )
        key = config_key(config)
        path = self._path_for_key(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        structure, chunks = result_to_chunks(result)
        structure_line = (
            canonical_json(
                {
                    "structure": structure,
                    "binary_bytes": sum(len(c) for c in chunks),
                }
            ).encode("utf-8")
            + b"\n"
        )
        digest = hashlib.sha256(structure_line)
        for chunk in chunks:
            digest.update(chunk)
        fd, tmp_name = tempfile.mkstemp(
            dir=path.parent, prefix=f".{path.stem}-", suffix=".tmp"
        )
        try:
            with os.fdopen(fd, "wb") as fh:
                fh.write(_header_line(key, config, digest.hexdigest()))
                fh.write(structure_line)
                fh.writelines(chunks)
            os.replace(tmp_name, path)
        except BaseException:
            try:
                os.unlink(tmp_name)
            except FileNotFoundError:
                pass
            raise
        self.counters.writes += 1
        return path

    def _load_entry(
        self,
        raw: bytearray,
        expected_key: str,
        config: SimulationConfig,
        path: Path,
    ) -> SimulationResult | None:
        """Parse and verify one entry; ``None`` if it cannot be used."""
        # A missing line break, bad UTF-8 and malformed JSON are all
        # ValueErrors.
        try:
            header_end = raw.index(b"\n") + 1
            header: Any = json.loads(raw[:header_end].decode("utf-8"))
        except ValueError as exc:
            logger.warning(
                "corrupt store entry %s (%s: %s); recomputing",
                path,
                type(exc).__name__,
                exc,
            )
            return None
        view = memoryview(raw)
        problem = self._verify(
            header, view[:header_end], view[header_end:], expected_key, config
        )
        if problem is not None:
            logger.warning(
                "discarding store entry %s (%s); recomputing",
                path,
                problem,
            )
            return None
        try:
            structure_end = raw.index(b"\n", header_end) + 1
            structure: Any = json.loads(
                raw[header_end:structure_end].decode("utf-8")
            )
            binary = view[structure_end:]
            if len(binary) != structure["binary_bytes"]:
                raise ValueError(
                    f"binary section holds {len(binary)} bytes, "
                    f"structure expects {structure['binary_bytes']}"
                )
            return result_from_parts(structure["structure"], binary)
        except (ValueError, LookupError, TypeError) as exc:
            logger.warning(
                "undeserializable store entry %s (%s: %s); recomputing",
                path,
                type(exc).__name__,
                exc,
            )
            return None

    @staticmethod
    def _verify(
        header: Any,
        header_line: memoryview,
        body: memoryview,
        expected_key: str,
        config: SimulationConfig,
    ) -> str | None:
        """Why an entry cannot be used, or ``None`` if it can."""
        if not isinstance(header, dict):
            return "entry header is not a JSON object"
        if header.get("store_schema_version") != STORE_SCHEMA_VERSION:
            return (
                "store schema version "
                f"{header.get('store_schema_version')!r} != "
                f"{STORE_SCHEMA_VERSION}"
            )
        if header.get("repro_version") != __version__:
            return (
                f"stale entry: written by repro "
                f"{header.get('repro_version')!r}, running {__version__!r}"
            )
        if header.get("kind") != _ENTRY_KIND:
            return f"unexpected entry kind {header.get('kind')!r}"
        if header.get("key") != expected_key:
            return (
                f"key mismatch: entry claims {header.get('key')!r}, "
                f"expected {expected_key!r}"
            )
        digest = hashlib.sha256(body).hexdigest()
        if digest != header.get("sha256"):
            return "payload checksum mismatch"
        if header_line != _header_line(expected_key, config, digest):
            return "header does not match the requested config"
        return None
