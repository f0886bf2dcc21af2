"""Tests for the durable content-addressed run store.

Covers the key derivation (content addressing + version stamps), the
bit-for-bit round trip the determinism contract depends on, the
observability counters, and the durability properties: atomic writes
under concurrent writers, corrupt/truncated entries detected and
transparently recomputed, and version-stamp invalidation.
"""

import dataclasses
import gzip
import hashlib
import tracemalloc
import json

import numpy as np
import pytest

import repro.experiments.common as common
import repro.store.keys as store_keys
from repro.exec import FaultPlan, Supervisor, Task
from repro.experiments import registry
from repro.experiments.common import RunCache
from repro.store import (
    RunStore,
    STORE_SCHEMA_VERSION,
    canonical_json,
    config_digest,
    config_key,
    config_from_dict,
    config_to_dict,
    result_from_parts,
    result_to_parts,
)

_DURATION_S = 2.0
_SEED = 21


def _config(**overrides):
    base = RunCache(duration_s=_DURATION_S, seed=_SEED)
    fields = {"load": 13800.0, "carrier_sense": False, **overrides}
    return base.config_for(**fields)


@pytest.fixture(scope="module")
def run():
    """One cheap simulated point, shared across the module."""
    config = _config()
    return config, common._simulate_config(config)


def _assert_results_identical(a, b) -> None:
    """Bit-for-bit equality of two runs, dtypes and testbed included.

    Also checks that every record points at its own run's transmission
    object, which must survive a store load and a worker's pickle.
    """
    assert a.config == b.config
    assert np.array_equal(a.testbed.positions_m, b.testbed.positions_m)
    assert a.testbed.sender_ids == b.testbed.sender_ids
    assert a.testbed.receiver_ids == b.testbed.receiver_ids
    assert a.testbed.room_grid == b.testbed.room_grid
    assert a.testbed.area_m == b.testbed.area_m
    assert len(a.transmissions) == len(b.transmissions)
    for ta, tb in zip(a.transmissions, b.transmissions, strict=True):
        assert dataclasses.astuple(ta) == dataclasses.astuple(tb)
    assert len(a.records) == len(b.records)
    for ra, rb in zip(a.records, b.records, strict=True):
        assert ra.tx is a.transmissions[ra.tx.tx_id]
        assert rb.tx is b.transmissions[rb.tx.tx_id]
        assert ra.tx.tx_id == rb.tx.tx_id
        for field in (
            "receiver",
            "preamble_detectable",
            "postamble_detectable",
            "trailer_ok",
            "acquired_preamble",
        ):
            assert getattr(ra, field) == getattr(rb, field), field
        assert ra.payload.dtype == rb.payload.dtype == np.uint8
        assert np.array_equal(ra.payload, rb.payload)


class TestKeys:
    def test_key_is_hex_sha256(self):
        key = config_key(_config())
        assert len(key) == 64
        assert set(key) <= set("0123456789abcdef")

    def test_equal_configs_equal_keys(self):
        assert config_key(_config()) == config_key(_config())

    def test_every_field_is_part_of_the_key(self):
        base = config_key(_config())
        assert config_key(_config(load=3500.0)) != base
        assert config_key(_config(seed=_SEED + 1)) != base
        assert config_key(_config(carrier_sense=True)) != base

    def test_version_stamp_is_part_of_the_key(self, monkeypatch):
        config = _config()
        key = config_key(config)
        monkeypatch.setattr(store_keys, "__version__", "9.9.9")
        assert config_key(config) != key

    def test_task_keys_ignore_the_version_stamps(self, monkeypatch):
        """A schema bump re-keys the store but leaves the executor's
        fault and backoff schedules, keyed on the config digest, alone."""
        configs = [_config(), _config(load=3500.0)]

        def task_keys():
            seen = []

            def record(self, tasks, fn, *, on_result=None, idle=None):
                seen.extend(tasks)
                return {}, []

            with monkeypatch.context() as patch:
                patch.setattr(common.Supervisor, "run", record)
                RunCache(duration_s=_DURATION_S, seed=_SEED).prefetch(
                    configs
                )
            return [(task.key, task.label) for task in seen]

        keys, tasks = [config_key(c) for c in configs], task_keys()
        assert [key for key, _label in tasks] == [
            config_digest(c) for c in configs
        ]
        monkeypatch.setattr(
            store_keys, "STORE_SCHEMA_VERSION", STORE_SCHEMA_VERSION + 1
        )
        assert all(
            config_key(c) != key
            for c, key in zip(configs, keys, strict=True)
        )
        assert task_keys() == tasks

    def test_canonical_json_is_order_independent(self):
        assert canonical_json({"b": 1, "a": [2.5, None]}) == canonical_json(
            {"a": [2.5, None], "b": 1}
        )

    def test_config_dict_round_trip(self):
        """Every quick point a registered experiment declares survives
        the config's JSON form, which is also what its store key hashes."""
        base = RunCache(duration_s=15.0, seed=2007).base
        configs = [
            config
            for spec in registry.all_specs()
            for config in spec.configs(base)
        ]
        assert configs
        for config in configs:
            data = json.loads(canonical_json(config_to_dict(config)))
            assert config_from_dict(data) == config


class TestRoundTrip:
    def test_parts_round_trip_bit_for_bit(self, run):
        _config_, result = run
        structure, binary = result_to_parts(result)
        # The structure must survive a JSON round trip unchanged.
        structure = json.loads(canonical_json(structure))
        _assert_results_identical(
            result, result_from_parts(structure, binary)
        )

    def test_store_round_trip_bit_for_bit(self, run, tmp_path):
        config, result = run
        store = RunStore(tmp_path)
        store.put(config, result)
        loaded = store.get(config)
        assert loaded is not None
        _assert_results_identical(result, loaded)

    def test_counters(self, run, tmp_path):
        config, result = run
        store = RunStore(tmp_path)
        assert store.get(config) is None
        store.put(config, result)
        assert store.get(config) is not None
        assert store.counters.as_dict() == {
            "hits": 1,
            "misses": 1,
            "writes": 1,
            "corrupt": 0,
        }
        assert store.counters.summary() == (
            "1 hits, 1 misses, 1 writes, 0 corrupt"
        )

    def test_entry_bytes_deterministic(self, run, tmp_path):
        config, result = run
        store = RunStore(tmp_path)
        path = store.put(config, result)
        first = path.read_bytes()
        assert store.put(config, result) == path
        assert path.read_bytes() == first

    def test_put_rejects_mismatched_config(self, run, tmp_path):
        config, result = run
        with pytest.raises(ValueError, match="different config"):
            RunStore(tmp_path).put(_config(load=3500.0), result)

    def test_table_rejects_a_payload_that_is_not_one_matrix(self, run):
        """Receptions are rows of one table, so a payload column with
        a row missing, or without a width, cannot even be built, let
        alone stored."""
        table = run[1].table
        for bad in (table.payload[:-1], table.payload.reshape(-1)):
            with pytest.raises(ValueError, match="payload"):
                dataclasses.replace(table, payload=bad)

    def test_entry_holds_one_byte_per_payload_codeword(self, run, tmp_path):
        """An entry keeps no symbol rows: its one matrix is the uint8
        payload column, one byte per received payload codeword."""
        config, result = run
        _header, body = _split(RunStore(tmp_path).put(config, result))
        structure = json.loads(body[: body.index(b"\n")])["structure"]
        assert "symbols" not in structure["transmissions"]
        descriptors = [
            d
            for part in structure.values()
            if isinstance(part, dict)
            for d in part.values()
            if isinstance(d, dict) and "shape" in d
        ]
        payload = structure["records"]["payload"]
        assert [d for d in descriptors if d["dtype"] == "|u1"] == [payload]
        assert payload["shape"] == list(result.table.payload.shape)
        assert payload["nbytes"] == result.table.payload.size

    def test_no_temp_files_left_behind(self, run, tmp_path):
        config, result = run
        store = RunStore(tmp_path)
        path = store.put(config, result)
        assert list(path.parent.iterdir()) == [path]


def _split(path) -> tuple[dict, bytes]:
    """An entry's parsed header and the body after the header line."""
    raw = path.read_bytes()
    header_end = raw.index(b"\n")
    return json.loads(raw[:header_end]), raw[header_end + 1 :]


def _write_entry(path, header, body) -> None:
    path.write_bytes(canonical_json(header).encode() + b"\n" + body)


def _restamp(path, edit) -> None:
    """Rewrite an entry's structure/binary through ``edit`` and fix up
    its checksum, so only the reader's own checks can reject it."""
    header, old_body = _split(path)
    structure_end = old_body.index(b"\n")
    document = json.loads(old_body[:structure_end])
    binary = bytearray(old_body[structure_end + 1 :])
    edit(document["structure"], binary)
    body = canonical_json(document).encode() + b"\n" + bytes(binary)
    header["sha256"] = hashlib.sha256(body).hexdigest()
    _write_entry(path, header, body)


def _tx_id_past_the_transmissions(path) -> None:
    def edit(structure, binary):
        n_tx = structure["transmissions"]["count"]
        offset = structure["records"]["tx_id"]["offset"]
        binary[offset : offset + 8] = np.int64(n_tx).tobytes()

    _restamp(path, edit)


def _short_body_matrix(path) -> None:
    def edit(structure, _binary):
        descriptor = structure["records"]["payload"]
        rows, width = descriptor["shape"]
        descriptor["shape"] = [rows - 1, width]
        descriptor["nbytes"] -= width * np.dtype(descriptor["dtype"]).itemsize

    _restamp(path, edit)


def _warm_store(tmp_path, run) -> tuple[RunStore, object]:
    config, result = run
    store = RunStore(tmp_path)
    store.put(config, result)
    return store, config


class TestCorruption:
    def test_truncated_entry_recovers(self, run, tmp_path):
        store, config = _warm_store(tmp_path, run)
        path = store.path_for(config)
        path.write_bytes(path.read_bytes()[:100])
        assert store.get(config) is None
        assert store.counters.corrupt == 1
        assert store.counters.misses == 1
        assert not path.exists()  # bad entry deleted for rewrite

    def test_garbage_entry_recovers(self, run, tmp_path):
        store, config = _warm_store(tmp_path, run)
        store.path_for(config).write_bytes(b"not a store entry")
        assert store.get(config) is None
        assert store.counters.corrupt == 1

    def test_checksum_mismatch_detected(self, run, tmp_path):
        store, config = _warm_store(tmp_path, run)
        path = store.path_for(config)
        raw = bytearray(path.read_bytes())
        raw[-1] ^= 0xFF  # flip a payload byte; header stays valid
        path.write_bytes(bytes(raw))
        assert store.get(config) is None
        assert store.counters.corrupt == 1

    def test_schema_version_mismatch_invalidates(self, run, tmp_path):
        store, config = _warm_store(tmp_path, run)
        path = store.path_for(config)
        header, body = _split(path)
        assert header["store_schema_version"] == STORE_SCHEMA_VERSION
        header["store_schema_version"] = STORE_SCHEMA_VERSION + 1
        _write_entry(path, header, body)
        assert store.get(config) is None
        assert store.counters.corrupt == 1

    def test_version_mismatch_invalidates(self, run, tmp_path):
        store, config = _warm_store(tmp_path, run)
        path = store.path_for(config)
        header, body = _split(path)
        header["repro_version"] = "0.0.1"
        # The checksum covers only the body, so the entry is intact
        # apart from the stale stamp — exactly what an entry written
        # by older code looks like.
        _write_entry(path, header, body)
        assert store.get(config) is None
        assert store.counters.corrupt == 1

    def test_config_mismatch_invalidates(self, run, tmp_path):
        """The header's config is checked against the requested one:
        the checksum does not cover it."""
        store, config = _warm_store(tmp_path, run)
        path = store.path_for(config)
        header, body = _split(path)
        header["config"]["seed"] += 1
        _write_entry(path, header, body)
        assert store.get(config) is None
        assert store.counters.corrupt == 1

    def test_recompute_after_corruption(self, run, tmp_path):
        config, result = run
        store = RunStore(tmp_path)
        store.put(config, result)
        store.path_for(config).write_bytes(b"torn")
        cache = RunCache(
            duration_s=_DURATION_S, seed=_SEED, store=store
        )
        _assert_results_identical(result, cache.get(config))
        # The write-back healed the entry.
        fresh = RunStore(tmp_path)
        loaded = fresh.get(config)
        assert loaded is not None
        _assert_results_identical(result, loaded)

    @pytest.mark.parametrize(
        "corrupt", [_tx_id_past_the_transmissions, _short_body_matrix]
    )
    def test_recompute_after_inconsistent_columns(
        self, run, tmp_path, corrupt
    ):
        """Checksummed but self-inconsistent entries are recomputed."""
        config, result = run
        store = RunStore(tmp_path)
        store.put(config, result)
        corrupt(store.path_for(config))
        cache = RunCache(
            duration_s=_DURATION_S, seed=_SEED, store=store
        )
        _assert_results_identical(result, cache.get(config))
        assert store.counters.corrupt == 1
        assert store.counters.writes == 2  # the write-back healed it


class TestIntegritySweep:
    """Every byte of an entry is covered: the checksum guards the
    structure and binary sections, and the header line is rebuilt from
    the requested config and that checksum."""

    @staticmethod
    def _assert_rejected(path, config, data) -> None:
        path.write_bytes(data)
        store = RunStore(path.parents[2])
        assert store.get(config) is None
        assert store.counters.corrupt == 1
        assert store.counters.misses == 1
        assert not path.exists()

    @staticmethod
    def _regions(entry: bytes) -> tuple[int, int]:
        header_end = entry.index(b"\n") + 1
        return header_end, entry.index(b"\n", header_end) + 1

    def test_every_flipped_byte_is_rejected(self, run, tmp_path):
        store, config = _warm_store(tmp_path, run)
        path = store.path_for(config)
        entry = path.read_bytes()
        header_end, structure_end = self._regions(entry)
        assert header_end < structure_end < len(entry)
        boundaries = {
            offset + delta
            for offset in (header_end - 1, structure_end - 1)
            for delta in (-1, 0, 1)
        }
        spaced = {k * (len(entry) - 1) // 63 for k in range(64)}
        offsets = sorted(spaced | boundaries)
        assert any(o < header_end for o in spaced)
        assert any(header_end <= o < structure_end for o in boundaries)
        for offset in offsets:
            flipped = bytearray(entry)
            flipped[offset] ^= 0x01
            self._assert_rejected(path, config, bytes(flipped))

    def test_truncation_is_rejected(self, run, tmp_path):
        store, config = _warm_store(tmp_path, run)
        path = store.path_for(config)
        entry = path.read_bytes()
        header_end, structure_end = self._regions(entry)
        for size in (
            0,
            header_end // 2,
            header_end - 1,
            header_end,
            (header_end + structure_end) // 2,
            structure_end,
            (structure_end + len(entry)) // 2,
            len(entry) - 1,
        ):
            self._assert_rejected(path, config, entry[:size])

    def test_appended_byte_is_rejected(self, run, tmp_path):
        store, config = _warm_store(tmp_path, run)
        path = store.path_for(config)
        self._assert_rejected(path, config, path.read_bytes() + b"\0")

    def test_schema_3_entry_is_ignored(self, run, tmp_path, monkeypatch):
        """An entry of the gzip format misses by key and is left alone."""
        config, result = run
        with monkeypatch.context() as patch:
            patch.setattr(store_keys, "STORE_SCHEMA_VERSION", 3)
            old_key = config_key(config)
        old = tmp_path / "runs" / old_key[:2] / f"{old_key}.json.gz"
        old.parent.mkdir(parents=True)
        structure, binary = result_to_parts(result)
        old.write_bytes(
            gzip.compress(canonical_json(structure).encode() + binary, mtime=0)
        )
        before = old.read_bytes()
        store = RunStore(tmp_path)
        assert store.get(config) is None
        assert store.counters.as_dict() == {
            "hits": 0,
            "misses": 1,
            "writes": 0,
            "corrupt": 0,
        }
        assert old.read_bytes() == before


class TestStoreMemory:
    """The store copies no bulk data: on the heaviest quick point
    (13.8 Kbit/s, carrier sense off, seed 2009), a write allocates a
    small fraction of the entry and a read little beyond its one
    buffer."""

    @pytest.fixture(scope="class")
    def heaviest(self, tmp_path_factory):
        config = RunCache(duration_s=15.0, seed=2009).config_for(
            load=13800.0, carrier_sense=False
        )
        store = RunStore(tmp_path_factory.mktemp("store"))
        result = common._simulate_config(config)
        path = store.put(config, result)
        return store, config, result, path.stat().st_size

    @staticmethod
    def _peak(fn) -> int:
        tracemalloc.start()
        try:
            fn()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return peak

    def test_put_peak(self, heaviest):
        store, config, result, size = heaviest
        peak = self._peak(lambda: store.put(config, result))
        assert peak < 0.5 * size, f"put peak {peak / size:.2f}x the entry"

    def test_get_peak(self, heaviest):
        store, config, _result, size = heaviest
        peak = self._peak(lambda: store.get(config))
        assert peak < 1.5 * size, f"get peak {peak / size:.2f}x the entry"


def _racing_writer(root: str) -> int:
    """Worker body: repeatedly rewrite the same entry (fork-pickleable)."""
    config = _config()
    store = RunStore(root)
    result = common._simulate_config(config)
    for _ in range(3):
        store.put(config, result)
    return store.counters.writes


class TestConcurrentWriters:
    def test_racing_writers_leave_a_valid_entry(self, tmp_path):
        tasks = [
            Task(task_id=i, payload=str(tmp_path), timeout_s=120.0)
            for i in range(2)
        ]
        supervisor = Supervisor(jobs=2, faults=FaultPlan())
        writes, failures = supervisor.run(tasks, _racing_writer)
        assert failures == []
        assert [writes[0], writes[1]] == [3, 3]
        store = RunStore(tmp_path)
        config = _config()
        assert store.get(config) is not None
        assert store.counters.as_dict() == {
            "hits": 1,
            "misses": 0,
            "writes": 0,
            "corrupt": 0,
        }
        # No temp droppings from either writer.
        path = store.path_for(config)
        assert list(path.parent.iterdir()) == [path]


class TestRunCacheIntegration:
    def test_disk_hit_skips_simulation(self, run, tmp_path, monkeypatch):
        store, config = _warm_store(tmp_path, run)

        def boom(_config):
            raise AssertionError("simulated despite a warm store")

        monkeypatch.setattr(common, "_simulate_config", boom)
        cache = RunCache(
            duration_s=_DURATION_S, seed=_SEED, store=RunStore(tmp_path)
        )
        _assert_results_identical(run[1], cache.get(config))

    def test_memory_hit_skips_the_store(self, run, tmp_path):
        config, result = run
        store = RunStore(tmp_path)
        store.put(config, result)
        cache = RunCache(
            duration_s=_DURATION_S, seed=_SEED, store=store
        )
        first = cache.get(config)
        reads_after_first = store.counters.hits
        assert cache.get(config) is first
        assert store.counters.hits == reads_after_first

    def test_write_back_on_miss(self, run, tmp_path):
        config, result = run
        store = RunStore(tmp_path)
        cache = RunCache(
            duration_s=_DURATION_S, seed=_SEED, store=store
        )
        cache.get(config)
        assert store.counters.writes == 1
        assert store.path_for(config).is_file()
        loaded = RunStore(tmp_path).get(config)
        assert loaded is not None
        _assert_results_identical(result, loaded)
