"""Lossless serialization of simulation runs for the store.

A :class:`~repro.sim.network.SimulationResult` becomes two parts:

* a JSON-serializable **structure** describing the run — config,
  testbed scalars, and *columnar* descriptors for the transmissions
  and reception records, and
* a **binary section** of concatenated raw array buffers the
  descriptors point into (offset + byte count + dtype + shape).

Arrays keep their exact dtype and bytes, and scalar floats ride in
typed float64 columns, so the round trip is *bit-for-bit* — which is
what lets a store-backed :class:`~repro.experiments.common.RunCache`
keep the repo's determinism contract: an experiment evaluated on a run
loaded from disk produces byte-identical artifacts to one evaluated on
the freshly simulated run.

The layout is columnar (one typed array per record field, ragged body
arrays concatenated per column) rather than one JSON object per record
because a warm store hit must be *much* cheaper than simulating: a
record-per-object encoding spends most of its read time parsing
megabytes of JSON, while this format parses a few kilobytes of
structure and reslices one buffer.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Sequence

import numpy as np

from repro.sim.network import (
    ReceptionRecord,
    SimulationConfig,
    SimulationResult,
)
from repro.sim.testbed import TestbedConfig
from repro.sim.medium import Transmission


def config_to_dict(config: SimulationConfig) -> dict[str, Any]:
    """The config as plain JSON data."""
    return dataclasses.asdict(config)


def config_from_dict(data: dict[str, Any]) -> SimulationConfig:
    """Rebuild a :class:`SimulationConfig` from :func:`config_to_dict`."""
    return SimulationConfig(**data)


class BinaryWriter:
    """Accumulates array buffers; hands out JSON descriptors."""

    def __init__(self) -> None:
        self._chunks: list[bytes] = []
        self._offset = 0

    def add(self, array: np.ndarray) -> dict[str, Any]:
        """Append an array's raw bytes; return its descriptor."""
        data = np.ascontiguousarray(array)
        raw = data.tobytes()
        descriptor = {
            "dtype": data.dtype.str,
            "shape": list(data.shape),
            "offset": self._offset,
            "nbytes": len(raw),
        }
        self._chunks.append(raw)
        self._offset += len(raw)
        return descriptor

    def blob(self) -> bytes:
        """The binary section: every added buffer, in add order."""
        return b"".join(self._chunks)


class BinaryReader:
    """Reslices a binary section back into arrays by descriptor."""

    def __init__(self, buffer: bytes | memoryview) -> None:
        self._buffer = memoryview(buffer)

    def get(self, descriptor: dict[str, Any]) -> np.ndarray:
        """The (writable, owning) array a descriptor points at."""
        start = int(descriptor["offset"])
        end = start + int(descriptor["nbytes"])
        if end > len(self._buffer):
            raise ValueError(
                f"descriptor reaches byte {end} but the binary "
                f"section holds only {len(self._buffer)}"
            )
        array = np.frombuffer(
            self._buffer[start:end], dtype=np.dtype(descriptor["dtype"])
        )
        return array.reshape(tuple(descriptor["shape"])).copy()


def _column(values: list[Any], dtype: str) -> np.ndarray:
    return np.array(values, dtype=np.dtype(dtype))


def _ragged_to_descriptor(
    arrays: Sequence[np.ndarray], writer: BinaryWriter, what: str
) -> dict[str, Any]:
    """One descriptor for a ragged column of same-dtype 1-D arrays."""
    dtypes = {a.dtype.str for a in arrays}
    if len(dtypes) > 1:
        raise ValueError(
            f"{what} arrays have mixed dtypes {sorted(dtypes)}; a "
            "ragged column must be uniform to round-trip bit-for-bit"
        )
    dtype = dtypes.pop() if dtypes else "|u1"
    if arrays:
        data = np.concatenate([np.ascontiguousarray(a) for a in arrays])
    else:
        data = np.empty(0, dtype=np.dtype(dtype))
    return {
        "data": writer.add(data),
        "lengths": writer.add(
            _column([a.size for a in arrays], "<i8")
        ),
        "dtype": dtype,
    }


def _ragged_from_descriptor(
    descriptor: dict[str, Any],
    reader: BinaryReader,
    widen_to: np.dtype | None = None,
) -> list[np.ndarray]:
    data = reader.get(descriptor["data"])
    if data.dtype != np.dtype(descriptor["dtype"]):
        raise ValueError(
            f"ragged column dtype {descriptor['dtype']!r} does not "
            f"match its data buffer ({data.dtype.str!r})"
        )
    lengths = reader.get(descriptor["lengths"])
    total = int(lengths.sum()) if lengths.size else 0
    if total != data.size:
        raise ValueError(
            f"ragged column lengths sum to {total} but data holds "
            f"{data.size} elements"
        )
    if widen_to is not None:
        data = data.astype(widen_to)
    # Disjoint views of one owning copy: cheap, writable, independent.
    arrays: list[np.ndarray] = []
    start = 0
    for length in lengths:
        end = start + int(length)
        arrays.append(data[start:end])
        start = end
    return arrays


def _testbed_to_structure(
    testbed: TestbedConfig, writer: BinaryWriter
) -> dict[str, Any]:
    return {
        "positions_m": writer.add(testbed.positions_m),
        "sender_ids": [int(v) for v in testbed.sender_ids],
        "receiver_ids": [int(v) for v in testbed.receiver_ids],
        "room_grid": [int(v) for v in testbed.room_grid],
        "area_m": writer.add(_column(list(testbed.area_m), "<f8")),
    }


def _testbed_from_structure(
    data: dict[str, Any], reader: BinaryReader
) -> TestbedConfig:
    area = reader.get(data["area_m"])
    return TestbedConfig(
        positions_m=reader.get(data["positions_m"]),
        sender_ids=tuple(data["sender_ids"]),
        receiver_ids=tuple(data["receiver_ids"]),
        room_grid=(data["room_grid"][0], data["room_grid"][1]),
        area_m=(float(area[0]), float(area[1])),
    )


# On-air symbols are 4-bit nibbles held as int64; one byte each on disk
# is an eighth of what a warm read must checksum and copy.  The two
# functions below are the only places that know this.
def _symbols_to_descriptor(
    transmissions: Sequence[Transmission], writer: BinaryWriter
) -> dict[str, Any]:
    arrays = [t.symbols for t in transmissions]
    if any(a.dtype != np.int64 or (a >> 4).any() for a in arrays):
        raise ValueError("transmission symbols must be int64 nibbles")
    return _ragged_to_descriptor(
        [a.astype(np.uint8) for a in arrays], writer, "symbols"
    )


def _symbols_from_descriptor(
    descriptor: dict[str, Any], reader: BinaryReader
) -> list[np.ndarray]:
    return _ragged_from_descriptor(
        descriptor, reader, widen_to=np.dtype(np.int64)
    )


def _transmissions_to_structure(
    transmissions: Sequence[Transmission], writer: BinaryWriter
) -> dict[str, Any]:
    return {
        "count": len(transmissions),
        "tx_id": writer.add(
            _column([t.tx_id for t in transmissions], "<i8")
        ),
        "sender": writer.add(
            _column([t.sender for t in transmissions], "<i8")
        ),
        "dst": writer.add(_column([t.dst for t in transmissions], "<i8")),
        "start": writer.add(
            _column([t.start for t in transmissions], "<f8")
        ),
        "symbol_period": writer.add(
            _column([t.symbol_period for t in transmissions], "<f8")
        ),
        "seq": writer.add(_column([t.seq for t in transmissions], "<i8")),
        "symbols": _symbols_to_descriptor(transmissions, writer),
    }


def _transmissions_from_structure(
    data: dict[str, Any], reader: BinaryReader
) -> list[Transmission]:
    tx_id = reader.get(data["tx_id"])
    sender = reader.get(data["sender"])
    dst = reader.get(data["dst"])
    start = reader.get(data["start"])
    symbol_period = reader.get(data["symbol_period"])
    seq = reader.get(data["seq"])
    symbols = _symbols_from_descriptor(data["symbols"], reader)
    if len(symbols) != int(data["count"]):
        raise ValueError(
            f"symbols holds {len(symbols)} arrays for "
            f"{data['count']} transmissions"
        )
    return [
        Transmission(
            tx_id=int(tx_id[i]),
            sender=int(sender[i]),
            dst=int(dst[i]),
            start=float(start[i]),
            symbols=syms,
            symbol_period=float(symbol_period[i]),
            seq=int(seq[i]),
        )
        for i, syms in enumerate(symbols)
    ]


_RECORD_INT_COLUMNS = ("tx_id", "sender", "receiver", "payload_start", "payload_end")
_RECORD_BOOL_COLUMNS = (
    "preamble_detectable",
    "header_ok",
    "postamble_detectable",
    "trailer_ok",
    "acquired_preamble",
)
_RECORD_BODY_COLUMNS = ("body_symbols", "body_hints", "body_truth")


def _records_to_structure(
    records: Sequence[ReceptionRecord], writer: BinaryWriter
) -> dict[str, Any]:
    structure: dict[str, Any] = {"count": len(records)}
    for name in _RECORD_INT_COLUMNS:
        structure[name] = writer.add(
            _column([getattr(r, name) for r in records], "<i8")
        )
    for name in _RECORD_BOOL_COLUMNS:
        structure[name] = writer.add(
            _column([getattr(r, name) for r in records], "|b1")
        )
    structure["start"] = writer.add(
        _column([r.start for r in records], "<f8")
    )
    for name in _RECORD_BODY_COLUMNS:
        structure[name] = _ragged_to_descriptor(
            [getattr(r, name) for r in records], writer, name
        )
    return structure


def _records_from_structure(
    data: dict[str, Any], reader: BinaryReader
) -> list[ReceptionRecord]:
    count = int(data["count"])
    ints = {
        name: reader.get(data[name]) for name in _RECORD_INT_COLUMNS
    }
    bools = {
        name: reader.get(data[name]) for name in _RECORD_BOOL_COLUMNS
    }
    start = reader.get(data["start"])
    bodies = {
        name: list(_ragged_from_descriptor(data[name], reader))
        for name in _RECORD_BODY_COLUMNS
    }
    for name, arrays in bodies.items():
        if len(arrays) != count:
            raise ValueError(
                f"{name} holds {len(arrays)} arrays for {count} records"
            )
    return [
        ReceptionRecord(
            tx_id=int(ints["tx_id"][i]),
            sender=int(ints["sender"][i]),
            receiver=int(ints["receiver"][i]),
            start=float(start[i]),
            preamble_detectable=bool(bools["preamble_detectable"][i]),
            header_ok=bool(bools["header_ok"][i]),
            postamble_detectable=bool(bools["postamble_detectable"][i]),
            trailer_ok=bool(bools["trailer_ok"][i]),
            acquired_preamble=bool(bools["acquired_preamble"][i]),
            body_symbols=bodies["body_symbols"][i],
            body_hints=bodies["body_hints"][i],
            body_truth=bodies["body_truth"][i],
            payload_start=int(ints["payload_start"][i]),
            payload_end=int(ints["payload_end"][i]),
        )
        for i in range(count)
    ]


def result_to_parts(result: SimulationResult) -> tuple[dict[str, Any], bytes]:
    """A whole run as (JSON structure, binary section)."""
    writer = BinaryWriter()
    structure = {
        "config": config_to_dict(result.config),
        "testbed": _testbed_to_structure(result.testbed, writer),
        "transmissions": _transmissions_to_structure(
            result.transmissions, writer
        ),
        "records": _records_to_structure(result.records, writer),
    }
    return structure, writer.blob()


def result_from_parts(
    structure: dict[str, Any], binary: bytes | memoryview
) -> SimulationResult:
    """Invert :func:`result_to_parts`, bit-for-bit."""
    reader = BinaryReader(binary)
    return SimulationResult(
        config=config_from_dict(structure["config"]),
        testbed=_testbed_from_structure(structure["testbed"], reader),
        transmissions=_transmissions_from_structure(
            structure["transmissions"], reader
        ),
        records=_records_from_structure(structure["records"], reader),
    )
