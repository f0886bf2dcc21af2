"""Lossless serialization of simulation runs for the store.

A :class:`~repro.sim.network.SimulationResult` becomes two parts:

* a JSON-serializable **structure** describing the run — config,
  testbed scalars, and *columnar* descriptors for the transmissions
  and the reception table, and
* a **binary section** of concatenated raw array buffers the
  descriptors point into (offset + byte count + dtype + shape).

Arrays keep their exact dtype and bytes, and scalar floats ride in
typed float64 columns, so the round trip is *bit-for-bit* — which is
what lets a store-backed :class:`~repro.experiments.common.RunCache`
keep the repo's determinism contract: an experiment evaluated on a run
loaded from disk produces byte-identical artifacts to one evaluated on
the freshly simulated run.

The layout is columnar because a run is: its receptions are one
:class:`~repro.sim.network.TraceTable`, and every column is written as
it is (one typed array per flag, and the uint8 payload matrix, one
byte per codeword, since every frame of a run has one length).  A
transmission is its scalars; its on-air symbols are not part of the
run.  A record-per-object encoding would spend most of a warm read
parsing megabytes of JSON; this format parses a few kilobytes of
structure and reslices one buffer into the table, building no
per-reception objects.  Rows store the ``tx_id`` of their
transmission, which is its index in the run.

Neither direction copies the bulk data.  :func:`result_to_chunks`
hands out the binary section as byte views of the run's own arrays
(the store hashes and writes them one by one), and
:func:`result_from_parts` returns the byte-sized arrays — the flags
and the payload matrix — as views into the buffer it is given.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Sequence

import numpy as np

from repro.sim.network import (
    SimulationConfig,
    SimulationResult,
    TraceTable,
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
    """Collects array buffers by reference; hands out JSON descriptors.

    Nothing is copied: each added array contributes a byte view of its
    own (contiguous) buffer, so the binary section is the chunk list,
    written or hashed in add order.
    """

    def __init__(self) -> None:
        self.chunks: list[memoryview] = []
        self._offset = 0

    def add(self, array: np.ndarray) -> dict[str, Any]:
        """Append an array's raw bytes; return its descriptor."""
        raw = memoryview(np.ascontiguousarray(array).reshape(-1).view(np.uint8))
        self.chunks.append(raw)
        self._offset += len(raw)
        return {
            "dtype": array.dtype.str,
            "shape": list(array.shape),
            "offset": self._offset - len(raw),
            "nbytes": len(raw),
        }


class BinaryReader:
    """Reslices a binary section back into arrays by descriptor.

    Arrays are writable views into the section, which a read-only
    buffer is first copied to make writable.  Byte-sized arrays (the
    flag columns and the payload matrix) stay views; wider ones, the
    small typed columns, are copied, because an offset into the
    section need not be aligned for their dtype.
    """

    def __init__(self, buffer: bytes | bytearray | memoryview) -> None:
        view = memoryview(buffer)
        self._buffer = memoryview(bytearray(view)) if view.readonly else view

    def get(self, descriptor: dict[str, Any]) -> np.ndarray:
        """The writable array a descriptor points at."""
        start = int(descriptor["offset"])
        end = start + int(descriptor["nbytes"])
        if end > len(self._buffer):
            raise ValueError(
                f"descriptor reaches byte {end} but the binary "
                f"section holds only {len(self._buffer)}"
            )
        array = np.frombuffer(
            self._buffer[start:end], dtype=np.dtype(descriptor["dtype"])
        ).reshape(tuple(descriptor["shape"]))
        return array.copy() if array.itemsize > 1 else array


def _column(values: list[Any], dtype: str) -> np.ndarray:
    return np.array(values, dtype=np.dtype(dtype))


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
        "seq": writer.add(_column([t.seq for t in transmissions], "<i8")),
        "n_symbols": writer.add(
            _column([t.n_symbols for t in transmissions], "<i8")
        ),
    }


def _transmissions_from_structure(
    data: dict[str, Any], reader: BinaryReader
) -> list[Transmission]:
    tx_id = reader.get(data["tx_id"])
    sender = reader.get(data["sender"])
    dst = reader.get(data["dst"])
    start = reader.get(data["start"])
    seq = reader.get(data["seq"])
    n_symbols = reader.get(data["n_symbols"])
    return [
        Transmission(
            tx_id=int(tx_id[i]),
            sender=int(sender[i]),
            dst=int(dst[i]),
            start=float(start[i]),
            n_symbols=int(n_symbols[i]),
            seq=int(seq[i]),
        )
        for i in range(int(data["count"]))
    ]


_FLAG_COLUMNS = (
    "preamble_detectable",
    "postamble_detectable",
    "trailer_ok",
    "acquired_preamble",
)


def _table_to_structure(
    table: TraceTable,
    transmissions: Sequence[Transmission],
    writer: BinaryWriter,
) -> dict[str, Any]:
    tx_id = _column([t.tx_id for t in transmissions], "<i8")
    structure: dict[str, Any] = {
        "count": len(table),
        "tx_id": writer.add(tx_id[table.tx_index]),
        "receiver": writer.add(table.receiver.astype("<i8")),
    }
    for name in _FLAG_COLUMNS:
        structure[name] = writer.add(getattr(table, name).astype("|b1"))
    structure["payload"] = writer.add(table.payload)
    return structure


def _table_from_structure(
    data: dict[str, Any], reader: BinaryReader, n_transmissions: int
) -> TraceTable:
    tx_id = reader.get(data["tx_id"])
    if tx_id.size and not 0 <= tx_id.min() <= tx_id.max() < n_transmissions:
        raise ValueError(
            f"record tx_id column reaches outside the run's "
            f"{n_transmissions} transmissions"
        )
    return TraceTable(
        tx_index=tx_id,
        receiver=reader.get(data["receiver"]),
        **{name: reader.get(data[name]) for name in _FLAG_COLUMNS},
        payload=reader.get(data["payload"]),
    )


def result_to_parts(result: SimulationResult) -> tuple[dict[str, Any], bytes]:
    """A whole run as (JSON structure, binary section)."""
    structure, chunks = result_to_chunks(result)
    return structure, b"".join(chunks)


def result_to_chunks(
    result: SimulationResult,
) -> tuple[dict[str, Any], list[memoryview]]:
    """A whole run as (JSON structure, binary section as byte views of
    the run's own arrays); the chunks joined are :func:`result_to_parts`'
    binary section."""
    writer = BinaryWriter()
    structure = {
        "config": config_to_dict(result.config),
        "testbed": _testbed_to_structure(result.testbed, writer),
        "transmissions": _transmissions_to_structure(
            result.transmissions, writer
        ),
        "records": _table_to_structure(
            result.table, result.transmissions, writer
        ),
    }
    return structure, writer.chunks


def result_from_parts(
    structure: dict[str, Any], binary: bytes | bytearray | memoryview
) -> SimulationResult:
    """Invert :func:`result_to_parts`, bit-for-bit.

    The arrays are views into ``binary`` where :class:`BinaryReader`
    allows, so a writable buffer is shared, not copied.
    """
    reader = BinaryReader(binary)
    transmissions = _transmissions_from_structure(
        structure["transmissions"], reader
    )
    return SimulationResult(
        config=config_from_dict(structure["config"]),
        testbed=_testbed_from_structure(structure["testbed"], reader),
        transmissions=transmissions,
        table=_table_from_structure(
            structure["records"], reader, len(transmissions)
        ),
    )
