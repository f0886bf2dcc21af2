"""Delivery schemes: packet CRC, fragmented CRC, and PPR (paper §7.2).

Each scheme answers two questions:

1. *What goes on the air?* — every scheme charges its checksum and
   repair overhead per reception (``overhead_bits`` of
   ``evaluate_traces``); the fragmented-CRC scheme also states it in
   bytes (``wire_overhead_bytes``), which the chunk-count study derates
   goodput by.  The packet-CRC and PPR schemes, whose wire-level spec
   the tests pin, also build the wire payload from application bytes
   (``encode_payload``: the payload and its CRC-32).
2. *What reaches the higher layer?* — ``evaluate_traces`` (below)
   reports exactly which payload bits were handed up, split into
   genuinely-correct and incorrect bits.  The packet-CRC and PPR
   schemes also answer it from bytes: ``deliver`` consumes the decoded
   wire-payload region of a reception as a
   :class:`~repro.phy.symbols.SoftPacket` (symbols + SoftPHY hints +
   simulation ground truth) and runs the real CRC arithmetic, the
   wire-level spec the trace evaluator is pinned against.

The three schemes mirror the paper:

* :class:`PacketCrcScheme` — one CRC-32 over the payload; all-or-nothing.
* :class:`FragmentedCrcScheme` — a CRC-32 per fragment (§3.4);
  fragments pass or fail independently.
* :class:`PprScheme` — SoftPHY threshold rule: deliver the bits of
  every codeword whose hint is at most η (§7.2: "PPR delivers exactly
  those bits in the packet whose codewords had a Hamming distance less
  than η. Here we choose η = 6.").

Beyond the paper, :class:`SpracScheme` adds the S-PRAC contender
(PAPERS.md): fragmented CRCs plus random-linear-network-coded repair
segments, the very-noisy-channel scheme the coded-recovery experiment
pits against the paper's three.

Each scheme also evaluates itself on *recorded traces*
(``evaluate_traces``): a :class:`TraceBlock` holds the wire-payload
correctness and hints of many equal-length receptions, and the scheme
returns per-row :class:`TraceDelivery` columns.  CRC outcomes are taken
through their defining property — a CRC-32-protected region verifies
iff all of its symbols decoded correctly — which is what lets
:func:`repro.sim.metrics.evaluate_schemes` score every scheme on the
same traces (paper §7.2) without re-encoding bytes.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass

import numpy as np

from repro.arq.runlength import PAPER_ETA
from repro.coding.rlnc import SegmentedRlncCodec
from repro.phy.symbols import SoftPacket
from repro.utils.crc import CRC32_IEEE

_BITS_PER_SYMBOL = 4
_SYMBOLS_PER_BYTE = 2
_CRC_BYTES = 4


@dataclass(frozen=True)
class DeliveryResult:
    """Accounting for one reception under one scheme.

    All counts are *application payload* bits (checksum overhead is
    excluded from delivery but reported separately).
    """

    scheme: str
    payload_bits: int
    delivered_correct_bits: int
    delivered_incorrect_bits: int
    overhead_bits: int
    frame_passed: bool


@dataclass(frozen=True)
class TraceBlock:
    """Recorded wire-payload traces of equal length, one row each.

    ``correct`` is the ``(m, L)`` ground-truth correctness of every
    wire-payload symbol and ``hints`` the matching ``(m, L)`` SoftPHY
    hints of ``m`` acquired receptions.
    """

    correct: np.ndarray
    hints: np.ndarray

    def __post_init__(self) -> None:
        if self.correct.ndim != 2 or self.correct.shape != self.hints.shape:
            raise ValueError(
                "correct and hints must be 2-D arrays of one shape"
            )

    @property
    def n_symbols(self) -> int:
        """Wire-payload symbols per row (L)."""
        return int(self.correct.shape[1])

    @property
    def payload_bits(self) -> int:
        """Payload bits per row."""
        return self.n_symbols * _BITS_PER_SYMBOL


@dataclass(frozen=True)
class TraceDelivery:
    """Per-row outcome of one scheme on a :class:`TraceBlock`.

    Each field is an ``(m,)`` column: the trace analogue of
    :class:`DeliveryResult` for every row at once.
    """

    delivered_correct_bits: np.ndarray
    delivered_incorrect_bits: np.ndarray
    overhead_bits: np.ndarray
    frame_passed: np.ndarray

    @classmethod
    def of(
        cls,
        frame_passed: np.ndarray,
        delivered_correct_bits: np.ndarray | int,
        overhead_bits: int,
        delivered_incorrect_bits: np.ndarray | int = 0,
    ) -> TraceDelivery:
        """Columns shaped like ``frame_passed``; scalars broadcast."""
        rows = frame_passed.shape

        def column(value: np.ndarray | int) -> np.ndarray:
            return np.broadcast_to(np.asarray(value, dtype=np.int64), rows)

        return cls(
            delivered_correct_bits=column(delivered_correct_bits),
            delivered_incorrect_bits=column(delivered_incorrect_bits),
            overhead_bits=column(overhead_bits),
            frame_passed=frame_passed,
        )


def _segments_ok(correct: np.ndarray, bounds: np.ndarray) -> np.ndarray:
    """``(m, n)``: row ``i`` decoded ``[bounds[j], bounds[j+1])`` intact.

    An empty segment counts as intact, like ``all()`` of nothing.
    """
    empty = bounds[1:] == bounds[:-1]
    if correct.shape[1] == 0:
        return np.ones((correct.shape[0], empty.size), dtype=bool)
    ok = np.logical_and.reduceat(correct, bounds[:-1], axis=1)
    ok[:, empty] = True
    return ok


class DeliveryScheme(ABC):
    """Common interface of the three §7.2 delivery schemes."""

    name: str = "abstract"

    def deliver(self, rx: SoftPacket) -> DeliveryResult:
        """Decide which payload bits of one decoded reception reach the
        higher layer, from its bytes.  Only the packet-CRC and PPR
        schemes define it: the trace evaluator is pinned against them.
        """
        raise TypeError(
            f"no wire-level delivery defined for scheme {type(self).__name__}"
        )

    @abstractmethod
    def evaluate_traces(self, block: TraceBlock) -> TraceDelivery:
        """Score every row of a recorded-trace block under this scheme."""

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"


class PacketCrcScheme(DeliveryScheme):
    """Status quo: one CRC-32 over the whole payload, all-or-nothing."""

    name = "packet_crc"

    def encode_payload(self, payload: bytes) -> bytes:
        """Application payload -> wire payload: the payload and its
        CRC-32."""
        return payload + CRC32_IEEE.compute_bytes(payload)

    def deliver(self, rx: SoftPacket) -> DeliveryResult:
        wire = rx.payload_bytes()
        if len(wire) < _CRC_BYTES:
            raise ValueError("wire payload shorter than its CRC")
        payload, crc_field = wire[:-_CRC_BYTES], wire[-_CRC_BYTES:]
        passed = CRC32_IEEE.compute_bytes(payload) == crc_field
        payload_bits = 8 * len(payload)
        if not passed:
            return DeliveryResult(
                scheme=self.name,
                payload_bits=payload_bits,
                delivered_correct_bits=0,
                delivered_incorrect_bits=0,
                overhead_bits=8 * _CRC_BYTES,
                frame_passed=False,
            )
        # CRC passed: with a 32-bit CRC the chance of an undetected
        # error is negligible; account delivered bits against truth
        # anyway so a (vanishingly rare) collision shows up as errors.
        correct = rx.correct_mask()[: _SYMBOLS_PER_BYTE * len(payload)]
        correct_bits = int(correct.sum()) * _BITS_PER_SYMBOL
        return DeliveryResult(
            scheme=self.name,
            payload_bits=payload_bits,
            delivered_correct_bits=correct_bits,
            delivered_incorrect_bits=payload_bits - correct_bits,
            overhead_bits=8 * _CRC_BYTES,
            frame_passed=True,
        )

    def evaluate_traces(self, block: TraceBlock) -> TraceDelivery:
        passed = block.correct.all(axis=1)
        return TraceDelivery.of(
            frame_passed=passed,
            delivered_correct_bits=np.where(passed, block.payload_bits, 0),
            overhead_bits=8 * _CRC_BYTES,
        )


class FragmentedCrcScheme(DeliveryScheme):
    """Per-fragment CRC-32s (paper §3.4, Fig. 4).

    The payload is cut into ``n_fragments`` nearly-equal pieces, each
    followed by its own CRC-32.  Fragments deliver independently.
    """

    name = "fragmented_crc"

    def __init__(self, n_fragments: int = 30) -> None:
        if n_fragments < 1:
            raise ValueError(
                f"n_fragments must be >= 1, got {n_fragments}"
            )
        self.n_fragments = int(n_fragments)

    def __repr__(self) -> str:
        return f"FragmentedCrcScheme(n_fragments={self.n_fragments})"

    def _fragments(self, n_symbols: int) -> int:
        """Fragments of an ``n_symbols``-symbol payload: one per symbol
        at most, and one for an empty payload."""
        return min(self.n_fragments, n_symbols) if n_symbols else 1

    def wire_overhead_bytes(self, payload_len: int) -> int:
        """Checksum bytes added to a payload of the given length."""
        return _CRC_BYTES * self._fragments(_SYMBOLS_PER_BYTE * payload_len)

    def evaluate_traces(self, block: TraceBlock) -> TraceDelivery:
        # Fragments of the traced payload region itself (the trace
        # carries no interleaved CRC fields).
        n_symbols = block.n_symbols
        n = self._fragments(n_symbols)
        bounds = np.linspace(0, n_symbols, n + 1).astype(int)
        ok = _segments_ok(block.correct, bounds)
        return TraceDelivery.of(
            frame_passed=ok.all(axis=1),
            delivered_correct_bits=(ok @ np.diff(bounds)) * _BITS_PER_SYMBOL,
            overhead_bits=8 * _CRC_BYTES * n,
        )


class PprScheme(DeliveryScheme):
    """PPR delivery: the SoftPHY threshold rule (paper §3.2, §7.2).

    The wire format matches :class:`PacketCrcScheme` (PPR needs no
    extra on-air redundancy); delivery hands up the bits of every
    codeword whose hint is at most ``eta``.
    """

    name = "ppr"

    def __init__(self, eta: float = PAPER_ETA) -> None:
        if eta < 0:
            raise ValueError(f"eta must be non-negative, got {eta}")
        self.eta = float(eta)

    def __repr__(self) -> str:
        return f"PprScheme(eta={self.eta})"

    def encode_payload(self, payload: bytes) -> bytes:
        return payload + CRC32_IEEE.compute_bytes(payload)

    def deliver(self, rx: SoftPacket) -> DeliveryResult:
        wire = rx.payload_bytes()
        if len(wire) < _CRC_BYTES:
            raise ValueError("wire payload shorter than its CRC")
        payload_len = len(wire) - _CRC_BYTES
        payload_bits = 8 * payload_len
        n_payload_syms = _SYMBOLS_PER_BYTE * payload_len
        good = rx.hints[:n_payload_syms] <= self.eta
        correct = rx.correct_mask()[:n_payload_syms]
        delivered_correct = int((good & correct).sum()) * _BITS_PER_SYMBOL
        delivered_incorrect = int((good & ~correct).sum()) * _BITS_PER_SYMBOL
        passed = (
            CRC32_IEEE.compute_bytes(wire[:payload_len])
            == wire[payload_len:]
        )
        return DeliveryResult(
            scheme=self.name,
            payload_bits=payload_bits,
            delivered_correct_bits=delivered_correct,
            delivered_incorrect_bits=delivered_incorrect,
            overhead_bits=8 * _CRC_BYTES,
            frame_passed=passed,
        )

    def evaluate_traces(self, block: TraceBlock) -> TraceDelivery:
        good = block.hints <= self.eta
        n_good = good.sum(axis=1)
        good &= block.correct
        n_good_correct = good.sum(axis=1)
        return TraceDelivery.of(
            frame_passed=block.correct.all(axis=1),
            delivered_correct_bits=n_good_correct * _BITS_PER_SYMBOL,
            delivered_incorrect_bits=(n_good - n_good_correct)
            * _BITS_PER_SYMBOL,
            overhead_bits=8 * _CRC_BYTES,
        )


class SicScheme(PprScheme):
    """PPR delivery over SIC-recovered receptions (paper §6).

    The wire format and the SoftPHY threshold rule are exactly
    :class:`PprScheme` — what changes is *upstream*: receptions handed
    to this scheme have been through successive interference
    cancellation (:class:`~repro.recovery.sic.SicDecoder` on a
    waveform capture), so a collided frame arrives with its
    interferer's reconstruction already subtracted.  Keeping delivery
    identical isolates the collision-recovery
    gain: any metric difference between ``ppr`` and ``sic`` traces is
    attributable to cancellation alone.
    """

    name = "sic"

    def __repr__(self) -> str:
        return f"SicScheme(eta={self.eta})"


class SpracScheme(DeliveryScheme):
    """Segmented RLNC delivery (S-PRAC, PAPERS.md) — beyond the paper.

    The wire format is the fragmented-CRC baseline *plus* coded
    repair: ``n_segments`` CRC-32-protected data segments followed by
    ``n_repair`` CRC-32-protected random linear combinations of them
    (:class:`repro.coding.rlnc.SegmentedRlncCodec`).  Delivery keeps
    every segment whose CRC verifies plus every erased segment the
    surviving repair equations pin down — in very noisy channels the
    repair overhead buys back far more than the fragments alone
    deliver.  The scheme is scored on recorded traces only
    (:meth:`evaluate_traces`); no wire bytes are built.
    """

    name = "sprac"

    def __init__(
        self,
        n_segments: int = 30,
        n_repair: int | None = None,
    ) -> None:
        if n_repair is None:
            n_repair = max(1, -(-n_segments // 4))
        self.codec = SegmentedRlncCodec(
            n_segments=n_segments,
            n_repair=n_repair,
        )

    @property
    def n_segments(self) -> int:
        """Data segment count k."""
        return self.codec.n_segments

    @property
    def n_repair(self) -> int:
        """Coded repair segment count r."""
        return self.codec.n_repair

    def __repr__(self) -> str:
        return (
            f"SpracScheme(n_segments={self.n_segments}, "
            f"n_repair={self.n_repair})"
        )

    def evaluate_traces(self, block: TraceBlock) -> TraceDelivery:
        """S-PRAC on recorded traces: segment erasures + coded recovery.

        Data segments follow the fragmented-CRC convention (a segment
        verifies iff all of its symbols decoded correctly).  The traced
        region carries no repair symbols, so each repair segment's
        channel outcome is modelled by a *wrap-around window* of the
        same trace: repair ``j`` (as long as the largest data segment)
        survives iff the symbols in its cyclic window all decoded
        correctly — the same error process, burstiness included,
        extended past the recorded region.  Recovery then follows the
        real coefficient matrices:
        :meth:`~repro.coding.rlnc.SegmentedRlncCodec.recoverable_mask`
        resolves every distinct erasure pattern of the block in one
        batched GF elimination, deciding which erased segments the
        surviving equations pin down (a recovered segment is exact by
        construction).  Only rows holding a wrong codeword have
        erasures; every other row delivers each segment.  Repair
        airtime and every CRC are charged as overhead.
        """
        k, r = self.n_segments, self.n_repair
        n_symbols = block.n_symbols
        if n_symbols == 0:
            return TraceDelivery.of(
                frame_passed=np.ones(block.correct.shape[0], dtype=bool),
                delivered_correct_bits=0,
                overhead_bits=8 * _CRC_BYTES * (k + r),
            )
        bounds = np.linspace(0, n_symbols, k + 1).astype(int)
        repair_sym = -(-n_symbols // k)
        windows = (
            (k + np.arange(r)[:, None]) * repair_sym + np.arange(repair_sym)
        ) % n_symbols
        erred = ~block.correct.all(axis=1)
        correct = block.correct[erred]
        patterns = np.concatenate(
            [_segments_ok(correct, bounds), correct[:, windows].all(axis=2)],
            axis=1,
        )
        # Distinct patterns by their packed bytes: one 1-D sort.
        keys = np.packbits(patterns, axis=1)
        keys = keys.view(f"V{keys.shape[1]}").ravel()
        _, first, inverse = np.unique(
            keys, return_index=True, return_inverse=True
        )
        distinct = patterns[first]
        delivered = np.ones((block.correct.shape[0], k), dtype=bool)
        delivered[erred] = self.codec.recoverable_mask(
            distinct[:, :k], distinct[:, k:]
        )[inverse]
        return TraceDelivery.of(
            frame_passed=delivered.all(axis=1),
            delivered_correct_bits=(delivered @ np.diff(bounds))
            * _BITS_PER_SYMBOL,
            overhead_bits=8 * _CRC_BYTES * (k + r)
            + r * repair_sym * _BITS_PER_SYMBOL,
        )


def default_schemes(eta: float = PAPER_ETA) -> list[DeliveryScheme]:
    """The paper's three contenders with its §7.2 parameters (30
    fragments, and η = 6 unless ``eta`` says otherwise)."""
    return [PacketCrcScheme(), FragmentedCrcScheme(), PprScheme(eta=eta)]
