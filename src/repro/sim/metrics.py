"""Trace post-processing: scheme evaluation and hint statistics.

Receptions are recorded once and evaluated under every delivery scheme
(the paper's own method, §7.2).  Every frame of a run has one layout,
so the acquired receptions of a run form one
:class:`~repro.link.schemes.TraceBlock`, read out of the trace table
by :meth:`~repro.sim.network.TraceTable.trace_block`, and each scheme
scores it at once (:meth:`~repro.link.schemes.DeliveryScheme.evaluate_traces`); per-link
totals are bincounts over link ids.  CRC outcomes are evaluated through
their defining property — a CRC-32-protected region verifies iff all of
its symbols decoded correctly (undetected-error probability 2^-32 is
far below anything a simulation of this size can resolve); the real CRC
arithmetic is exercised by the link/ARQ layers and their tests.
:func:`evaluate_schemes_reference` keeps the per-record loop as the
executable specification of :func:`evaluate_schemes`.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from repro.analysis.runs import run_lengths
from repro.link.quality import LinkObservation, LinkStats
from repro.link.schemes import (
    DeliveryResult,
    DeliveryScheme,
    FragmentedCrcScheme,
    PacketCrcScheme,
    PprScheme,
    SpracScheme,
    TraceBlock,
)
from repro.sim.network import WRONG, SimulationResult

_BITS_PER_SYMBOL = 4
# The largest Hamming hint: every chip of a 32-chip codeword wrong.
_MAX_HINT = 32
# Hint statistics walk acquired rows in blocks of at most this many
# bytes of intp payload: one whole-run block cost ~12 MB of peak RSS.
_BLOCK_BYTES = 2 << 20


def trace_deliver(
    scheme: DeliveryScheme,
    correct: np.ndarray,
    hints: np.ndarray,
) -> DeliveryResult:
    """Evaluate a delivery scheme on a recorded payload trace.

    ``correct`` and ``hints`` cover the wire-payload symbols of one
    acquired reception.
    """
    correct = np.asarray(correct, dtype=bool)
    hints = np.asarray(hints, dtype=np.float64)
    if correct.shape != hints.shape:
        raise ValueError("correct and hints must have the same shape")
    try:
        evaluate = scheme.evaluate_traces
    except AttributeError:
        raise TypeError(
            f"{type(scheme).__name__} is not a DeliveryScheme"
        ) from None
    block = TraceBlock(correct.reshape(1, -1), hints.reshape(1, -1))
    outcome = evaluate(block)
    return DeliveryResult(
        scheme=scheme.name,
        payload_bits=block.payload_bits,
        delivered_correct_bits=int(outcome.delivered_correct_bits[0]),
        delivered_incorrect_bits=int(outcome.delivered_incorrect_bits[0]),
        overhead_bits=int(outcome.overhead_bits[0]),
        frame_passed=bool(outcome.frame_passed[0]),
    )


#: LinkObservation counter <- TraceDelivery column it sums
_DELIVERY_COUNTERS = {
    "frames_passed": "frame_passed",
    "delivered_correct_bits": "delivered_correct_bits",
    "delivered_incorrect_bits": "delivered_incorrect_bits",
    "overhead_bits": "overhead_bits",
}


def _score(
    scheme: DeliveryScheme, block: TraceBlock, rows: np.ndarray
) -> dict[str, np.ndarray]:
    """Per-record delivery counters of one scheme (zero where unscored)."""
    columns = {
        name: np.zeros(rows.size, dtype=np.int64) for name in _DELIVERY_COUNTERS
    }
    if rows.any():
        outcome = scheme.evaluate_traces(block)
        for name, column in _DELIVERY_COUNTERS.items():
            columns[name][rows] = getattr(outcome, column)
    return columns


@dataclass
class SchemeEvaluation:
    """Per-link results for one (scheme, postamble mode) variant."""

    scheme: DeliveryScheme
    postamble_enabled: bool
    stats: LinkStats
    duration_s: float

    @property
    def label(self) -> str:
        """Human-readable variant name used by the harness output."""
        post = "postamble" if self.postamble_enabled else "no postamble"
        return f"{self.scheme.name}, {post}"

    def delivery_rates(self) -> list[float]:
        """Per-link equivalent frame delivery rates (§7.2.2)."""
        return self.stats.delivery_rates()

    def throughputs_kbps(self) -> dict[tuple[int, int], float]:
        """Per-link end-to-end goodput in Kbit/s (§7.2.3).

        Scheme checksum overhead is charged by derating delivered bits
        by payload/(payload + overhead) per frame — the airtime a real
        deployment would spend on the extra CRCs.
        """
        out = {}
        for link in self.stats.links():
            obs = self.stats[link]
            if obs.payload_bits_acquired > 0:
                efficiency = obs.payload_bits_acquired / (
                    obs.payload_bits_acquired + obs.overhead_bits
                )
            else:
                efficiency = 1.0
            bits = obs.delivered_correct_bits * efficiency
            out[link] = bits / self.duration_s / 1e3
        return out

    def aggregate_throughput_kbps(self) -> float:
        """Network-wide delivered goodput in Kbit/s."""
        return float(sum(self.throughputs_kbps().values()))


def evaluate_schemes(
    result: SimulationResult,
    schemes: list[DeliveryScheme],
    postamble_options: tuple[bool, ...] = (False, True),
) -> list[SchemeEvaluation]:
    """Evaluate every (scheme, postamble) variant on recorded traces.

    Each scheme scores the receptions acquired in *any* requested mode
    once, as one block; each mode then sums its own acquired rows per
    link.
    """
    table = result.table
    n = len(table)
    senders = np.array([t.sender for t in result.transmissions], dtype=np.int64)
    width = int(table.receiver.max(initial=0)) + 1
    keys, link_ids = np.unique(
        senders[table.tx_index] * width + table.receiver, return_inverse=True
    )
    senders_of, receivers_of = np.divmod(keys, width)
    links = list(
        zip(senders_of.tolist(), receivers_of.tolist(), strict=True)
    )
    acquired = {mode: table.acquired(mode) for mode in postamble_options}
    scored = np.zeros(n, dtype=bool)
    for mask in acquired.values():
        scored |= mask
    block = table.trace_block(scored)
    columns = {scheme: _score(scheme, block, scored) for scheme in schemes}

    def link_sums(mask: np.ndarray, values: np.ndarray | None) -> list[int]:
        sums = np.bincount(
            link_ids[mask],
            weights=None if values is None else values[mask],
            minlength=len(links),
        )
        return sums.astype(np.int64).tolist()

    frames_sent = link_sums(np.ones(n, dtype=bool), None)
    sent = {
        "frames_sent": frames_sent,
        "payload_bits_sent": [f * block.payload_bits for f in frames_sent],
    }
    evaluations = []
    for postamble_enabled in postamble_options:
        mask = acquired[postamble_enabled]
        frames_acquired = link_sums(mask, None)
        received = {
            "frames_acquired": frames_acquired,
            "payload_bits_acquired": [
                f * block.payload_bits for f in frames_acquired
            ],
        }
        for scheme in schemes:
            totals = {
                **sent,
                **received,
                **{
                    name: link_sums(mask, values)
                    for name, values in columns[scheme].items()
                },
            }
            stats = LinkStats()
            for i, link in enumerate(links):
                stats[link] = LinkObservation(
                    **{name: values[i] for name, values in totals.items()}
                )
            evaluations.append(
                SchemeEvaluation(
                    scheme=scheme,
                    postamble_enabled=postamble_enabled,
                    stats=stats,
                    duration_s=result.duration_s,
                )
            )
    return evaluations


def evaluate_schemes_reference(
    result: SimulationResult,
    schemes: list[DeliveryScheme],
    postamble_options: tuple[bool, ...] = (False, True),
) -> list[SchemeEvaluation]:
    """Per-record loop specification of :func:`evaluate_schemes`.

    Walks every record under every variant and dispatches on the scheme
    type; pinned to the columnar evaluator in the equivalence suite.
    """

    def deliver_sprac(
        scheme: SpracScheme, correct: np.ndarray
    ) -> DeliveryResult:
        k = scheme.n_segments
        r = scheme.n_repair
        n_symbols = correct.size
        payload_bits = n_symbols * _BITS_PER_SYMBOL
        if n_symbols == 0:
            return DeliveryResult(
                scheme=scheme.name,
                payload_bits=0,
                delivered_correct_bits=0,
                delivered_incorrect_bits=0,
                overhead_bits=32 * (k + r),
                frame_passed=True,
            )
        bounds = np.linspace(0, n_symbols, k + 1).astype(int)
        data_ok = np.array(
            [
                bool(correct[lo:hi].all())
                for lo, hi in zip(bounds[:-1], bounds[1:], strict=True)
            ],
            dtype=bool,
        )
        repair_sym = -(-n_symbols // k)
        repair_ok = np.zeros(r, dtype=bool)
        for j in range(r):
            window = (
                (k + j) * repair_sym + np.arange(repair_sym)
            ) % n_symbols
            repair_ok[j] = bool(correct[window].all())
        delivered = scheme.codec.recoverable_mask(data_ok, repair_ok)
        delivered_bits = int(
            sum(
                (hi - lo) * _BITS_PER_SYMBOL
                for lo, hi, ok in zip(
                    bounds[:-1], bounds[1:], delivered, strict=True
                )
                if ok
            )
        )
        overhead_bits = 32 * (k + r) + r * repair_sym * _BITS_PER_SYMBOL
        return DeliveryResult(
            scheme=scheme.name,
            payload_bits=payload_bits,
            delivered_correct_bits=delivered_bits,
            delivered_incorrect_bits=0,
            overhead_bits=overhead_bits,
            frame_passed=bool(delivered.all()),
        )

    def deliver(
        scheme: DeliveryScheme, correct: np.ndarray, hints: np.ndarray
    ) -> DeliveryResult:
        n_symbols = correct.size
        payload_bits = n_symbols * _BITS_PER_SYMBOL
        if isinstance(scheme, PprScheme):
            good = hints <= scheme.hint_limit
            return DeliveryResult(
                scheme=scheme.name,
                payload_bits=payload_bits,
                delivered_correct_bits=int((good & correct).sum())
                * _BITS_PER_SYMBOL,
                delivered_incorrect_bits=int((good & ~correct).sum())
                * _BITS_PER_SYMBOL,
                overhead_bits=32,
                frame_passed=bool(correct.all()),
            )
        if isinstance(scheme, FragmentedCrcScheme):
            n = min(scheme.n_fragments, n_symbols) if n_symbols else 1
            bounds = np.linspace(0, n_symbols, n + 1).astype(int)
            delivered = 0
            all_ok = True
            for lo, hi in zip(bounds[:-1], bounds[1:], strict=True):
                if hi > lo and correct[lo:hi].all():
                    delivered += (hi - lo) * _BITS_PER_SYMBOL
                elif hi > lo:
                    all_ok = False
            return DeliveryResult(
                scheme=scheme.name,
                payload_bits=payload_bits,
                delivered_correct_bits=delivered,
                delivered_incorrect_bits=0,
                overhead_bits=32 * n,
                frame_passed=all_ok,
            )
        if isinstance(scheme, PacketCrcScheme):
            passed = bool(correct.all())
            return DeliveryResult(
                scheme=scheme.name,
                payload_bits=payload_bits,
                delivered_correct_bits=payload_bits if passed else 0,
                delivered_incorrect_bits=0,
                overhead_bits=32,
                frame_passed=passed,
            )
        if isinstance(scheme, SpracScheme):
            return deliver_sprac(scheme, correct)
        raise TypeError(
            f"no trace evaluation defined for scheme {type(scheme).__name__}"
        )

    evaluations = []
    for postamble_enabled in postamble_options:
        for scheme in schemes:
            stats = LinkStats()
            for rec in result.records:
                payload_bits = rec.payload.size * _BITS_PER_SYMBOL
                stats[rec.link].record_sent(payload_bits)
                if not rec.acquired(postamble_enabled):
                    continue
                delivery = deliver(
                    scheme, rec.payload_correct(), rec.payload_hints()
                )
                stats[rec.link].record_acquired(delivery)
            evaluations.append(
                SchemeEvaluation(
                    scheme=scheme,
                    postamble_enabled=postamble_enabled,
                    stats=stats,
                    duration_s=result.duration_s,
                )
            )
    return evaluations


# -- SoftPHY hint statistics (paper §7.4) -----------------------------------


def hint_histograms(
    result: SimulationResult,
) -> tuple[np.ndarray, np.ndarray]:
    """Hint histograms over payload codewords of acquired receptions.

    Returns ``(correct_hist, incorrect_hist)`` where index d counts
    payload codewords with Hamming hint d (0 to 32, the chips of a
    codeword) — the raw material of the paper's Figs. 3 and 15.
    """
    # A payload entry is its hint, plus WRONG when it decoded wrong, so
    # one bincount of the entries holds both histograms.
    size = WRONG + _MAX_HINT + 1
    counts = np.zeros(size, dtype=np.int64)
    for rows in _acquired_blocks(result):
        counts += np.bincount(
            result.table.payload[rows].ravel(), minlength=size
        )
    return counts[: _MAX_HINT + 1], counts[WRONG:]


def _acquired_blocks(result: SimulationResult) -> Iterator[np.ndarray]:
    """Indices of the rows acquired with postamble decoding on, in
    blocks whose payload widened to intp stays within
    ``_BLOCK_BYTES``."""
    table = result.table
    rows = np.flatnonzero(table.acquired(True))
    row_bytes = max(table.payload.shape[1], 1) * np.dtype(np.intp).itemsize
    step = max(1, _BLOCK_BYTES // row_bytes)
    for start in range(0, rows.size, step):
        yield rows[start : start + step]


def miss_run_length_counts(
    result: SimulationResult,
    etas: tuple[int, ...],
) -> dict[int, Counter]:
    """Lengths of contiguous miss runs per threshold (paper Fig. 14).

    A *miss* is an incorrect codeword labelled good (hint <= η); runs
    are maximal stretches of consecutive misses within a reception
    acquired with postamble decoding on.
    """
    out: dict[int, Counter] = {eta: Counter() for eta in etas}
    for rows in _acquired_blocks(result):
        block = result.table.trace_block(rows)
        # A False column after each row keeps runs from crossing rows.
        misses = np.zeros((rows.size, block.hints.shape[1] + 1), dtype=bool)
        for eta in etas:
            misses[:, :-1] = (block.hints <= eta) & ~block.correct
            out[eta].update(run_lengths(misses.ravel()))
    return out


def false_alarm_rates(correct_hist: np.ndarray) -> np.ndarray:
    """P(hint > η | correct) for η = 0, 1, ... — the Fig. 15 curve."""
    correct_hist = np.asarray(correct_hist, dtype=np.float64)
    total = correct_hist.sum()
    if total == 0:
        raise ValueError("no correct codewords observed")
    tail = total - np.cumsum(correct_hist)
    return tail / total
