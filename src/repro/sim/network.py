"""Network simulation: traffic + MAC + medium + chip-level reception.

Runs the event-driven sender side (Poisson traffic through CSMA onto
the shared medium), then post-processes every (transmission, receiver)
pair into a row of the run's :class:`TraceTable`: the on-air symbols
are pushed through the chip-level channel at the pair's per-symbol
SINR and decoded with the shared PHY core, producing genuine SoftPHY
hints.  A row keeps the flags acquisition needs and what SoftPHY hands
up over the wire payload, one byte per codeword.  The sync fields and
the trailer cross the channel first; the payload crosses only for the
frames some PHY mode acquires, so a frame no receiver synchronises on
keeps an all-zero payload row.

Acquisition model (paper §4, §7.2.2):

* **Preamble path** — receptions are scanned in arrival order; an idle
  receiver that can decode a preamble (sync chip error rate below the
  correlator threshold) locks onto the frame until it ends.  Preambles
  arriving during a lock are missed — the "missed opportunity to
  synchronize" the paper attributes status-quo losses to.
* **Postamble path** — any reception whose postamble detects and whose
  trailer CRC verifies can be recovered from the rollback buffer,
  locked receiver or not.

The test-pattern payloads let every scheme be evaluated on the same
recorded traces, mirroring the paper's trace post-processing method.
"""

from __future__ import annotations

import heapq
from collections.abc import Iterator, Sequence
from dataclasses import dataclass, field, fields
from typing import Any

import numpy as np

from repro.link.frame import (
    PprFrame,
    body_symbol_count,
    header_rows_ok,
    payload_slice,
)
from repro.link.schemes import TraceBlock
from repro.phy.batch import BatchReceptionEngine
from repro.phy.chipchannel import (
    chip_error_probability_interference,
    transmit_chipwords_batch,
)
from repro.phy.codebook import ZigbeeCodebook
from repro.phy.modulation import SYMBOL_PERIOD_S
from repro.phy.sync import SYNC_ERROR_THRESHOLD, SYNC_SYMBOLS
from repro.sim.core import EventScheduler
from repro.sim.mac import CsmaConfig, CsmaMac
from repro.sim.medium import PathLossModel, RadioMedium, Transmission
from repro.sim.testbed import TestbedConfig, paper_testbed, wall_count_matrix
from repro.sim.traffic import PoissonSource
from repro.utils.bitops import popcount32
from repro.utils.rng import derive_key, derive_rng

# Flip probabilities at or below this are treated as "the channel
# passes the word through verbatim".
_HOT_PROB = 1e-12

# Hot codewords per receive block: bounds the transient arrays of
# NetworkSimulation._receive (the channel's (words, 32) flip matrix
# among them) to a few MB however heavy the run.  Blocks hold whole
# pairs, so the bound cannot change results.
_RECEIVE_BLOCK_WORDS = 1 << 16

# A payload entry: the Hamming hint (0 to 32) in the low six bits, and
# WRONG set when the codeword decoded to a symbol other than the one
# sent.  TraceTable.trace_block and metrics.hint_histograms read it.
WRONG = 64
_HINT_BITS = WRONG - 1


@dataclass(frozen=True)
class SimulationConfig:
    """Parameters of one testbed run.

    Defaults follow the paper's setup: 1500-byte emulated packets
    (§7.2) and the offered loads set per experiment (3.5 / 6.9 / 13.8
    Kbit/s/node).  The radio's fixed parameters are constants: the
    16 µs codeword time (§7.3 footnote 6, ``SYMBOL_PERIOD_S``), the
    correlator's ``SYNC_ERROR_THRESHOLD`` and the ``TX_POWER_DBM`` of
    every node.

    The dataclass is frozen and every field is hashable, so a config
    *is* the identity of its run: the experiment layer's ``RunCache``
    keys cached :class:`SimulationResult`s on the full config, and two
    configs differing in any field (seed, duration, payload, ...) can
    never alias to the same cache entry.
    """

    load_bits_per_s_per_node: float = 3500.0
    payload_bytes: int = 1500
    duration_s: float = 30.0
    carrier_sense: bool = True
    seed: int = 0
    min_rx_snr_db: float = 0.0
    noise_floor_dbm: float = -95.0
    wall_loss_db: float = 9.0
    fading_sigma_db: float = 3.0

    def __post_init__(self) -> None:
        if self.load_bits_per_s_per_node <= 0:
            raise ValueError("offered load must be positive")
        if self.payload_bytes <= 0:
            raise ValueError("payload_bytes must be positive")
        if self.duration_s <= 0:
            raise ValueError("duration_s must be positive")
        # A NaN or infinite radio level runs to completion with garbage
        # (a NaN SNR reads as a chip error probability of 0.5).
        for name in (
            "min_rx_snr_db",
            "noise_floor_dbm",
            "wall_loss_db",
            "fading_sigma_db",
        ):
            value = getattr(self, name)
            if not np.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")


@dataclass(eq=False)
class TraceTable:
    """Every reception of a run, one row per (transmission, receiver) pair.

    Row ``k`` is the reception of ``transmissions[tx_index[k]]`` at
    ``receiver[k]``: its four acquisition flags and its wire payload as
    SoftPHY hands it up, one row of the ``(n, L)`` uint8 ``payload``
    matrix.  Each entry packs a codeword's Hamming hint with whether
    it decoded wrong; :meth:`trace_block` unpacks them.  The payload
    is simulated only for rows :meth:`acquired` accepts in some PHY
    mode (``acquired(True)``); a row no mode acquires is never read
    and holds 0 throughout.  Every frame of a run has one layout, so
    the payloads share one width, and a table without rows keeps it.
    Rows are in transmission-major, receiver-minor order.
    """

    tx_index: np.ndarray
    receiver: np.ndarray
    preamble_detectable: np.ndarray
    postamble_detectable: np.ndarray
    trailer_ok: np.ndarray
    acquired_preamble: np.ndarray
    payload: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        n = self.tx_index.size
        for name in _COLUMNS:
            shape = getattr(self, name).shape
            ndim = 2 if name == "payload" else 1
            if len(shape) != ndim or shape[0] != n:
                raise ValueError(f"{name} has shape {shape}, not {n} rows")

    def __len__(self) -> int:
        return self.tx_index.size

    def trace_block(self, rows: np.ndarray | slice) -> TraceBlock:
        """The payload of ``rows`` (a mask, indices or a slice) as
        per-codeword correctness and Hamming hints."""
        entries = self.payload[rows]
        return TraceBlock((entries & WRONG) == 0, entries & _HINT_BITS)

    def acquired(self, postamble_enabled: bool) -> np.ndarray:
        """Per-row acquisition under the given PHY mode."""
        return self.acquired_preamble | (
            postamble_enabled & self.postamble_detectable & self.trailer_ok
        )


_COLUMNS = tuple(f.name for f in fields(TraceTable))


@dataclass
class SimulationResult:
    """Everything a run produced: transmissions, receptions, geometry."""

    config: SimulationConfig
    testbed: TestbedConfig
    transmissions: list[Transmission]
    table: TraceTable

    @property
    def duration_s(self) -> float:
        """Configured run length in seconds."""
        return self.config.duration_s

    @property
    def records(self) -> list[ReceptionRecord]:
        """One row view per reception, in table order."""
        return [ReceptionRecord(self, row) for row in range(len(self.table))]


class ReceptionRecord:
    """One (transmission, receiver) pair: a view of a table row.

    The table's columns read as attributes (``receiver``, the flags,
    and the ``payload`` row); sender and timing come from ``tx``.
    """

    __slots__ = ("_result", "_row")

    def __init__(self, result: SimulationResult, row: int) -> None:
        self._result = result
        self._row = row

    def __getattr__(self, name: str) -> Any:
        if name not in _COLUMNS:
            raise AttributeError(name)
        value = getattr(self._result.table, name)[self._row]
        return value if isinstance(value, np.ndarray) else value.item()

    @property
    def tx(self) -> Transmission:
        """The transmission this pair received."""
        return self._result.transmissions[self.tx_index]

    @property
    def link(self) -> tuple[int, int]:
        """Directed (sender, receiver) pair."""
        return (self.tx.sender, self.receiver)

    def acquired(self, postamble_enabled: bool) -> bool:
        """Whether this reception is acquired under the given PHY mode."""
        if self.acquired_preamble:
            return True
        return (
            postamble_enabled
            and self.postamble_detectable
            and self.trailer_ok
        )

    def payload_hints(self) -> np.ndarray:
        """SoftPHY hints over the wire-payload symbols."""
        return self._trace().hints[0].astype(np.float64)

    def payload_correct(self) -> np.ndarray:
        """Ground-truth correctness of the wire-payload symbols."""
        return self._trace().correct[0]

    def _trace(self) -> TraceBlock:
        return self._result.table.trace_block(slice(self._row, self._row + 1))


@dataclass(frozen=True)
class HotCodewords:
    """Every audible pair's codewords the channel may corrupt, as runs.

    Pair ``k`` is ``(transmissions[tx_index[k]], receiver[k])``, in
    transmission-major, receiver-minor order.  Run ``r`` is
    ``length[r]`` consecutive codewords of pair ``pair[r]`` from
    ``start[r]`` on, all at chip flip probability ``prob[r]``.  Runs
    are sorted by pair and, within a pair, by start, and never
    overlap; a pair may have none.  A run is one interference segment
    of the pair, so the heaviest quick point's 2.05M hot codewords
    take 2,610 runs.
    """

    tx_index: np.ndarray
    receiver: np.ndarray
    pair: np.ndarray
    start: np.ndarray
    length: np.ndarray
    prob: np.ndarray

    def words(
        self, lo: int = 0, hi: int | None = None
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Pairs ``lo:hi``'s runs expanded to one entry per codeword.

        Returns ``(pair, index, prob)``: each hot codeword's pair, its
        index in the transmission's on-air symbols (ascending within a
        pair) and its chip flip probability.
        """
        hi = self.tx_index.size if hi is None else hi
        first, last = np.searchsorted(self.pair, [lo, hi])
        length = self.length[first:last]
        return (
            np.repeat(self.pair[first:last], length),
            _ragged_arange(self.start[first:last], length),
            np.repeat(self.prob[first:last], length),
        )

    def before(self, index: int) -> np.ndarray:
        """Each pair's hot codewords at on-air indices below ``index``:
        how far into its keyed stream the draws for ``index`` start."""
        inside = np.clip(index - self.start, 0, self.length)
        return np.bincount(
            self.pair, weights=inside, minlength=self.tx_index.size
        ).astype(np.int64)

    def within(
        self, rows: np.ndarray, spans: Sequence[tuple[int, int]]
    ) -> HotCodewords:
        """The runs of pairs ``rows`` (ascending) cut to on-air spans.

        ``spans`` are ascending, disjoint ``[lo, hi)`` index ranges.
        The result has ``rows.size`` pairs, pair ``k`` being pair
        ``rows[k]`` here, and keeps the run order.
        """
        slot = np.full(self.tx_index.size, -1, dtype=np.int64)
        slot[rows] = np.arange(rows.size)
        owner = slot[self.pair]
        end = self.start + self.length
        parts = []
        for lo, hi in spans:
            first = np.maximum(self.start, lo)
            last = np.minimum(end, hi)
            keep = (owner >= 0) & (last > first)
            parts.append(
                (owner[keep], first[keep], (last - first)[keep], self.prob[keep])
            )
        pair, start, length, prob = (np.concatenate(c) for c in zip(*parts))
        order = np.lexsort((start, pair))
        return HotCodewords(
            tx_index=self.tx_index[rows],
            receiver=self.receiver[rows],
            pair=pair[order],
            start=start[order],
            length=length[order],
            prob=prob[order],
        )


def _ragged_arange(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """``concatenate([arange(s, s + n) for s, n in zip(starts, lengths)])``."""
    ends = np.cumsum(lengths)
    return np.repeat(starts - (ends - lengths), lengths) + np.arange(
        ends[-1] if ends.size else 0
    )


def _overlap_csr(
    starts: np.ndarray, ends: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Airtime overlaps as CSR: ``others[ptr[i]:ptr[i + 1]]`` for ``i``.

    Transmissions are in start order, so a searchsorted over the start
    times bounds each candidate window, widened on the left by twice
    the longest airtime; the exact ``ends > start`` test then filters
    it.  Each row lists its overlaps in input order.
    """
    count = starts.size
    hi = np.searchsorted(starts, ends, side="left")
    longest = (ends - starts).max(initial=0.0)
    lo = np.searchsorted(starts, starts - 2 * longest, side="left")
    width = np.maximum(hi - lo, 0)
    owner = np.repeat(np.arange(count), width)
    other = _ragged_arange(lo, width)
    keep = (ends[other] > starts[owner]) & (other != owner)
    ptr = np.zeros(count + 1, dtype=np.int64)
    np.cumsum(np.bincount(owner[keep], minlength=count), out=ptr[1:])
    return ptr, other[keep]


def hot_codewords(
    medium: RadioMedium,
    transmissions: list[Transmission],
    receivers: Sequence[int],
    fades: np.ndarray,
    min_rx_snr_db: float,
) -> HotCodewords:
    """Chip flip probabilities of every audible pair's hot codewords.

    A reception's interference is a step function: it changes only
    where an overlapping transmission starts or ends (paper Fig. 5).
    Those boundaries cut each transmission into segments; a pair's
    level on a segment is the sum, in overlap order, of the powers
    of the transmissions covering it at that receiver.  That is the
    float sum :meth:`RadioMedium.interference_timeline_mw` forms for
    each of the segment's symbols, and
    :func:`chip_error_probability_interference` is elementwise, so one
    call on the segment values of the whole run gives, after
    expansion, exactly the per-symbol probabilities of
    :func:`hot_codewords_reference`.  Each hot segment is one run.

    ``fades[i, j]`` scales the power of ``transmissions[i]`` at
    ``receivers[j]``.  A pair is audible when its faded SNR reaches
    ``min_rx_snr_db``; a codeword is hot when its flip probability
    exceeds ``_HOT_PROB``.
    """
    rx_ids = np.asarray(receivers, dtype=np.int64)
    starts = np.array([t.start for t in transmissions], dtype=np.float64)
    ends = np.array([t.end for t in transmissions], dtype=np.float64)
    lengths = np.array([t.n_symbols for t in transmissions], dtype=np.int64)
    senders = np.array([t.sender for t in transmissions], dtype=np.int64)
    fade = np.asarray(fades, dtype=np.float64).reshape(
        len(transmissions), rx_ids.size
    )
    rx_mw = medium.rx_power_matrix_mw
    noise_mw = medium.noise_mw

    # Audible pairs and their faded signal power.
    pair_tx, pair_col = np.nonzero(senders[:, None] != rx_ids[None, :])
    signal = rx_mw[senders[pair_tx], rx_ids[pair_col]] * fade[pair_tx, pair_col]
    audible = ~(10 * np.log10(signal / noise_mw) < min_rx_snr_db)
    pair_tx, pair_col = pair_tx[audible], pair_col[audible]
    signal = signal[audible]

    # Each overlap's clipped symbol span [first, last) on its owner.
    ov_ptr, ov_other = _overlap_csr(starts, ends)
    ov_count = np.diff(ov_ptr)
    tx_range = np.arange(len(transmissions), dtype=np.int64)
    ov_owner = np.repeat(tx_range, ov_count)
    own_len = lengths[ov_owner]
    first = np.clip(
        np.floor((starts[ov_other] - starts[ov_owner]) / SYMBOL_PERIOD_S),
        0,
        own_len,
    ).astype(np.int64)
    last = np.clip(
        np.ceil((ends[ov_other] - starts[ov_owner]) / SYMBOL_PERIOD_S),
        0,
        own_len,
    ).astype(np.int64)
    # A receiver that is itself transmitting (half-duplex) hears inf.
    other_sender = senders[ov_other][:, None]
    power = np.where(
        other_sender == rx_ids[None, :],
        np.inf,
        rx_mw[other_sender, rx_ids[None, :]] * fade[ov_other],
    )

    # Segments: the sorted distinct cuts of each transmission.
    base = int(lengths.max(initial=0)) + 1
    cut_tx, cut_at = np.divmod(
        np.unique(
            np.concatenate(
                [
                    tx_range * base,
                    tx_range * base + lengths,
                    ov_owner * base + first,
                    ov_owner * base + last,
                ]
            )
        ),
        base,
    )
    inner = cut_tx[:-1] == cut_tx[1:]
    seg_start = cut_at[:-1][inner]
    seg_len = cut_at[1:][inner] - seg_start
    seg_ptr = np.searchsorted(cut_tx[:-1][inner], np.arange(tx_range.size + 1))

    # One row per (audible pair, segment of its transmission).
    seg_count = np.diff(seg_ptr)[pair_tx]
    row_pair = np.repeat(np.arange(pair_tx.size), seg_count)
    row_seg = _ragged_arange(seg_ptr[pair_tx], seg_count)
    row_tx = pair_tx[row_pair]
    row_col = pair_col[row_pair]
    row_start = seg_start[row_seg]
    level = np.zeros(row_pair.size, dtype=np.float64)
    for k in range(int(ov_count.max(initial=0))):
        rows = np.flatnonzero(ov_count[row_tx] > k)
        entry = ov_ptr[row_tx[rows]] + k
        start = row_start[rows]
        covered = (first[entry] <= start) & (start < last[entry])
        level[rows] += np.where(covered, power[entry, row_col[rows]], 0.0)

    row_signal = signal[row_pair]
    with np.errstate(invalid="ignore"):
        isr = level / row_signal
    p = chip_error_probability_interference(row_signal / noise_mw, isr)
    hot = p > _HOT_PROB
    return HotCodewords(
        tx_index=pair_tx,
        receiver=rx_ids[pair_col],
        pair=row_pair[hot],
        start=seg_start[row_seg[hot]],
        length=seg_len[row_seg[hot]],
        prob=p[hot],
    )


def hot_codewords_reference(
    medium: RadioMedium,
    transmissions: list[Transmission],
    receivers: Sequence[int],
    fades: np.ndarray,
    min_rx_snr_db: float,
) -> HotCodewords:
    """Per-pair, per-symbol specification of :func:`hot_codewords`.

    Builds each audible pair's interference timeline with
    :meth:`RadioMedium.interference_timeline_mw` and evaluates the chip
    flip probability of every symbol, one pair at a time; each hot
    symbol is a run of its own.
    """
    noise_mw = medium.noise_mw
    starts = np.array([t.start for t in transmissions])
    ends = np.array([t.end for t in transmissions])
    tx_index: list[int] = []
    rx_ids: list[int] = []
    hots: list[np.ndarray] = []
    probs: list[np.ndarray] = []
    for i, tx in enumerate(transmissions):
        hi = int(np.searchsorted(starts, tx.end, side="left"))
        overlapping = [
            j for j in np.flatnonzero(ends[:hi] > tx.start) if j != i
        ]
        for col, receiver in enumerate(receivers):
            if receiver == tx.sender:
                continue
            signal_mw = medium.rx_power_mw(tx.sender, receiver) * fades[i, col]
            if 10 * np.log10(signal_mw / noise_mw) < min_rx_snr_db:
                continue
            power_scale = {
                transmissions[j].tx_id: fades[j, col] for j in overlapping
            }
            interference = medium.interference_timeline_mw(
                tx,
                receiver,
                [transmissions[j] for j in overlapping],
                power_scale=power_scale,
            )
            with np.errstate(invalid="ignore"):
                isr = interference / signal_mw
            p = chip_error_probability_interference(
                np.full(interference.size, signal_mw / noise_mw), isr
            )
            hot = np.flatnonzero(p > _HOT_PROB)
            tx_index.append(i)
            rx_ids.append(receiver)
            hots.append(hot)
            probs.append(p[hot])
    index = np.concatenate(hots) if hots else np.zeros(0, np.int64)
    return HotCodewords(
        tx_index=np.array(tx_index, dtype=np.int64),
        receiver=np.array(rx_ids, dtype=np.int64),
        pair=np.repeat(np.arange(len(hots)), [h.size for h in hots]),
        start=index,
        length=np.ones(index.size, dtype=np.int64),
        prob=np.concatenate(probs) if probs else np.zeros(0),
    )


class NetworkSimulation:
    """Assembles and runs one testbed simulation."""

    def __init__(
        self,
        config: SimulationConfig,
        testbed: TestbedConfig | None = None,
        path_loss: PathLossModel | None = None,
    ) -> None:
        self._config = config
        self._testbed = testbed or paper_testbed(seed=config.seed)
        self._codebook = ZigbeeCodebook()
        extra_loss = None
        if config.wall_loss_db > 0:
            extra_loss = config.wall_loss_db * wall_count_matrix(
                self._testbed.positions_m,
                self._testbed.room_grid,
                self._testbed.area_m,
            )
        self._medium = RadioMedium(
            positions_m=self._testbed.positions_m,
            path_loss=path_loss,
            noise_floor_dbm=config.noise_floor_dbm,
            seed=config.seed,
            extra_loss_db=extra_loss,
        )

    @property
    def medium(self) -> RadioMedium:
        """The radio medium (for tests and diagnostics)."""
        return self._medium

    @property
    def testbed(self) -> TestbedConfig:
        """The node layout in use."""
        return self._testbed

    # -- phase 1: generate transmissions via traffic + MAC -------------------

    def _generate_transmissions(self) -> tuple[list[Transmission], np.ndarray]:
        """The run's transmissions and their on-air symbols, one
        ``(n_transmissions, n_air)`` uint8 row each."""
        cfg = self._config
        scheduler = EventScheduler()
        transmissions: list[Transmission] = []
        air: list[np.ndarray] = []
        csma_cfg = CsmaConfig(enabled=cfg.carrier_sense)
        pattern_rng = derive_rng(cfg.seed, "payload-pattern")
        # Two counters: ``seq`` is assigned when a frame is *built* (so
        # frames deferred by CSMA backoff or a busy sender keep unique,
        # header-consistent sequence numbers), ``tx_id`` when the frame
        # actually reaches the air.
        seq_counter = [0]
        tx_counter = [0]
        busy_until = {s: 0.0 for s in self._testbed.sender_ids}
        # Transmissions still on the air, as (end, index) heap entries;
        # expired entries are pruned as the clock advances, keeping
        # each carrier-sense query O(active) instead of O(history).
        active_heap: list[tuple[float, int]] = []

        def make_frame(sender: int) -> tuple[PprFrame, int]:
            """Build a frame, returning it with its unmasked seq.

            The wire header's seq field is 16 bits and wraps; the
            returned counter value does not, so ``Transmission.seq``
            stays unique however long the run is.
            """
            payload = bytes(
                pattern_rng.integers(0, 256, cfg.payload_bytes, dtype=np.uint8)
            )
            seq = seq_counter[0]
            seq_counter[0] += 1
            frame = PprFrame.build(
                src=sender,
                dst=self._nearest_receiver(sender),
                seq=seq & 0xFFFF,
                wire_payload=payload,
            )
            return frame, seq

        def active_at(now: float) -> list[Transmission]:
            # Entries are pushed at their start time and the clock is
            # monotonic, so everything left after pruning is on air.
            while active_heap and active_heap[0][0] <= now:
                heapq.heappop(active_heap)
            return [transmissions[i] for _, i in active_heap]

        def start_transmission(
            sender: int, frame: PprFrame, seq: int
        ) -> None:
            now = scheduler.now
            symbols = frame.on_air_symbols().astype(np.uint8)
            tx = Transmission(
                tx_id=tx_counter[0],
                sender=sender,
                dst=frame.header.dst,
                start=now,
                n_symbols=symbols.size,
                seq=seq,
            )
            tx_counter[0] += 1
            heapq.heappush(active_heap, (tx.end, len(transmissions)))
            transmissions.append(tx)
            air.append(symbols)
            busy_until[sender] = tx.end

        def attempt_send(
            sender: int, mac: CsmaMac, frame: PprFrame, seq: int
        ) -> None:
            now = scheduler.now
            if now < busy_until[sender]:
                scheduler.schedule_at(
                    busy_until[sender],
                    lambda: attempt_send(sender, mac, frame, seq),
                )
                return
            sensed = self._medium.carrier_sensed_power_mw(
                sender, active_at(now)
            )
            go, delay = mac.attempt(sensed)
            if go:
                start_transmission(sender, frame, seq)
            else:
                scheduler.schedule(
                    delay, lambda: attempt_send(sender, mac, frame, seq)
                )

        def make_arrival(sender: int, source: PoissonSource, mac: CsmaMac):
            # A factory, not a loop-local def: the self-reschedule in
            # the body must resolve to *this sender's* arrival handler.
            # A loop-local closure late-binds the name to the last
            # iteration, funnelling every sender's follow-up traffic
            # through the final sender.
            def arrival() -> None:
                frame, seq = make_frame(sender)
                attempt_send(sender, mac, frame, seq)
                scheduler.schedule(source.next_interval(), arrival)

            return arrival

        for sender in self._testbed.sender_ids:
            rng = derive_rng(cfg.seed, f"traffic-{sender}")
            source = PoissonSource(
                cfg.load_bits_per_s_per_node, cfg.payload_bytes, rng
            )
            mac = CsmaMac(csma_cfg, derive_rng(cfg.seed, f"mac-{sender}"))
            scheduler.schedule(
                source.next_interval(), make_arrival(sender, source, mac)
            )

        scheduler.run(until=cfg.duration_s)
        # Every frame has the configured layout; sizing from the config
        # keeps the rows' width when nothing was sent.
        n_air = body_symbol_count(cfg.payload_bytes) + 2 * SYNC_SYMBOLS
        return transmissions, np.array(air, dtype=np.uint8).reshape(-1, n_air)

    def _nearest_receiver(self, sender: int) -> int:
        positions = self._testbed.positions_m
        receivers = np.array(self._testbed.receiver_ids)
        d = np.linalg.norm(
            positions[receivers] - positions[sender], axis=1
        )
        return int(receivers[d.argmin()])

    # -- phase 2: chip-level reception ---------------------------------------

    def _receive(
        self,
        transmissions: list[Transmission],
        air: np.ndarray,
        gains: np.ndarray,
    ) -> TraceTable:
        """Every audible pair's reception, in two passes over its stream.

        ``air`` holds the transmissions' on-air symbols, one row each.

        Each pair owns a counter-based stream keyed on ``(seed, tx_id,
        receiver)`` that holds 32 draws for each of its hot codewords,
        in on-air order, so any subset of a pair's codewords can cross
        the channel alone (:meth:`_transit`) and see exactly the draws
        it would in a transit of the whole frame.  The first pass
        carries the sync fields and the trailer: sync-field chip errors
        (the popcounts of the changed words, summed per pair) give
        ``preamble_detectable`` and ``postamble_detectable``, and the
        decoded trailer words, scattered into a copy of the sent
        trailers, give ``trailer_ok`` through their CRCs.  The header
        is not read.  Preamble locks are then arbitrated
        (:meth:`_arbitrate_locks`), and the second pass carries the
        payload of the rows :meth:`TraceTable.acquired` accepts in
        either PHY mode: a changed payload word's entry takes its
        distance, and ``WRONG`` when it decoded to another symbol than
        the one sent.  No evaluator reads the payload of a frame no
        mode acquires; its entries keep the cold value 0.

        Only the words the channel changed need decoding (every other
        word decodes to itself at distance 0), and nearest-codeword
        decoding is per word, so they are decoded in one call per
        block.
        """
        cfg = self._config
        hot = hot_codewords(
            self._medium,
            transmissions,
            self._testbed.receiver_ids,
            gains,
            cfg.min_rx_snr_db,
        )
        n = hot.tx_index.size
        n_air = air.shape[1]
        keys = np.array(
            [
                derive_key(cfg.seed, "chip-channel", transmissions[i].tx_id, r)
                for i, r in zip(
                    hot.tx_index.tolist(), hot.receiver.tolist(), strict=True
                )
            ],
            dtype=np.uint64,
        ).reshape(n, 2)
        engine = BatchReceptionEngine(self._codebook)
        body = slice(SYNC_SYMBOLS, n_air - SYNC_SYMBOLS)
        region = payload_slice(body.stop - body.start)
        payload = slice(body.start + region.start, body.start + region.stop)

        # Pass A: the preamble sync field, then the trailer and the
        # postamble sync field.  Chip errors per pair in its preamble
        # (row 0) and postamble (row 1) sync fields.
        trailer = air[hot.tx_index, payload.stop : body.stop]
        sync_errors = np.zeros((2, n))
        spans = ((0, body.start), (payload.stop, n_air))
        for pair, at, _, truth, rx in self._transit(
            hot, np.arange(n), spans, keys, air
        ):
            sync = (at < body.start) | (at >= body.stop)
            word = ~sync
            [(decoded, _)] = engine.decode_hard_ragged([rx[word]])
            trailer[pair[word], at[word] - payload.stop] = decoded
            postamble = at[sync] >= body.stop
            sync_errors += np.bincount(
                postamble * n + pair[sync],
                popcount32(rx[sync] ^ truth[sync]),
                minlength=2 * n,
            ).reshape(2, n)
        sync_chips = SYNC_SYMBOLS * self._codebook.chips_per_symbol
        preamble_ok, postamble_ok = (
            sync_errors / sync_chips <= SYNC_ERROR_THRESHOLD
        )
        table = TraceTable(
            tx_index=hot.tx_index,
            receiver=hot.receiver,
            preamble_detectable=preamble_ok,
            postamble_detectable=postamble_ok,
            trailer_ok=header_rows_ok(trailer),
            acquired_preamble=np.zeros(n, dtype=bool),
            payload=np.zeros((n, payload.stop - payload.start), np.uint8),
        )
        self._arbitrate_locks(table, transmissions)

        # Pass B: the payload of every row some PHY mode acquires.
        live = np.flatnonzero(table.acquired(True))
        spans = ((payload.start, payload.stop),)
        for pair, at, sent, _, rx in self._transit(
            hot, live, spans, keys, air
        ):
            [(decoded, distances)] = engine.decode_hard_ragged([rx])
            table.payload[pair, at - payload.start] = distances | WRONG * (
                decoded != sent
            )
        return table

    def _transit(
        self,
        hot: HotCodewords,
        rows: np.ndarray,
        spans: Sequence[tuple[int, int]],
        keys: np.ndarray,
        air: np.ndarray,
    ) -> Iterator[tuple[np.ndarray, ...]]:
        """Push pairs ``rows``' hot codewords in ``spans`` through the
        channel, in bounded blocks.

        The pairs are walked in blocks of whole pairs holding at most
        ``_RECEIVE_BLOCK_WORDS`` of these codewords (a larger pair is
        a block of its own), so no array is sized by all of a run's
        hot codewords, and each block crosses the channel in one
        :func:`transmit_chipwords_batch` call.  Each span of a pair is
        one stream of that call, under the pair's key and starting at
        the span's first hot codeword (:meth:`HotCodewords.before`),
        so the blocking and the choice of spans cannot change a draw.

        Yields, per block, the words the channel changed as ``(pair,
        index, sent, truth, rx)``: the pair, the on-air index, the
        sent symbol, the transmitted and the received chip word.
        """
        runs = hot.within(rows, spans)
        first = np.stack([hot.before(lo)[rows] for lo, _ in spans], axis=1)
        sizes = (
            np.stack([hot.before(hi)[rows] for _, hi in spans], axis=1) - first
        )
        ends = np.concatenate([[0], np.cumsum(sizes.sum(axis=1))])
        n_air = air.shape[1]
        lo = 0
        while lo < rows.size:
            bound = ends[lo] + _RECEIVE_BLOCK_WORDS
            hi = int(np.searchsorted(ends, bound, side="right")) - 1
            hi = max(hi, lo + 1)
            pair, at, prob = runs.words(lo, hi)
            sent = np.take(air, runs.tx_index[pair] * n_air + at)
            truth = self._codebook.encode_words(sent)
            rx = transmit_chipwords_batch(
                truth,
                prob,
                sizes[lo:hi].ravel(),
                np.repeat(keys[rows[lo:hi]], len(spans), axis=0),
                first[lo:hi].ravel(),
            )
            changed = np.flatnonzero(rx != truth)
            yield (
                rows[pair[changed]],
                at[changed],
                sent[changed],
                truth[changed],
                rx[changed],
            )
            lo = hi

    def _draw_fades(self, transmissions: list[Transmission]) -> np.ndarray:
        """Block-fading gains, ``(len(transmissions), n_receivers)``.

        One lognormal draw per (transmission, receiver) pair, used
        consistently whether the transmission is the desired signal or
        an interferer at that receiver — the same physical propagation
        instance.  Block fading is what makes marginal links
        *intermittent* rather than binary, the defining property of the
        mesh links PPR targets.  The draws are one vector from the
        ``block-fading`` stream in transmission-major, receiver-minor
        order, skipping a sender's own receiver (gain 1).
        """
        cfg = self._config
        senders = np.array([t.sender for t in transmissions], dtype=np.int64)
        receivers = np.asarray(self._testbed.receiver_ids, dtype=np.int64)
        gains = np.ones((senders.size, receivers.size))
        if cfg.fading_sigma_db <= 0:
            return gains
        heard = senders[:, None] != receivers[None, :]
        rng = derive_rng(cfg.seed, "block-fading")
        gains_db = rng.normal(0.0, cfg.fading_sigma_db, int(heard.sum()))
        # Python-float powers: numpy's vector power differs from them
        # in the last bit for some gains.
        gains[heard] = [10 ** (g / 10) for g in gains_db.tolist()]
        return gains

    @staticmethod
    def _arbitrate_locks(
        table: TraceTable, transmissions: list[Transmission]
    ) -> None:
        """Apply the single-radio preamble-lock model per receiver."""
        starts = np.array([t.start for t in transmissions])
        ends = np.array([t.end for t in transmissions])
        for receiver in np.unique(table.receiver).tolist():
            rows = np.flatnonzero(
                (table.receiver == receiver) & table.preamble_detectable
            )
            start = starts[table.tx_index[rows]]
            order = np.argsort(start, kind="stable")
            end = ends[table.tx_index[rows]]
            lock_until = -np.inf
            for row, t0, t1 in zip(
                rows[order].tolist(),
                start[order].tolist(),
                end[order].tolist(),
                strict=True,
            ):
                if t0 < lock_until:
                    continue  # busy: preamble missed
                lock_until = t1
                # Synchronising is acquiring: a corrupted header shows
                # up as corrupted *bits* (caught by CRCs or flagged by
                # hints), not as a lost frame — matching the paper's
                # trace post-processing.  The postamble path, by
                # contrast, genuinely needs a verified trailer to find
                # the frame (§4), which TraceTable.acquired enforces.
                table.acquired_preamble[row] = True

    def run(self) -> SimulationResult:
        """Execute the simulation and decode every audible reception."""
        cfg = self._config
        transmissions, air = self._generate_transmissions()
        gains = self._draw_fades(transmissions)
        table = self._receive(transmissions, air, gains)
        return SimulationResult(
            config=cfg,
            testbed=self._testbed,
            transmissions=transmissions,
            table=table,
        )
