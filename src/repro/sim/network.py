"""Network simulation: traffic + MAC + medium + chip-level reception.

Runs the event-driven sender side (Poisson traffic through CSMA onto
the shared medium), then post-processes every (transmission, receiver)
pair into a :class:`ReceptionRecord`: the full on-air symbol stream is
pushed through the chip-level channel at the pair's per-symbol SINR and
decoded with the shared PHY core, producing genuine SoftPHY hints.

Acquisition model (paper §4, §7.2.2):

* **Preamble path** — receptions are scanned in arrival order; an idle
  receiver that can decode a preamble (sync chip error rate below the
  correlator threshold) and parse a valid header locks onto the frame
  until it ends.  Preambles arriving during a lock are missed — the
  "missed opportunity to synchronize" the paper attributes status-quo
  losses to.
* **Postamble path** — any reception whose postamble detects and whose
  trailer CRC verifies can be recovered from the rollback buffer,
  locked receiver or not.

The test-pattern payloads let every scheme be evaluated on the same
recorded traces, mirroring the paper's trace post-processing method.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field

import numpy as np

from repro.link.frame import (
    PprFrame,
    parse_header_bytes,
    parse_trailer_bytes,
    payload_slice,
)
from repro.phy.batch import BatchReceptionEngine
from repro.phy.chipchannel import (
    chip_error_probability_interference,
    transmit_chipwords_batch,
)
from repro.phy.codebook import Codebook, ZigbeeCodebook
from repro.phy.spreading import symbols_to_bytes
from repro.phy.sync import SYNC_SYMBOLS
from repro.sim.core import EventScheduler
from repro.sim.mac import CsmaConfig, CsmaMac
from repro.sim.medium import PathLossModel, RadioMedium, Transmission
from repro.sim.sicpass import apply_sic_recovery
from repro.sim.testbed import TestbedConfig, paper_testbed, wall_count_matrix
from repro.sim.traffic import PoissonSource
from repro.utils.bitops import popcount32
from repro.utils.rng import derive_key, derive_rng

# Flip probabilities at or below this are treated as "the channel
# passes the word through verbatim".
_HOT_PROB = 1e-12


@dataclass(frozen=True)
class SimulationConfig:
    """Parameters of one testbed run.

    Defaults follow the paper's setup: 1500-byte emulated packets
    (§7.2), 16 µs codeword time (§7.3 footnote 6), and the offered
    loads are set per experiment (3.5 / 6.9 / 13.8 Kbit/s/node).

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
    symbol_period_s: float = 16e-6
    sync_error_threshold: float = 0.25
    min_rx_snr_db: float = 0.0
    tx_power_dbm: float = 0.0
    noise_floor_dbm: float = -95.0
    wall_loss_db: float = 9.0
    fading_sigma_db: float = 3.0
    # Re-decode isolated two-frame collisions at waveform fidelity
    # through the SIC pipeline (repro.sim.sicpass) after the chip-level
    # pass.  Opt-in: the waveform re-render costs orders of magnitude
    # more per collision than the chip-level channel.
    sic_recovery: bool = False

    def __post_init__(self) -> None:
        if self.load_bits_per_s_per_node <= 0:
            raise ValueError("offered load must be positive")
        if self.payload_bytes <= 0:
            raise ValueError("payload_bytes must be positive")
        if self.duration_s <= 0:
            raise ValueError("duration_s must be positive")
        if not 0 < self.sync_error_threshold < 0.5:
            raise ValueError(
                "sync_error_threshold must be in (0, 0.5): beyond "
                "0.5 a correlator cannot distinguish signal from noise"
            )
        # A zero or non-finite symbol period yields division-by-zero /
        # NaN timelines deep inside interference_timeline_mw; reject at
        # construction where the mistake is attributable.
        if not np.isfinite(self.symbol_period_s) or self.symbol_period_s <= 0:
            raise ValueError(
                "symbol_period_s must be positive and finite, got "
                f"{self.symbol_period_s}"
            )
        if not np.isfinite(self.min_rx_snr_db):
            raise ValueError(
                f"min_rx_snr_db must be finite, got {self.min_rx_snr_db}"
            )
        if not np.isfinite(self.tx_power_dbm):
            raise ValueError(
                f"tx_power_dbm must be finite, got {self.tx_power_dbm}"
            )


@dataclass
class ReceptionRecord:
    """One (transmission, receiver) pair after chip-level decoding.

    A record holds only what its reception decided; sender, timing and
    ground truth come from ``tx``.  Body arrays cover header + wire
    payload + trailer.  Storage is compact (int8/uint8) because a run
    produces thousands of records.
    """

    tx: Transmission
    receiver: int
    preamble_detectable: bool
    header_ok: bool
    postamble_detectable: bool
    trailer_ok: bool
    acquired_preamble: bool
    body_symbols: np.ndarray = field(repr=False)
    body_hints: np.ndarray = field(repr=False)

    @property
    def link(self) -> tuple[int, int]:
        """Directed (sender, receiver) pair."""
        return (self.tx.sender, self.receiver)

    @property
    def body_truth(self) -> np.ndarray:
        """The transmitted body symbols: a view of ``tx.symbols``."""
        return self.tx.symbols[SYNC_SYMBOLS:-SYNC_SYMBOLS]

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
        region = payload_slice(self.body_hints.size)
        return self.body_hints[region].astype(np.float64)

    def payload_correct(self) -> np.ndarray:
        """Ground-truth correctness of the wire-payload symbols."""
        region = payload_slice(self.body_symbols.size)
        return self.body_symbols[region] == self.body_truth[region]


@dataclass
class SimulationResult:
    """Everything a run produced: transmissions, receptions, geometry."""

    config: SimulationConfig
    testbed: TestbedConfig
    transmissions: list[Transmission]
    records: list[ReceptionRecord]

    @property
    def duration_s(self) -> float:
        """Configured run length in seconds."""
        return self.config.duration_s


@dataclass
class _PendingReception:
    """A reception that has crossed the channel but not been decoded.

    Staging receptions lets the run decode every pair's corrupted
    codewords in one fused nearest-codeword pass; the counter-based
    channel fuses the transit itself across pairs the same way.
    """

    tx: Transmission
    receiver: int
    truth_words: np.ndarray
    rx_words: np.ndarray
    changed: np.ndarray  # indices of codewords the channel corrupted


class NetworkSimulation:
    """Assembles and runs one testbed simulation."""

    def __init__(
        self,
        config: SimulationConfig,
        testbed: TestbedConfig | None = None,
        codebook: Codebook | None = None,
        path_loss: PathLossModel | None = None,
    ) -> None:
        self._config = config
        self._testbed = testbed or paper_testbed(seed=config.seed)
        self._codebook = codebook or ZigbeeCodebook()
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
            tx_power_dbm=config.tx_power_dbm,
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

    def _generate_transmissions(self) -> list[Transmission]:
        cfg = self._config
        scheduler = EventScheduler()
        transmissions: list[Transmission] = []
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
            tx = Transmission(
                tx_id=tx_counter[0],
                sender=sender,
                dst=frame.header.dst,
                start=now,
                symbols=frame.on_air_symbols(),
                symbol_period=cfg.symbol_period_s,
                seq=seq,
            )
            tx_counter[0] += 1
            heapq.heappush(active_heap, (tx.end, len(transmissions)))
            transmissions.append(tx)
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
        return transmissions

    def _nearest_receiver(self, sender: int) -> int:
        positions = self._testbed.positions_m
        receivers = np.array(self._testbed.receiver_ids)
        d = np.linalg.norm(
            positions[receivers] - positions[sender], axis=1
        )
        return int(receivers[d.argmin()])

    # -- phase 2: chip-level reception ---------------------------------------

    @staticmethod
    def _overlap_sets(
        transmissions: list[Transmission],
    ) -> list[list[Transmission]]:
        """Per-transmission lists of airtime-overlapping transmissions.

        Transmissions are appended in start order, so a searchsorted
        over the start times bounds each scan; order within each list
        matches the input order (what the legacy sequential path saw).
        """
        starts = np.array([t.start for t in transmissions])
        ends = np.array([t.end for t in transmissions])
        out: list[list[Transmission]] = []
        for i, tx in enumerate(transmissions):
            hi = int(np.searchsorted(starts, tx.end, side="left"))
            others = np.flatnonzero(ends[:hi] > tx.start)
            out.append(
                [transmissions[j] for j in others if j != i]
            )
        return out

    def _pair_chip_error_probs(
        self,
        tx: Transmission,
        receiver: int,
        overlapping: list[Transmission],
        fades: dict[tuple[int, int], float],
    ) -> "np.ndarray | None":
        """Per-codeword chip flip probabilities for one pair.

        Returns ``None`` when the link is below the RX SNR floor (the
        receiver cannot hear the transmission at all).
        """
        cfg = self._config
        fade = fades.get((tx.tx_id, receiver), 1.0)
        signal_mw = self._medium.rx_power_mw(tx.sender, receiver) * fade
        noise_mw = self._medium.noise_mw
        snr_db = 10 * np.log10(signal_mw / noise_mw)
        if snr_db < cfg.min_rx_snr_db:
            return None
        power_scale = {
            o.tx_id: fades.get((o.tx_id, receiver), 1.0)
            for o in overlapping
        }
        interference = self._medium.interference_timeline_mw(
            tx, receiver, overlapping, power_scale=power_scale
        )
        snr = signal_mw / noise_mw
        with np.errstate(invalid="ignore"):
            isr = interference / signal_mw
        return chip_error_probability_interference(
            np.full(interference.size, snr), isr
        )

    def _transit_all_batched(
        self, transmissions: list[Transmission],
        fades: dict[tuple[int, int], float],
    ) -> "list[_PendingReception]":
        """Every pair's channel transit as one fused array program.

        Each pair owns a counter-based stream keyed on ``(seed, tx_id,
        receiver)``, so all pairs' hot codewords can be corrupted in a
        single :func:`transmit_chipwords_batch` call — no sequential
        stream to respect, and bit-identical to processing the pairs
        one at a time with the same keys.
        """
        cfg = self._config
        overlaps = self._overlap_sets(transmissions)
        staged: list[tuple[Transmission, int, np.ndarray, np.ndarray]] = []
        p_hots: list[np.ndarray] = []
        for tx, overlapping in zip(transmissions, overlaps, strict=True):
            truth_words: np.ndarray | None = None
            for receiver in self._testbed.receiver_ids:
                if receiver == tx.sender:
                    continue
                p = self._pair_chip_error_probs(
                    tx, receiver, overlapping, fades
                )
                if p is None:
                    continue
                if truth_words is None:
                    # One encode per transmission, shared (read-only)
                    # by all of its receivers' pendings.
                    truth_words = self._codebook.encode_words(tx.symbols)
                hot = np.flatnonzero(p > _HOT_PROB)
                staged.append((tx, receiver, truth_words, hot))
                p_hots.append(p[hot])
        if not staged:
            return []

        sizes = [hot.size for (_, _, _, hot) in staged]
        rx_flat = transmit_chipwords_batch(
            np.concatenate([words[hot] for (_, _, words, hot) in staged]),
            np.concatenate(p_hots),
            sizes,
            np.stack(
                [
                    derive_key(cfg.seed, "chip-channel", tx.tx_id, receiver)
                    for (tx, receiver, _, _) in staged
                ]
            ),
        )

        pendings: list[_PendingReception] = []
        offsets = np.cumsum(sizes)[:-1]
        for (tx, receiver, truth_words, hot), rx_hot in zip(
            staged, np.split(rx_flat, offsets), strict=True
        ):
            rx_words = truth_words.copy()
            rx_words[hot] = rx_hot
            pendings.append(
                _PendingReception(
                    tx=tx,
                    receiver=receiver,
                    truth_words=truth_words,
                    rx_words=rx_words,
                    changed=hot[rx_hot != truth_words[hot]],
                )
            )
        return pendings

    def _finalize_record(
        self,
        pending: "_PendingReception",
        decoded_symbols: np.ndarray,
        decoded_dists: np.ndarray,
    ) -> ReceptionRecord:
        """Assemble a record from a transit plus its decoded codewords."""
        cfg = self._config
        tx = pending.tx
        truth = tx.symbols
        truth_words = pending.truth_words
        rx_words = pending.rx_words
        changed = pending.changed
        symbols = truth.copy()
        hints = np.zeros(truth.size, dtype=np.float64)
        if changed.size:
            symbols[changed] = decoded_symbols
            hints[changed] = decoded_dists

        n = truth.size
        width = self._codebook.chips_per_symbol
        pre_errors = int(
            popcount32(
                rx_words[:SYNC_SYMBOLS] ^ truth_words[:SYNC_SYMBOLS]
            ).sum()
        )
        post_errors = int(
            popcount32(
                rx_words[-SYNC_SYMBOLS:] ^ truth_words[-SYNC_SYMBOLS:]
            ).sum()
        )
        sync_chips = SYNC_SYMBOLS * width
        preamble_detectable = (
            pre_errors / sync_chips <= cfg.sync_error_threshold
        )
        postamble_detectable = (
            post_errors / sync_chips <= cfg.sync_error_threshold
        )

        body = symbols[SYNC_SYMBOLS : n - SYNC_SYMBOLS]
        body_hints = hints[SYNC_SYMBOLS : n - SYNC_SYMBOLS]
        payload = payload_slice(body.size)
        _, header_ok = parse_header_bytes(
            symbols_to_bytes(body[: payload.start])
        )
        _, trailer_ok = parse_trailer_bytes(
            symbols_to_bytes(body[payload.stop :])
        )

        return ReceptionRecord(
            tx=tx,
            receiver=pending.receiver,
            preamble_detectable=preamble_detectable,
            header_ok=header_ok,
            postamble_detectable=postamble_detectable,
            trailer_ok=trailer_ok,
            acquired_preamble=False,  # set during lock arbitration
            body_symbols=body.astype(np.int8),
            body_hints=body_hints.astype(np.uint8),
        )

    def _decode_pendings(
        self, pendings: list["_PendingReception"]
    ) -> list[ReceptionRecord]:
        """Decode every staged reception in one fused call.

        Nearest-codeword decoding is independent per word, so
        concatenating every reception's corrupted words into one
        matrix changes only the call count, not the result.
        """
        engine = BatchReceptionEngine(self._codebook)
        decoded = engine.decode_hard_ragged(
            [p.rx_words[p.changed] for p in pendings]
        )
        return [
            self._finalize_record(pending, symbols, dists)
            for pending, (symbols, dists) in zip(pendings, decoded, strict=True)
        ]

    def _draw_fades(
        self, transmissions: list[Transmission]
    ) -> dict[tuple[int, int], float]:
        """Per-(transmission, receiver) block-fading gains.

        One lognormal draw per pair, used consistently whether the
        transmission is the desired signal or an interferer at that
        receiver — the same physical propagation instance.  Block
        fading is what makes marginal links *intermittent* rather than
        binary, the defining property of the mesh links PPR targets.
        """
        cfg = self._config
        if cfg.fading_sigma_db <= 0:
            return {}
        rng = derive_rng(cfg.seed, "block-fading")
        fades: dict[tuple[int, int], float] = {}
        for tx in transmissions:
            for receiver in self._testbed.receiver_ids:
                if receiver == tx.sender:
                    continue
                gain_db = rng.normal(0.0, cfg.fading_sigma_db)
                fades[(tx.tx_id, receiver)] = float(10 ** (gain_db / 10))
        return fades

    def _arbitrate_locks(self, records: list[ReceptionRecord]) -> None:
        """Apply the single-radio preamble-lock model per receiver."""
        by_receiver: dict[int, list[ReceptionRecord]] = {}
        for rec in records:
            by_receiver.setdefault(rec.receiver, []).append(rec)
        for recs in by_receiver.values():
            recs.sort(key=lambda r: r.tx.start)
            lock_until = -np.inf
            for rec in recs:
                if not rec.preamble_detectable:
                    continue
                if rec.tx.start < lock_until:
                    continue  # busy: preamble missed
                lock_until = rec.tx.end
                # Synchronising is acquiring: a corrupted header shows
                # up as corrupted *bits* (caught by CRCs or flagged by
                # hints), not as a lost frame — matching the paper's
                # trace post-processing.  The postamble path, by
                # contrast, genuinely needs a verified trailer to find
                # the frame (§4), which rec.acquired() enforces.
                rec.acquired_preamble = True

    def run(self) -> SimulationResult:
        """Execute the simulation and decode every audible reception."""
        cfg = self._config
        transmissions = self._generate_transmissions()
        fades = self._draw_fades(transmissions)
        pendings = self._transit_all_batched(transmissions, fades)
        records = self._decode_pendings(pendings)
        self._arbitrate_locks(records)
        if cfg.sic_recovery:
            apply_sic_recovery(
                cfg, self._codebook, self._medium, fades, records
            )
        return SimulationResult(
            config=cfg,
            testbed=self._testbed,
            transmissions=transmissions,
            records=records,
        )
