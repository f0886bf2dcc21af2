"""Per-link delivery bookkeeping for the evaluation metrics.

Accumulates per-(sender, receiver) statistics in the terms the paper's
evaluation uses:

* **equivalent frame delivery rate** (§7.2.2) — correct payload bits
  delivered divided by payload bits of *acquired* frames ("once the PHY
  layer synchronizes on a packet").
* **end-to-end throughput** (§7.2.3) — correct payload bits delivered
  per unit time, which folds in acquisition failures and overhead
  (:meth:`repro.sim.metrics.SchemeEvaluation.throughputs_kbps`).
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass

from repro.link.schemes import DeliveryResult


@dataclass
class LinkObservation:
    """Counters for one directed link under one scheme."""

    frames_sent: int = 0
    frames_acquired: int = 0
    frames_passed: int = 0
    payload_bits_sent: int = 0
    payload_bits_acquired: int = 0
    delivered_correct_bits: int = 0
    delivered_incorrect_bits: int = 0
    overhead_bits: int = 0

    def record_sent(self, payload_bits: int) -> None:
        """A frame destined for this link was transmitted."""
        self.frames_sent += 1
        self.payload_bits_sent += payload_bits

    def record_acquired(self, result: DeliveryResult) -> None:
        """The receiver synchronised on the frame and ran delivery."""
        self.frames_acquired += 1
        self.payload_bits_acquired += result.payload_bits
        self.delivered_correct_bits += result.delivered_correct_bits
        self.delivered_incorrect_bits += result.delivered_incorrect_bits
        self.overhead_bits += result.overhead_bits
        if result.frame_passed:
            self.frames_passed += 1

    @property
    def equivalent_frame_delivery_rate(self) -> float:
        """Correct payload bits delivered per sent payload bit (§7.2.2).

        Partial deliveries count as equivalent fractions of frames;
        frames the receiver never synchronised on (no preamble, and no
        postamble when postamble decoding is off) deliver nothing, which
        is how postamble decoding lifts this metric — it creates more
        opportunities to synchronise.
        """
        if self.payload_bits_sent == 0:
            return 0.0
        return self.delivered_correct_bits / self.payload_bits_sent


class LinkStats:
    """Statistics for every directed link, keyed by (src, dst)."""

    def __init__(self) -> None:
        self._links: dict[tuple[int, int], LinkObservation] = defaultdict(
            LinkObservation
        )

    def __getitem__(self, link: tuple[int, int]) -> LinkObservation:
        return self._links[link]

    def __setitem__(
        self, link: tuple[int, int], observation: LinkObservation
    ) -> None:
        self._links[link] = observation

    def __contains__(self, link: tuple[int, int]) -> bool:
        return link in self._links

    def __len__(self) -> int:
        return len(self._links)

    def links(self) -> list[tuple[int, int]]:
        """All observed links, sorted for deterministic iteration."""
        return sorted(self._links)

    def active_links(self) -> list[tuple[int, int]]:
        """Links where at least one frame was audible — the per-link
        populations the paper's CDFs are over.  A link a receiver never
        synchronised on still belongs to the population (its delivery
        rate is simply zero)."""
        return [
            link for link in self.links() if self._links[link].frames_sent
        ]

    def delivery_rates(self) -> list[float]:
        """Per-link equivalent frame delivery rates (for CDF plots)."""
        return [
            self._links[link].equivalent_frame_delivery_rate
            for link in self.active_links()
        ]
