"""Figure 16 + §7.5: PP-ARQ retransmission sizes on a single link.

One sender streams 250-byte packets to one receiver over a bursty
channel (collision-like interference bursts over part of each frame).
The paper's claim: "the median retransmission size is approximately
half the full packet size", and Table 1 summarises "significant
end-to-end savings in retransmission cost, a median factor of 50%
reduction" against whole-packet ARQ.
"""

from __future__ import annotations

import numpy as np

from repro.analysis.stats import Cdf
from repro.analysis.textplot import render_cdf
from repro.arq.fullarq import FullPacketArqSession
from repro.arq.protocol import PpArqSession
from repro.experiments.common import ExperimentOutput, ShapeCheck
from repro.experiments.registry import register
from repro.phy.chipchannel import transmit_chipwords
from repro.phy.codebook import ZigbeeCodebook
from repro.phy.symbols import SoftPacket
from repro.utils.rng import derive_rng

PACKET_BYTES = 250
N_PACKETS = 60
SEED = 16


class BurstyLinkChannel:
    """Single-link chip channel with collision-like bursts.

    Every frame sees a low residual chip error rate (``BASE_ERROR``);
    with probability ``BURST_PROB`` an interference burst covers a
    contiguous fraction (drawn from ``BURST_FRAC``) of the frame at a
    high chip error rate (``BURST_ERROR``) — the §7.5 regime where
    most of each packet survives but the CRC fails.
    """

    BASE_ERROR = 0.01
    BURST_ERROR = 0.4
    BURST_PROB = 0.85
    BURST_FRAC = (0.1, 0.6)

    def __init__(
        self, codebook: ZigbeeCodebook, rng: np.random.Generator
    ) -> None:
        self._codebook = codebook
        self._rng = rng

    def __call__(self, symbols: np.ndarray) -> SoftPacket:
        symbols = np.asarray(symbols, dtype=np.int64)
        if symbols.size == 0:
            empty = np.zeros(0)
            return SoftPacket(
                symbols=symbols, hints=empty, truth=symbols
            )
        p = np.full(symbols.size, self.BASE_ERROR)
        if self._rng.random() < self.BURST_PROB:
            frac = self._rng.uniform(*self.BURST_FRAC)
            burst_len = max(1, int(frac * symbols.size))
            start = int(
                self._rng.integers(0, max(1, symbols.size - burst_len))
            )
            p[start : start + burst_len] = self.BURST_ERROR
        words = self._codebook.encode_words(symbols)
        received = transmit_chipwords(words, p, self._rng)
        decoded, dists = self._codebook.decode_hard(received)
        return SoftPacket(
            symbols=decoded,
            hints=dists.astype(np.float64),
            truth=symbols,
        )


@register(
    "fig16",
    title="PP-ARQ partial retransmission sizes (250 B packets)",
    paper_expectation=(
        "median PP-ARQ retransmission ~half the 250-byte packet; "
        "total retransmission cost roughly halved vs whole-packet ARQ"
    ),
    order=16,
)
def run() -> ExperimentOutput:
    """Transfer packets under PP-ARQ and whole-packet ARQ, compare.

    Runs on its own single-link bursty channel; the spec declares no
    simulation points.
    """
    codebook = ZigbeeCodebook()
    payload_rng = derive_rng(SEED, "fig16-payloads")
    payloads = [
        bytes(payload_rng.integers(0, 256, PACKET_BYTES, dtype=np.uint8))
        for _ in range(N_PACKETS)
    ]

    pp_channel = BurstyLinkChannel(
        codebook, derive_rng(SEED, "fig16-pparq-channel")
    )
    pp_session = PpArqSession(pp_channel)
    retransmit_sizes: list[int] = []
    pp_total_bytes = 0
    pp_delivered = 0
    for seq, payload in enumerate(payloads):
        log = pp_session.transfer(seq, payload)
        retransmit_sizes.extend(log.retransmit_packet_bytes)
        pp_total_bytes += log.total_retransmit_bytes
        pp_delivered += int(log.delivered)

    full_channel = BurstyLinkChannel(
        codebook, derive_rng(SEED, "fig16-fullarq-channel")
    )
    full_session = FullPacketArqSession(full_channel)
    full_total_bytes = 0
    full_delivered = 0
    for seq, payload in enumerate(payloads):
        log = full_session.transfer(seq, payload)
        full_total_bytes += log.total_retransmit_bytes
        full_delivered += int(log.delivered)

    if not retransmit_sizes:
        raise RuntimeError(
            "channel produced no retransmissions; burst parameters "
            "too benign"
        )
    cdf = Cdf(np.array(retransmit_sizes, dtype=np.float64))
    rendered = render_cdf(
        {"PP-ARQ retransmission size": cdf.samples},
        xlabel="size of partial retransmission (bytes)",
        xmax=float(PACKET_BYTES + 10),
    )
    median_size = cdf.median()
    savings = 1.0 - pp_total_bytes / max(full_total_bytes, 1)
    checks = [
        ShapeCheck(
            name="median retransmission well below the full packet",
            passed=median_size <= 0.7 * PACKET_BYTES,
            detail=f"median {median_size:.0f} B vs {PACKET_BYTES} B "
            "packets (paper: ~half)",
        ),
        ShapeCheck(
            name="all packets eventually delivered by PP-ARQ",
            passed=pp_delivered == N_PACKETS,
            detail=f"{pp_delivered}/{N_PACKETS}",
        ),
        ShapeCheck(
            name="PP-ARQ halves retransmission cost vs full ARQ",
            passed=savings >= 0.40,
            detail=f"retransmitted {pp_total_bytes} B vs "
            f"{full_total_bytes} B: {savings:.0%} saved "
            "(paper: ~50%)",
        ),
        ShapeCheck(
            name="full-packet ARQ struggles on the same channel",
            passed=full_total_bytes > pp_total_bytes,
            detail=f"full ARQ delivered {full_delivered}/{N_PACKETS}",
        ),
    ]
    return ExperimentOutput(
        rendered=rendered,
        shape_checks=checks,
        series={
            "retransmit_sizes": np.array(retransmit_sizes),
            "median_size": median_size,
            "pp_total_bytes": pp_total_bytes,
            "full_total_bytes": full_total_bytes,
            "savings": savings,
        },
    )
