"""PPR: Partial Packet Recovery for Wireless Networks — reproduction.

A full Python implementation of Jamieson & Balakrishnan's PPR system
(SIGCOMM 2007 / MIT-CSAIL-TR-2007-008): the SoftPHY confidence-hint
interface, postamble decoding with rollback, and the PP-ARQ partial
retransmission protocol — together with every substrate the paper's
evaluation depends on (an 802.15.4 DSSS PHY at chip and waveform
fidelity, a CSMA link layer, and a discrete-event radio-network
simulator standing in for the 27-node testbed).

Quick start::

    import numpy as np
    from repro import ZigbeeCodebook
    from repro.phy.chipchannel import transmit_chipwords

    codebook = ZigbeeCodebook()
    symbols = np.arange(16)
    received = transmit_chipwords(codebook.encode_words(symbols), 0.1, 0)
    decoded, hints = codebook.decode_hard(received)
    # `hints` are the SoftPHY Hamming-distance hints of the paper.

See README.md for the architecture overview and its Layout section for
the paper-to-module map.
"""

from repro._version import __version__
from repro.arq import (
    FullPacketArqSession,
    PpArqReceiver,
    PpArqSender,
    PpArqSession,
    RunLengthPacket,
    plan_chunks,
)
from repro.coding import SegmentedRlncCodec
from repro.link import (
    FragmentedCrcScheme,
    FrameHeader,
    PacketCrcScheme,
    PprFrame,
    PprScheme,
    SicScheme,
    SpracScheme,
)
from repro.phy import (
    Codebook,
    MskDemodulator,
    MskModulator,
    SoftPacket,
    WaveformBatchEngine,
    ZigbeeCodebook,
)
from repro.recovery import SicDecoder, SicPairResult
from repro.sim import (
    NetworkSimulation,
    RadioMedium,
    SimulationConfig,
    TestbedConfig,
    evaluate_schemes,
    paper_testbed,
)

__all__ = [
    "FullPacketArqSession",
    "PpArqReceiver",
    "PpArqSender",
    "PpArqSession",
    "RunLengthPacket",
    "plan_chunks",
    "SegmentedRlncCodec",
    "FragmentedCrcScheme",
    "FrameHeader",
    "PacketCrcScheme",
    "PprFrame",
    "PprScheme",
    "SicScheme",
    "SpracScheme",
    "Codebook",
    "MskDemodulator",
    "MskModulator",
    "SoftPacket",
    "WaveformBatchEngine",
    "ZigbeeCodebook",
    "SicDecoder",
    "SicPairResult",
    "NetworkSimulation",
    "RadioMedium",
    "SimulationConfig",
    "TestbedConfig",
    "evaluate_schemes",
    "paper_testbed",
    "__version__",
]
