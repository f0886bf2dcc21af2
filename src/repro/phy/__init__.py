"""Physical layer: DSSS codebooks, modulation, channels, and decoding.

Two fidelity levels share one decoding core:

* **Chip level** (``chipchannel``) — chips cross a binary symmetric
  channel whose flip probability follows the per-symbol SINR.  This is
  what the network-scale experiments use; despreading gain and SoftPHY
  Hamming hints emerge from real nearest-codeword decoding.
* **Waveform level** (``modulation``/``channelsim``/``demodulation``) —
  a complex-baseband MSK (half-sine O-QPSK) modem with matched
  filtering and preamble/postamble synchronisation,
  used by the collision-anatomy experiment (paper Fig. 13) and the PHY
  test suite.
"""

from repro.phy.batch import (
    BatchReceptionEngine,
    CollisionPairReception,
    FrameReception,
    WaveformBatchEngine,
    WaveformDecodeRequest,
)
from repro.phy.codebook import Codebook, ZigbeeCodebook
from repro.phy.chipchannel import (
    transmit_chipwords,
    transmit_chipwords_batch,
)
from repro.phy.spreading import (
    bytes_to_symbols,
    symbols_to_bytes,
)
from repro.phy.symbols import SoftPacket
from repro.phy.modulation import MskModulator
from repro.phy.demodulation import MskDemodulator
from repro.phy.sync import (
    PREAMBLE_SYMBOLS,
    POSTAMBLE_SYMBOLS,
    SFD_SYMBOLS,
    RollbackBuffer,
)
from repro.phy.frontend import ChipExtractRequest, ReceiverFrontend
from repro.phy.remodulate import (
    estimate_complex_scale,
    remodulate_frame,
    remodulate_frame_reference,
    subtract_frame,
)

__all__ = [
    "BatchReceptionEngine",
    "CollisionPairReception",
    "FrameReception",
    "WaveformBatchEngine",
    "WaveformDecodeRequest",
    "ChipExtractRequest",
    "Codebook",
    "ZigbeeCodebook",
    "transmit_chipwords",
    "transmit_chipwords_batch",
    "bytes_to_symbols",
    "symbols_to_bytes",
    "SoftPacket",
    "MskModulator",
    "MskDemodulator",
    "PREAMBLE_SYMBOLS",
    "POSTAMBLE_SYMBOLS",
    "SFD_SYMBOLS",
    "RollbackBuffer",
    "ReceiverFrontend",
    "estimate_complex_scale",
    "remodulate_frame",
    "remodulate_frame_reference",
    "subtract_frame",
]
