"""Physical layer: DSSS codebooks, modulation, channels, and decoding.

Two fidelity levels share one decoding core:

* **Chip level** (``chipchannel``) — chips cross a binary symmetric
  channel whose flip probability follows the per-symbol SINR.  This is
  what the network-scale experiments use; despreading gain and SoftPHY
  Hamming hints emerge from real nearest-codeword decoding.
* **Waveform level** (``modulation``/``channelsim``/``demodulation``) —
  a complex-baseband MSK (half-sine O-QPSK) modem with matched
  filtering; :class:`WaveformBatchEngine` is its receiver, locking on a
  preamble or rolling back from a postamble in one capture window.
  The waveform experiments (paper Fig. 13, waveform capture and SIC)
  use it.
"""

from repro.phy.batch import (
    BatchReceptionEngine,
    CollisionPairReception,
    FrameReception,
    WaveformBatchEngine,
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
)
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
    "estimate_complex_scale",
    "remodulate_frame",
    "remodulate_frame_reference",
    "subtract_frame",
]
