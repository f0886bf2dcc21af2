"""Discrete-event radio network simulator — the testbed substitute.

The paper's evaluation ran 23 CC2420 senders and 4 GNU Radio receivers
in a nine-room office (Fig. 7).  This subpackage replaces that hardware
with a seeded simulator that preserves the phenomena PPR exploits:

* log-distance path loss with per-link shadowing (link diversity,
  "marginal links"),
* CSMA senders with hidden terminals (carrier sense on/off),
* per-symbol SINR timelines — interference corrupts only the
  overlapped codewords of a reception,
* a preamble-lock acquisition model plus a postamble/rollback recovery
  path,
* chip-level decoding through the shared PHY core, so SoftPHY hints in
  the traces are produced by the same code as everywhere else.

Receptions are recorded as traces and post-processed under each
delivery scheme, mirroring the paper's own trace-based method (§7.2:
"each node sends a stream of bits, which are formed into traces and
post-processed").
"""

from repro.sim.core import EventScheduler
from repro.sim.medium import PathLossModel, RadioMedium, Transmission
from repro.sim.mac import CsmaConfig, CsmaMac
from repro.sim.traffic import PoissonSource
from repro.sim.testbed import TestbedConfig, paper_testbed
from repro.sim.network import (
    NetworkSimulation,
    ReceptionRecord,
    SimulationConfig,
    SimulationResult,
    TraceTable,
)
from repro.sim.metrics import SchemeEvaluation, evaluate_schemes

__all__ = [
    "EventScheduler",
    "PathLossModel",
    "RadioMedium",
    "Transmission",
    "CsmaConfig",
    "CsmaMac",
    "PoissonSource",
    "TestbedConfig",
    "paper_testbed",
    "NetworkSimulation",
    "ReceptionRecord",
    "SimulationConfig",
    "SimulationResult",
    "TraceTable",
    "SchemeEvaluation",
    "evaluate_schemes",
]
