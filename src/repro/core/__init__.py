"""Opus: the paper's control plane for photonic rail-optimized fabrics.

Components (mirroring Fig. 6 of the paper):

* :mod:`repro.core.intents` — intercepted collective calls as communication
  intents and demand matrices.
* :mod:`repro.core.profiles` — the traffic profiler (learn once, predict every
  iteration) and the per-rail phase tracker.
* :mod:`repro.core.circuits` — the circuit planner / lookup table mapping
  communication groups and parallelism axes to per-rail circuit
  configurations.
* :mod:`repro.core.scheduler` — FC-FS request scheduling.
* :mod:`repro.core.controller` — per-rail circuit state, conflict-free
  switching events, reconfiguration timing.
* :mod:`repro.core.shim` — the shim runtime tying interception, profiling,
  provisioning, and the controller together.
* :mod:`repro.core.network` — the simulator-facing network models for photonic
  rails under Opus (analytic and flow-level), on one shared Opus wiring.
* :mod:`repro.core.system` — a high-level facade plus the Fig. 8 sweep.
"""

from .circuits import CircuitPlanner, RailConfiguration
from .controller import OpusController, RailCircuitState
from .intents import CommIntent, DemandMatrix, demand_matrix_from_intents, intent_from_collective
from .network import PhotonicFlowNetworkModel, PhotonicRailNetworkModel
from .profiles import PhaseRecord, PhaseTracker, RailProfile, TrafficProfiler
from .scheduler import FCFSScheduler, ReconfigurationRequest
from .shim import CircuitGrant, OpusShim, ShimOptions
from .system import (
    PhotonicRailSystem,
    SweepPoint,
    SystemConfig,
    reconfiguration_latency_sweep,
)

__all__ = [
    "CircuitGrant",
    "CircuitPlanner",
    "CommIntent",
    "DemandMatrix",
    "FCFSScheduler",
    "OpusController",
    "OpusShim",
    "PhaseRecord",
    "PhaseTracker",
    "PhotonicFlowNetworkModel",
    "PhotonicRailNetworkModel",
    "PhotonicRailSystem",
    "RailCircuitState",
    "RailConfiguration",
    "RailProfile",
    "ReconfigurationRequest",
    "ShimOptions",
    "SweepPoint",
    "SystemConfig",
    "TrafficProfiler",
    "demand_matrix_from_intents",
    "intent_from_collective",
    "reconfiguration_latency_sweep",
]
