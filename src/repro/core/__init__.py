"""Opus: the paper's control plane for photonic rail-optimized fabrics.

Components (mirroring Fig. 6 of the paper):

* :mod:`repro.core.profiles` — the traffic profiler (learn once, predict every
  iteration) and the per-rail phase tracker.
* :mod:`repro.core.circuits` — the circuit planner / lookup table mapping
  communication groups and parallelism axes to per-rail circuit
  configurations.
* :mod:`repro.core.controller` — per-rail circuit state, FC-FS request
  admission, conflict-free switching events, reconfiguration timing.
* :mod:`repro.core.shim` — the shim runtime: it intercepts each collective and
  asks the controller for its circuits directly, profiling and provisioning
  according to its mode.
* :mod:`repro.core.network` — the simulator-facing network models for photonic
  rails under Opus (analytic and flow-level), on one shared Opus wiring.
* :mod:`repro.core.system` — a high-level facade plus the Fig. 8 sweep.
"""

from .circuits import CircuitPlanner
from .controller import OpusController, RailCircuitState
from .network import PhotonicFlowNetworkModel, PhotonicRailNetworkModel
from .profiles import PhaseRecord, PhaseTracker, RailProfile, TrafficProfiler
from .shim import CircuitGrant, OpusShim
from .system import (
    PhotonicRailSystem,
    SweepPoint,
    SystemConfig,
    reconfiguration_latency_sweep,
)

__all__ = [
    "CircuitGrant",
    "CircuitPlanner",
    "OpusController",
    "OpusShim",
    "PhaseRecord",
    "PhaseTracker",
    "PhotonicFlowNetworkModel",
    "PhotonicRailNetworkModel",
    "PhotonicRailSystem",
    "RailCircuitState",
    "RailProfile",
    "SweepPoint",
    "SystemConfig",
    "TrafficProfiler",
    "reconfiguration_latency_sweep",
]
