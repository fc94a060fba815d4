"""Flow-level discrete-event simulation of ML training on datacenter fabrics.

* :mod:`repro.simulator.compute` — compute-duration model.
* :mod:`repro.simulator.network` — network timing models (electrical baseline,
  ideal network; the photonic and bare-OCS models live in
  :mod:`repro.core.network`).
* :mod:`repro.simulator.fabric_network` — the topology-backed analytic model
  (fat-tree, rail-optimized) with path resolution and oversubscription.
* :mod:`repro.simulator.flow_network` — the flow-level network mode:
  collectives expanded into point-to-point transfers that contend for links.
* :mod:`repro.simulator.executor` — list-scheduling DAG executor (analytic
  and flow-level network modes).
* :mod:`repro.simulator.engine` / :mod:`repro.simulator.flows` — fluid
  max–min fair flow simulation backing the flow-level mode and
  point-to-point studies.
* :mod:`repro.simulator.faults` — fault injection: declarative
  :class:`FaultPlan` schedules of link failures, degradations, OCS port
  failures, and compute slowdowns, applied as first-class simulation events.
* :mod:`repro.simulator.metrics` — trace summaries (iteration time breakdowns,
  normalized iteration time for Fig. 8).
"""

from .compute import ComputeTimeModel
from .engine import Event, SimulationEngine
from .executor import DAGExecutor, SimulationConfig
from .faults import FaultEvent, FaultInjector, FaultKind, FaultPlan
from .fabric_network import TopologyNetworkModel
from .flow_network import FlowNetworkModel
from .flows import Flow, FlowSimulator, max_min_fair_rates
from .metrics import (
    IterationMetrics,
    iteration_metrics,
    mean_iteration_time,
    normalized_iteration_time,
    reconfigurations_per_iteration,
)
from .network import (
    CommTiming,
    ElectricalRailNetworkModel,
    IdealNetworkModel,
    NetworkModel,
)

__all__ = [
    "CommTiming",
    "ComputeTimeModel",
    "DAGExecutor",
    "ElectricalRailNetworkModel",
    "Event",
    "FaultEvent",
    "FaultInjector",
    "FaultKind",
    "FaultPlan",
    "Flow",
    "FlowNetworkModel",
    "FlowSimulator",
    "IdealNetworkModel",
    "IterationMetrics",
    "NetworkModel",
    "SimulationConfig",
    "SimulationEngine",
    "TopologyNetworkModel",
    "iteration_metrics",
    "max_min_fair_rates",
    "mean_iteration_time",
    "normalized_iteration_time",
    "reconfigurations_per_iteration",
]
