"""Network models: how long a communication operation takes and when it may start.

The DAG executor is network-agnostic: for every communication operation it
asks a :class:`NetworkModel` when the transfer may begin (given the time the
ranks are ready) and how long it takes.  Three implementations matter:

* :class:`ElectricalRailNetworkModel` — the baseline: full rail connectivity,
  transfers start as soon as the ranks are ready (this is also the
  "reconfiguration latency 0" point of Fig. 8).
* :class:`~repro.core.network.PhotonicRailNetworkModel` and its flow-level
  twin :class:`~repro.core.network.PhotonicFlowNetworkModel` (both defined in
  :mod:`repro.core.network`, on one shared Opus wiring) — transfers may
  additionally wait for the Opus controller to install the required
  circuits; reconfigurations are recorded in the trace.
* :class:`IdealNetworkModel` — infinite bandwidth, for isolating compute time
  in tests.

All models price the transfer itself with the same ring alpha–beta cost model;
the paper's simulation likewise assumes equal per-port bandwidth for electrical
and optical rails (§4.2).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional, Tuple

from ..collectives.cost_model import LinkParameters, RingCostModel, TreeCostModel
from ..errors import ConfigurationError
from ..parallelism.dag import Operation
from ..parallelism.mesh import DeviceMesh
from ..parallelism.trace import ReconfigRecord
from ..topology.devices import ClusterSpec
from .snapshot import Snapshottable

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .faults import FaultInjector, FaultPlan


@dataclass(frozen=True)
class CommTiming:
    """When a communication operation starts and ends, plus any reconfigurations."""

    start: float
    end: float
    reconfigs: Tuple[ReconfigRecord, ...] = ()

    def __post_init__(self) -> None:
        if self.end < self.start:
            raise ConfigurationError("a transfer cannot end before it starts")

    @property
    def duration(self) -> float:
        """Transfer duration in seconds."""
        return self.end - self.start


class NetworkModel(Snapshottable, ABC):
    """Timing oracle for communication operations.

    Every model is snapshottable: its whole state — including any bound
    fault injector and, for flow models, the shared simulator — captures
    into a :class:`~repro.simulator.snapshot.SimState` and restores (or
    forks) with bit-for-bit identical continuation.
    """

    def __init__(self, cluster: ClusterSpec, mesh: DeviceMesh) -> None:
        self.cluster = cluster
        self.mesh = mesh
        self._scaleout_link = LinkParameters(
            bandwidth=cluster.scaleout_port_bandwidth, latency=2e-6
        )
        self._scaleup_link = LinkParameters(
            bandwidth=cluster.scaleup.interconnect_bandwidth,
            latency=cluster.scaleup.interconnect_latency,
        )
        self._ring = RingCostModel()
        self._tree = TreeCostModel()
        #: Bound fault injector (``None`` on healthy runs).  Set by
        #: :meth:`install_fault_plan`; the DAG executor reads it for compute
        #: slowdowns and trace records.
        self.fault_injector: Optional["FaultInjector"] = None

    def install_fault_plan(self, plan: "FaultPlan") -> None:
        """Bind a fault plan to this model.

        The base implementation supports plans without fabric events
        (compute slowdowns only): the injector runs inline and the executor
        settles it against each iteration's end time.  Models with a routed
        topology or a circuit control plane override this to wire link and
        OCS-port events into their own machinery.
        """
        from .faults import FaultInjector

        self.fault_injector = FaultInjector(plan)

    def extend_fault_plan(self, plan: "FaultPlan") -> None:
        """Install additional fault events on a live (possibly mid-run) model.

        This is how a forked simulation diverges from the shared prefix it
        was copied from.  With no plan installed yet it is a plain
        (mid-run) :meth:`install_fault_plan`; otherwise the live injector
        gains the new events while keeping its applied-event cursor.  Flow
        models override this to also invalidate their route caches and
        schedule the events on the flow engine.
        """
        if plan.is_empty:
            return
        if self.fault_injector is None:
            self.install_fault_plan(plan)
        else:
            self.fault_injector.extend(plan.events)

    # ------------------------------------------------------------------ #
    # Shared helpers
    # ------------------------------------------------------------------ #

    def is_scaleout(self, operation: Operation) -> bool:
        """Whether the operation's group spans more than one scale-up domain.

        Served from the mesh's per-group placement memo: the executor asks
        on every scheduling pass.
        """
        assert operation.collective is not None
        return self.mesh.group_placement(operation.collective.group)[2]

    def transfer_duration(self, operation: Operation) -> float:
        """Duration of the data transfer itself (excluding circuit waits)."""
        assert operation.collective is not None
        if self.is_scaleout(operation):
            return self._scaleout_duration(operation)
        return self._ring.collective_time(operation.collective, self._scaleup_link)

    def _scaleout_duration(self, operation: Operation) -> float:
        assert operation.collective is not None
        return self._ring.collective_time(operation.collective, self._scaleout_link)

    # ------------------------------------------------------------------ #
    # Interface
    # ------------------------------------------------------------------ #

    @abstractmethod
    def timing(self, operation: Operation, ready_time: float) -> CommTiming:
        """Return when ``operation`` starts and ends, given rank readiness."""

    #: Time of the network's next event; analytic models have none.  Flow
    #: models expose their simulator's clock here.
    next_event_time: Optional[float] = None

    def can_expand(self, operation: Operation) -> bool:
        """Whether ``operation`` runs as flows (vs priced by :meth:`timing`)."""
        return False

    def pop_reconfig_records(self, op_id: int) -> Tuple[ReconfigRecord, ...]:
        """Reconfigurations performed on behalf of expanded collective ``op_id``.

        Called by the executor when the collective completes; only
        circuit-switched flow models perform any.
        """
        return ()

    def on_comm_end(self, operation: Operation, end_time: float) -> None:
        """Hook invoked by the executor when a communication finishes."""

    def on_iteration_start(self, iteration: int, time: float) -> None:
        """Hook invoked by the executor at the start of every iteration."""

    def on_iteration_end(self, iteration: int, time: float) -> None:
        """Hook invoked by the executor at the end of every iteration."""


class ElectricalRailNetworkModel(NetworkModel):
    """Packet-switched rails: full connectivity, no circuit waits.

    ``use_tree_collectives`` lets large scale-out groups use latency-optimized
    tree algorithms, which full-connectivity fabrics permit but degree-limited
    photonic rails do not (constraint C1).
    """

    def __init__(
        self,
        cluster: ClusterSpec,
        mesh: DeviceMesh,
        use_tree_collectives: bool = False,
    ) -> None:
        super().__init__(cluster, mesh)
        self.use_tree_collectives = use_tree_collectives

    def _scaleout_duration(self, operation: Operation) -> float:
        assert operation.collective is not None
        if self.use_tree_collectives and operation.collective.group_size > 2:
            group_size = operation.collective.group_size
            if group_size & (group_size - 1) == 0:
                return self._tree.collective_time(
                    operation.collective, self._scaleout_link
                )
        return super()._scaleout_duration(operation)

    def timing(self, operation: Operation, ready_time: float) -> CommTiming:
        duration = self.transfer_duration(operation)
        return CommTiming(start=ready_time, end=ready_time + duration)


class IdealNetworkModel(NetworkModel):
    """Zero-cost network: every transfer completes instantly.

    Used in tests to isolate compute-time effects and to compute the
    communication-free lower bound of an iteration.
    """

    def timing(self, operation: Operation, ready_time: float) -> CommTiming:
        return CommTiming(start=ready_time, end=ready_time)
