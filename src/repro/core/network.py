"""Photonic-rail network models: the bridge between the simulator and Opus.

This module is the one place that knows how the Opus control plane plugs into
a :class:`~repro.simulator.network.NetworkModel`.  :class:`OpusNetworkModel`
holds that wiring once — controller and shim construction, OCS port-failure
binding, circuit-gated timing, the iteration hooks and the reconfiguration
reports — and the two photonic models the DAG executor uses are built on it.

:class:`PhotonicRailNetworkModel` is the analytic model.  For every scale-out
collective it consults the :class:`~repro.core.shim.OpusShim`:

* the transfer may only start once the circuits its communication group needs
  are installed — an on-demand reconfiguration (profiling iteration, or
  provisioning disabled) exposes the OCS switching delay on the critical path,
  a provisioned reconfiguration usually completes inside the inter-phase
  window and exposes little or nothing (Fig. 5);
* the transfer itself is priced with the same ring alpha–beta model as the
  electrical baseline (the paper's simulation assumes equal per-port bandwidth
  for electrical and optical rails);
* intra-domain collectives use the scale-up interconnect and never touch Opus.

:class:`PhotonicFlowNetworkModel` extends the flow-level machinery of
:class:`~repro.simulator.flow_network.FlowNetworkModel` to circuit-switched
fabrics: topology change becomes a first-class, time-domain event.  Every
collective's launch is gated on :meth:`~repro.core.controller.OpusController.ensure`
— the OCS switching delay separates the request from the flow start, routes
are resolved only when the flows actually start (the circuits exist by then,
and a route over one direct circuit is read from the rail's ledger), and the
real drain times of completed flows feed the controller's busy bookkeeping
instead of analytic estimates.  Holds and traffic marks are kept per
(rail, configuration), so a collective's Opus bookkeeping costs the same
whatever the size of its axis configuration.

With the shim in its ``"bare"`` mode (no profiling, provisioning or axis
coalescing), either model is the bare-OCS baseline of the ``ocs`` backend:
every missing circuit blocks for the full switching delay, and both modes
perform the same reconfigurations.

Every reconfiguration performed on behalf of (or speculatively ahead of) a
collective is returned to the executor and lands in the iteration trace, so
the Fig. 8 analysis can separate switching time that was hidden from switching
time that extended the iteration.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, NamedTuple, Optional, Set, Tuple

from ..errors import ConfigurationError, SimulationError
from ..parallelism.dag import Operation
from ..parallelism.groups import GroupRegistry
from ..parallelism.mesh import DeviceMesh
from ..parallelism.trace import ReconfigRecord
from ..simulator.flow_network import CompletionCallback, FlowNetworkModel
from ..simulator.network import CommTiming, NetworkModel
from ..simulator.telemetry import HotspotDetector, LinkTelemetry
from ..topology.devices import ClusterSpec
from ..topology.ocs import Circuit, CircuitConfiguration
from ..topology.photonic import (
    CircuitChangeEvent,
    PhotonicRailFabric,
    build_photonic_rail_fabric,
)
from .controller import OpusController, ReactiveReconfigurator
from .shim import OpusShim


class OpusNetworkModel(NetworkModel):
    """Scale-out timing for optical rails under Opus control.

    Builds the controller and shim over one photonic rail fabric, gates every
    scale-out collective on the circuits the shim requests, and forwards the
    iteration hooks and OCS port failures to the control plane.  Subclasses
    choose the network-model layer beneath it through :meth:`_init_network`.
    """

    def __init__(
        self,
        cluster: ClusterSpec,
        mesh: DeviceMesh,
        fabric: Optional[PhotonicRailFabric] = None,
        reconfiguration_delay: Optional[float] = None,
        shim_mode: str = "profile",
        registry: Optional[GroupRegistry] = None,
    ) -> None:
        fabric = fabric or build_photonic_rail_fabric(cluster)
        if fabric.cluster is not cluster:
            raise ConfigurationError(
                "the photonic fabric must be built from the same cluster "
                "specification as the network model"
            )
        self._init_network(cluster, mesh, fabric)
        self.fabric = fabric
        self._shim_mode = shim_mode
        self._registry = registry
        self.controller = OpusController(
            fabric, reconfiguration_delay=reconfiguration_delay
        )
        self.shim = self._build_shim()

    def _init_network(
        self, cluster: ClusterSpec, mesh: DeviceMesh, fabric: PhotonicRailFabric
    ) -> None:
        """Initialise the network-model layer beneath the control plane."""
        super().__init__(cluster, mesh)

    def _build_shim(self) -> OpusShim:
        return OpusShim(
            fabric=self.fabric,
            mesh=self.mesh,
            controller=self.controller,
            registry=self._registry,
            mode=self._shim_mode,
        )

    # ------------------------------------------------------------------ #
    # Fault injection
    # ------------------------------------------------------------------ #

    def install_fault_plan(self, plan) -> None:
        """Bind a fault plan; adds OCS port failures to the model's own events."""
        super().install_fault_plan(plan)
        self.fault_injector.on_port_failed = self._apply_port_failure

    def _apply_port_failure(self, event, now: float) -> None:
        """Kill one OCS port: tear its circuit and replan around it.

        The controller marks the port permanently conflicting and tears the
        circuit it carried (the fabric's circuit listeners see the tear).
        Dropping the planner caches makes every future configuration route
        through each domain's surviving ports.
        """
        self.controller.fail_port(event.rail, event.port)
        self.shim.planner.clear_cache()

    # ------------------------------------------------------------------ #
    # NetworkModel interface
    # ------------------------------------------------------------------ #

    # Circuits give every cross-domain hop the full port line rate — the
    # paper's equal-bandwidth assumption (§4.2) — so scale-out transfers are
    # priced at the plain scale-out link, never routed through the mutable
    # circuit graph the flow model's topology would offer.
    _scaleout_duration = NetworkModel._scaleout_duration

    def timing(self, operation: Operation, ready_time: float) -> CommTiming:
        op = operation.collective
        if op is None:
            raise SimulationError(
                f"operation {operation.op_id} has no collective to price"
            )
        if self.fault_injector is not None and self.fault_injector.inline:
            self.fault_injector.advance_to(ready_time)
        duration = self.transfer_duration(operation)
        if not self.is_scaleout(operation):
            return CommTiming(start=ready_time, end=ready_time + duration)

        target = self.shim.target_for(op)
        grant = self.shim.request_circuits(op, ready_time, target)
        start = max(ready_time, grant.ready_time)
        end = start + duration
        self.shim.notify_transfer(op, start, end, target)
        return CommTiming(start=start, end=end, reconfigs=grant.records)

    def on_comm_end(self, operation: Operation, end_time: float) -> None:
        if operation.collective is not None and self.is_scaleout(operation):
            self.shim.notify_completion(operation.collective, end_time)

    def on_iteration_end(self, iteration: int, time: float) -> None:
        super().on_iteration_end(iteration, time)
        self.shim.end_iteration(iteration, time)

    # ------------------------------------------------------------------ #
    # Reporting helpers
    # ------------------------------------------------------------------ #

    @property
    def total_reconfigurations(self) -> int:
        """Total switching events performed across all rails so far."""
        return self.controller.total_reconfigurations()

    @property
    def reconfiguration_delay(self) -> float:
        """The (possibly overridden) per-event switching delay in seconds."""
        return self.controller.reconfiguration_delay(next(iter(self.fabric.rails)))


class PhotonicRailNetworkModel(OpusNetworkModel):
    """Analytic scale-out timing model for optical rails under Opus control."""

    def on_iteration_start(self, iteration: int, time: float) -> None:
        self.shim.start_iteration(iteration, time)


class _DeferredLaunch(NamedTuple):
    """A collective launch waiting for conflicting circuits to drain."""

    #: Live circuits still to drain; emptied in place as each one does.
    pending: Set[Tuple[int, Circuit]]
    operation: Operation
    start: float
    on_complete: CompletionCallback


class PhotonicFlowNetworkModel(OpusNetworkModel, FlowNetworkModel):
    """Flow-level photonic rails: circuit switching as time-domain events.

    The analytic :class:`PhotonicRailNetworkModel` and this model share the
    entire Opus control plane — the shim intercepts every scale-out
    collective, the planner maps it to per-rail circuits, and
    :meth:`~repro.core.controller.OpusController.ensure` performs the
    switching-time arithmetic.  What changes at flow level is *when things
    are known*:

    * a collective's flows are scheduled at the circuit-ready time the
      controller grants, so the switching delay manifests as simulator events
      separating request from transfer;
    * flow routes resolve at flow start (deferred), over whatever circuits
      the crossbar holds at that instant, and torn circuits fail loudly;
    * circuit busy times are fed back from *actual* flow drains — a
      reconfiguration behind a contended collective waits for the real drain,
      not an analytic estimate;
    * speculative (provisioned) requests fire from the completion hook, i.e.
      when the prior phase's flows have actually drained, and are skipped
      entirely when they would tear a circuit that still carries flows.

    With ``shim_mode="bare"`` this model and :class:`PhotonicRailNetworkModel`
    are the two modes of the bare-OCS backend: every group reconfigures on
    demand.
    """

    #: Routes resolve at flow start, over whatever circuits exist by then.
    deferred_routes = True
    #: Telemetry loop (reactive shims only): per-link utilization samples
    #: feeding an EWMA hotspot detector, whose findings arm the
    #: controller's reactive reconfigurator.
    _telemetry: Optional[LinkTelemetry] = None
    _hotspots: Optional[HotspotDetector] = None

    def __init__(
        self,
        cluster: ClusterSpec,
        mesh: DeviceMesh,
        fabric: Optional[PhotonicRailFabric] = None,
        reconfiguration_delay: Optional[float] = None,
        shim_mode: str = "profile",
        registry: Optional[GroupRegistry] = None,
    ) -> None:
        super().__init__(
            cluster, mesh, fabric, reconfiguration_delay, shim_mode, registry
        )
        #: Collectives in flight per held configuration, per rail.  A rail
        #: holds few configurations at a time, and a circuit carries flows
        #: while any of them contains it.
        self._circuit_load: Dict[int, Dict[CircuitConfiguration, int]] = {}
        #: Collectives whose launch waits for conflicting circuits to drain,
        #: per rail and circuit.
        self._waiters: Dict[int, Dict[Circuit, List[_DeferredLaunch]]] = {}
        #: Reconfiguration records awaiting pickup, keyed by DAG op id.
        self._op_records: Dict[int, List[ReconfigRecord]] = {}
        self.fabric.add_circuit_listener(self._on_circuit_change)

    def _init_network(
        self, cluster: ClusterSpec, mesh: DeviceMesh, fabric: PhotonicRailFabric
    ) -> None:
        FlowNetworkModel.__init__(self, cluster, mesh, fabric.topology)

    def _build_shim(self) -> OpusShim:
        shim = super()._build_shim()
        shim.circuit_guard = self._circuits_idle
        if shim.mode == "reactive":
            # A new shim is a new job as far as learned phase structure is
            # concerned: the reactive state starts from scratch, and the
            # telemetry loop binds to the current (possibly rebuilt) simulator.
            self.controller.reactive = ReactiveReconfigurator()
            self._telemetry = LinkTelemetry(self.simulator)
            self._hotspots = HotspotDetector(self._telemetry)
        return shim

    def _observe_telemetry(self, now: float) -> None:
        """Sample link telemetry and feed hotspot evidence to the controller.

        Driven from collective completions — deterministic, replayable
        instants when the allocator has just settled — never from periodic
        wall-clock events.
        """
        if self._telemetry is None:
            return
        self._telemetry.sample(now)
        assert self._hotspots is not None
        hot = self._hotspots.hotspots()
        if hot and self.controller.reactive is not None:
            self.controller.reactive.note_hotspots(hot)

    def _on_circuit_change(self, event: CircuitChangeEvent) -> None:
        """React to a circuit install or tear on the fabric.

        Installs and tears bump the topology version, so the route table
        drops its memos on its next read; a flow over one direct circuit
        then reads its route from the rail's ledger
        (:class:`~repro.topology.photonic.CircuitRoutes`), and only the
        others search the graph.  A tear also confronts the flows
        *riding* the torn links: the circuit-hold bookkeeping prevents a
        collective's own circuits from being torn under it, but a flow
        detoured over another rail's circuits (e.g. around a failed link or
        OCS port) is invisible to that accounting.  Such flows re-route over
        the surviving fabric or raise the typed
        :class:`~repro.errors.LinkFailedError`, per the simulator's failure
        policy.
        """
        if not event.installed:
            self.simulator.fail_link_ids(event.link_ids)

    # ------------------------------------------------------------------ #
    # Flow-mode interface (circuit-gated)
    # ------------------------------------------------------------------ #

    def begin_comm(
        self,
        operation: Operation,
        start_time: float,
        on_complete: CompletionCallback,
    ) -> None:
        """Gate ``operation`` on its circuits, then inject its flows.

        The circuit request is issued at ``start_time`` (the instant the
        ranks' NICs are ready); the flows are scheduled at the ready time the
        controller grants, so an exposed switching delay appears in the
        simulation as a gap between the two.  If the request would tear a
        circuit whose flows are still on the wire, the whole launch is
        deferred until those flows drain — the drain event re-issues the
        request at the drain time.
        """
        op = operation.collective
        if op is None:
            raise SimulationError(
                f"operation {operation.op_id} has no collective to expand"
            )
        target = self.shim.target_for(op)
        live = self._live_conflicts(target)
        if live:
            self._defer_launch(live, operation, start_time, on_complete)
            return
        grant = self.shim.request_circuits(op, start_time, target)
        if grant.records:
            self._op_records.setdefault(operation.op_id, []).extend(grant.records)
        launch_at = max(start_time, grant.ready_time)
        self._hold(target)

        def _finished(end: float) -> None:
            # Real drain feedback: the controller learns when the circuits
            # actually emptied (notify_transfer marks them busy until then),
            # and only afterwards may waiters / provisioning touch them.
            self._observe_telemetry(end)
            self.shim.notify_transfer(op, launch_at, end, target)
            self._release(target, end)
            on_complete(end)

        super().begin_comm(operation, launch_at, _finished)

    def pop_reconfig_records(self, op_id: int) -> Tuple[ReconfigRecord, ...]:
        records = self._op_records.pop(op_id, None)
        return tuple(records) if records else ()

    # ------------------------------------------------------------------ #
    # Analytic fallback + lifecycle hooks
    # ------------------------------------------------------------------ #

    def timing(self, operation: Operation, ready_time: float) -> CommTiming:
        op = operation.collective
        if op is not None and self.is_scaleout(operation):
            live = self._live_conflicts(self.shim.target_for(op))
            if live:
                # timing() must answer synchronously, so unlike begin_comm it
                # cannot defer until the conflicting flows drain — and letting
                # ensure() tear circuits that still carry flows would silently
                # keep stale capacity allocated.  Fail loudly instead; no
                # bundled workload emits non-expandable scale-out collectives.
                conflicts = ", ".join(
                    f"rail {rail} circuit {circuit}" for rail, circuit in sorted(
                        live, key=lambda item: (item[0], item[1].ports)
                    )
                )
                raise SimulationError(
                    f"analytically-priced collective {op} needs circuits that "
                    f"conflict with live flows ({conflicts}); only expanded "
                    "collectives can wait for in-flight circuits to drain"
                )
        return super().timing(operation, ready_time)

    def on_iteration_start(self, iteration: int, time: float) -> None:
        rewound = time < self.simulator.engine.now
        super().on_iteration_start(iteration, time)
        if rewound:
            self._reset_control_plane()
        self.shim.start_iteration(iteration, time)

    def _reset_control_plane(self) -> None:
        """Fresh control plane for a rewound clock (a second training run)."""
        if self._circuit_load or self._waiters:
            raise SimulationError(
                "cannot rewind the photonic flow model while collectives hold "
                "circuits"
            )
        self.controller.reset()
        self._op_records.clear()
        self.shim = self._build_shim()

    # ------------------------------------------------------------------ #
    # Live-circuit bookkeeping
    # ------------------------------------------------------------------ #

    def _rail_conflicts(
        self, rail: int, configuration: CircuitConfiguration
    ) -> Iterator[Circuit]:
        """Circuits on ``rail`` that carry flows and ``configuration`` would tear."""
        held = self._circuit_load.get(rail)
        if not held or self.controller.known_installed(rail, configuration):
            return
        photonic_rail = self.fabric.rails[rail]
        installed = photonic_rail.circuits
        for circuit in configuration.circuits:
            if circuit in installed:
                continue
            for existing in photonic_rail.conflicts_with(circuit):
                if _carries_flows(held, existing):
                    yield existing

    def _live_conflicts(
        self, target: Dict[int, CircuitConfiguration]
    ) -> Set[Tuple[int, Circuit]]:
        """Installed circuits that carry flows and conflict with ``target``."""
        return {
            (rail, existing)
            for rail, configuration in target.items()
            for existing in self._rail_conflicts(rail, configuration)
        }

    def _circuits_idle(self, rail: int, configuration: CircuitConfiguration) -> bool:
        """Shim guard: may ``configuration`` be installed without tearing live circuits?"""
        return next(self._rail_conflicts(rail, configuration), None) is None

    def _defer_launch(
        self,
        live: Set[Tuple[int, Circuit]],
        operation: Operation,
        start_time: float,
        on_complete: CompletionCallback,
    ) -> None:
        waiter = _DeferredLaunch(set(live), operation, start_time, on_complete)
        for rail, circuit in live:
            self._waiters.setdefault(rail, {}).setdefault(circuit, []).append(waiter)

    def _hold(self, target: Dict[int, CircuitConfiguration]) -> None:
        """Count one more collective in flight on each of ``target``'s configurations."""
        for rail, configuration in target.items():
            counts = self._circuit_load.setdefault(rail, {})
            counts[configuration] = counts.get(configuration, 0) + 1

    def _release(self, target: Dict[int, CircuitConfiguration], end: float) -> None:
        """Drop the holds of a drained collective; re-issue unblocked waiters.

        Waiters wake in the order their circuits stop carrying flows: rail
        by rail as held, circuit by circuit in each configuration's order.
        """
        ready: List[_DeferredLaunch] = []
        for rail, configuration in target.items():
            counts = self._circuit_load[rail]
            count = counts[configuration] - 1
            if count > 0:
                counts[configuration] = count
                continue
            del counts[configuration]
            if not counts:
                del self._circuit_load[rail]
            waiting = self._waiters.get(rail)
            if not waiting:
                continue
            for circuit in configuration.circuits:
                if circuit not in waiting or _carries_flows(counts, circuit):
                    continue
                key = (rail, circuit)
                for waiter in waiting.pop(circuit):
                    waiter.pending.discard(key)
                    if not waiter.pending:
                        ready.append(waiter)
            if not waiting:
                del self._waiters[rail]
        for waiter in ready:
            self.begin_comm(
                waiter.operation, max(waiter.start, end), waiter.on_complete
            )


def _carries_flows(held: Dict[CircuitConfiguration, int], circuit: Circuit) -> bool:
    """Whether any held configuration contains ``circuit``."""
    return any(circuit in configuration.circuits for configuration in held)
