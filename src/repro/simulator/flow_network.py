"""Flow-level network mode: collectives expanded into contending fluid flows.

The analytic models in :mod:`repro.simulator.network` and
:mod:`repro.simulator.fabric_network` price every collective independently
with an alpha–beta formula.  That is exact while collectives never share
fabric links, but it cannot see *cross-collective* contention: two
communication groups whose routes cross the same oversubscribed uplink are
each priced as if they owned it.

:class:`FlowNetworkModel` closes that gap.  Every scale-out collective is
expanded — via :func:`repro.collectives.schedule.expand` — into
barrier-synchronized steps of point-to-point transfers; each transfer is
routed over the topology graph with :meth:`~repro.topology.base.Topology.shortest_path`
and handed to the max–min fair :class:`~repro.simulator.flows.FlowSimulator`.
Transfers of *all* in-flight collectives share one simulator, so concurrent
collectives genuinely contend for link capacity.  The DAG executor drives this
model through the ``begin_comm`` / ``next_event_time`` / ``advance`` interface
(see :class:`~repro.simulator.executor.DAGExecutor`); ``timing`` remains the
analytic fallback used for scale-up collectives and for collective types
without a point-to-point expansion.

:class:`PhotonicFlowNetworkModel` extends the machinery to circuit-switched
fabrics: topology change becomes a first-class, time-domain event.  Every
collective's launch is gated on :meth:`~repro.core.controller.OpusController.ensure`
— the OCS switching delay separates the request from the flow start, routes
are resolved only when the flows actually start (the circuits exist by then),
the per-pair path cache invalidates on topology version bumps, and the real
drain times of completed flows feed the controller's busy bookkeeping instead
of analytic estimates.  The same model with profiling/provisioning/coalescing
disabled is the flow-level twin of the bare-OCS backend.

On contention-free workloads the flow and analytic modes agree: a lone ring
collective's per-step flows each get the bottleneck bandwidth the analytic
model divides out statically, and the per-step launch overhead mirrors the
alpha term.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Set, Tuple, Union

from ..collectives.primitives import CollectiveType
from ..collectives.schedule import Schedule, Transfer, expand_cached
from ..errors import SimulationError, TopologyError
from ..parallelism.dag import Operation
from ..parallelism.mesh import DeviceMesh
from ..parallelism.trace import ReconfigRecord
from ..topology.base import Link, Topology, gpu_node_name
from ..topology.devices import ClusterSpec
from ..topology.electrical import build_fully_connected_rail_topology
from ..topology.fattree import build_fat_tree_fabric
from ..topology.ocs import Circuit
from ..topology.photonic import PhotonicRailFabric, build_photonic_rail_fabric
from ..topology.railopt import build_rail_optimized_fabric
from .fabric_network import TopologyNetworkModel
from .flows import AllocatorStats, FlowSimulator
from .network import CommTiming
from .routing import ROUTING_POLICIES, PolicyRouter
from .telemetry import HotspotDetector, LinkTelemetry

if TYPE_CHECKING:  # pragma: no cover - import cycle broken at runtime
    from ..core.circuits import RailConfiguration
    from ..core.controller import OpusController
    from ..core.shim import OpusShim, ShimOptions
    from ..parallelism.groups import GroupRegistry
    from ..topology.devices import OCSTechnology
    from ..topology.ocs import CircuitConfiguration
    from ..topology.photonic import CircuitChangeEvent

#: Called with the completion time when an expanded collective finishes.
CompletionCallback = Callable[[float], None]

#: Collective types with a point-to-point expansion whose total wire traffic
#: matches the analytic ring/pairwise accounting.  Broadcast and Reduce ride
#: the analytic fallback (their ring schedules forward the full payload every
#: hop, which the alpha-beta model deliberately does not charge), and Barrier
#: is latency-only.
EXPANDABLE_COLLECTIVES = frozenset(
    {
        CollectiveType.ALL_REDUCE,
        CollectiveType.ALL_GATHER,
        CollectiveType.REDUCE_SCATTER,
        CollectiveType.ALL_TO_ALL,
        CollectiveType.SEND_RECV,
    }
)


class _RouteResolver:
    """Deferred route lookup for one (src, dst) rank pair.

    A picklable callable class rather than a lambda: resolvers live inside
    the model's cached step items *across* iterations, so a snapshot must
    serialize them and a fork must rebind them (through the deepcopy/pickle
    memo) to the fork's own model — a closure would silently keep resolving
    against the parent simulation's topology.
    """

    __slots__ = ("model", "src", "dst")

    def __init__(self, model: "FlowNetworkModel", src: int, dst: int) -> None:
        self.model = model
        self.src = src
        self.dst = dst

    def __call__(self) -> Tuple[Link, ...]:
        return self.model.path_between(self.src, self.dst)

    def __getstate__(self):
        return (self.model, self.src, self.dst)

    def __setstate__(self, state):
        self.model, self.src, self.dst = state


class _DeferredLaunch:
    """A collective launch waiting for conflicting circuits to drain."""

    __slots__ = ("pending", "operation", "start", "on_complete")

    def __init__(
        self,
        pending: Set[Tuple[int, Circuit]],
        operation: Operation,
        start: float,
        on_complete: CompletionCallback,
    ) -> None:
        self.pending = pending
        self.operation = operation
        self.start = start
        self.on_complete = on_complete


class _InFlightCollective:
    """Progress tracker for one collective expanded into per-step flows.

    Launches one step at a time: when the last flow of step ``k`` completes,
    step ``k+1`` is injected after the per-step software overhead (the alpha
    term's launch cost).  Each step is injected through the simulator's bulk
    interface — one engine event and one completion callback for the whole
    step.  When the final step drains, the owner's completion callback fires
    with the collective's end time.
    """

    __slots__ = ("_model", "_steps", "_on_complete", "_step_index", "_step_end")

    def __init__(
        self,
        model: "FlowNetworkModel",
        steps: List[List[Tuple[object, float]]],
        on_complete: CompletionCallback,
    ) -> None:
        self._model = model
        self._steps = steps
        self._on_complete = on_complete
        self._step_index = -1
        self._step_end = 0.0

    def launch(self, start_time: float) -> None:
        """Inject the first step; completes immediately for empty schedules."""
        self._step_end = start_time
        self._advance(start_time)

    def _advance(self, ready_time: float) -> None:
        self._step_index += 1
        if self._step_index >= len(self._steps):
            self._on_complete(self._step_end)
            return
        launch_at = ready_time + self._model.per_step_overhead
        # On circuit fabrics the items carry resolvers called at the flow's
        # start instant (the circuits only exist by then); static packet
        # fabrics carry the concrete route-table entries directly.  Either
        # way the per-step item lists are built once per schedule and reused
        # across steps, iterations, and collectives with the same shape.
        self._model.simulator.add_flows(
            self._steps[self._step_index], launch_at, self._step_done
        )

    def _step_done(self, end: float) -> None:
        if end > self._step_end:
            self._step_end = end
        self._advance(self._step_end)


class FlowNetworkModel(TopologyNetworkModel):
    """Topology-routed network model timed by max–min fair flow simulation.

    Inherits the analytic path resolution of :class:`TopologyNetworkModel`
    (used by :meth:`timing` as the fallback for scale-up collectives and
    non-expandable collective types) and adds the flow-mode interface the
    executor drives:

    * :meth:`can_expand` — whether an operation is simulated at flow level;
    * :meth:`begin_comm` — inject a collective's step schedule at its start
      time and register a completion callback;
    * :attr:`next_event_time` / :meth:`advance` — expose the shared flow
      simulator's event clock so the executor can interleave scheduling
      decisions with network progress.
    """

    #: Marks this model as driving the executor's flow-mode scheduling loop.
    flow_mode = True

    #: Whether routes are handed to the simulator as deferred resolvers
    #: (circuit fabrics, where the route only exists once the switching event
    #: completes) or as concrete route-table entries (static packet fabrics).
    deferred_routes = False

    #: A source with at least this many unresolved destinations in one
    #: collective schedule is routed with a single multi-target BFS instead
    #: of per-pair shortest-path calls (the AllToAll pattern).  The BFS only
    #: pays off when the destination set is a sizable fraction of the fabric:
    #: settling even one cross-pod target forces the level-synchronous search
    #: through entire switch tiers (~the whole graph), while a bidirectional
    #: per-pair search meets in the middle and explores orders of magnitude
    #: less.  Both resolve identical routes (same min-hop, same min-link-id
    #: tie-breaks), so the choice is purely a cost model: use the BFS when
    #: ``len(dsts)`` rivals ``num_nodes / _MULTI_TARGET_NODE_RATIO``.
    _MULTI_TARGET_MIN = 4
    _MULTI_TARGET_NODE_RATIO = 256

    def __init__(
        self,
        cluster: ClusterSpec,
        mesh: DeviceMesh,
        topology: Topology,
        routing_policy: str = "single",
    ) -> None:
        super().__init__(cluster, mesh, topology)
        #: Multipath routing policy (see :mod:`repro.simulator.routing`).
        #: ``single`` — the default — takes exactly the pre-policy code path:
        #: no router is built and every route goes through the plain
        #: shortest-path table, bit-for-bit.
        policy = str(routing_policy)
        if policy not in ROUTING_POLICIES:
            from ..errors import ConfigurationError

            raise ConfigurationError(
                f"unknown routing_policy {policy!r}; expected one of "
                f"{', '.join(ROUTING_POLICIES)}"
            )
        self.routing_policy = policy
        self._router: Optional[PolicyRouter] = (
            PolicyRouter(self, policy) if policy != "single" else None
        )
        #: Allocation counters, shared across simulator rebuilds so a whole
        #: training run reports one consistent set of totals.
        self.flow_stats = AllocatorStats()
        self.simulator = self._fresh_simulator()
        #: Per-step software launch overhead, matching the analytic alpha term.
        self.per_step_overhead = self._scaleout_link.per_message_overhead
        self._pair_paths: Dict[Tuple[int, int], Tuple[Link, ...]] = {}
        #: Set when an installed fault plan mutates links: routes are then
        #: handed to the simulator as deferred resolvers even on static
        #: packet fabrics, so every flow resolves against the live topology
        #: at its start instant instead of embedding a route a fault may
        #: have invalidated.
        self._fault_deferred = False
        #: Topology version the path cache was built at; a mismatch (circuits
        #: installed or torn since) drops every cached route.
        self._paths_version = topology.version
        #: Per-schedule flow-item lists (route/resolver + size per transfer),
        #: keyed by schedule identity; rebuilt when the route table drops.
        self._step_items: Dict[int, Tuple[Schedule, List[List[Tuple[object, float]]]]] = {}

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        # Schedule-identity cache: re-key on the anchored schedule objects,
        # whose identity pickle/deepcopy preserve while their id() changes
        # (see FlowSimulator.__setstate__ for the full rationale).
        self._step_items = {
            id(cached[0]): cached for cached in self._step_items.values()
        }

    # ------------------------------------------------------------------ #
    # Flow-mode interface
    # ------------------------------------------------------------------ #

    def on_iteration_start(self, iteration: int, time: float) -> None:
        """Reset the simulator clock when a fresh run rewinds simulated time.

        Within one training run iterations start monotonically later, but a
        reused model (a second ``run_training``, or a second executor sharing
        the model) restarts at an earlier time than the previous run's end —
        which the event engine would reject.  Between iterations every
        collective has drained, so swapping in a fresh simulator is safe —
        except under a fault plan, whose one-shot events and accumulated
        topology damage cannot be replayed into a fresh clock.
        """
        if time < self.simulator.engine.now:
            if self.fault_injector is not None:
                raise SimulationError(
                    "cannot rewind a flow simulation with a fault plan "
                    "installed; build a fresh network model per training run"
                )
            if self.simulator.active_flows or self.simulator.engine.pending:
                raise SimulationError(
                    "cannot rewind the flow simulator while flows are in flight"
                )
            self.simulator = self._fresh_simulator()

    def _fresh_simulator(self) -> FlowSimulator:
        """A simulator carrying this model's topology and shared counters."""
        simulator = FlowSimulator(
            topology=self.topology,
            stats=self.flow_stats,
        )
        if self._router is not None:
            # Fault reroutes must stay under the run's routing policy — and
            # the hook must survive simulator rebuilds (a rewound clock swaps
            # in a fresh simulator), so it is installed here, not in __init__.
            simulator.route_policy = self._router.reroute
        return simulator

    def on_iteration_end(self, iteration: int, time: float) -> None:
        if self.fault_injector is not None:
            # Settle fault events inside the iteration window even when every
            # collective drained before they fired, so fault application (and
            # its trace records) stays deterministic per iteration.
            self.simulator.engine.run(until=time)

    def install_fault_plan(self, plan) -> None:
        """Bind a fault plan, scheduling its events on the flow engine.

        Faults interrupt the simulation at their exact instants: link events
        mutate the topology (bumping the version, which invalidates the
        route tables and step-item caches), and the simulator re-rates the
        affected components and re-routes — or fails, per the plan's
        ``on_link_fail`` policy — the flows whose paths died.
        """
        from .faults import FaultInjector

        injector = FaultInjector(plan, topology=self.topology)
        simulator = self.simulator
        simulator.link_failure_policy = plan.on_link_fail
        injector.on_links_failed = simulator.fail_links
        injector.on_links_changed = simulator.apply_link_change
        if plan.has_link_events:
            self._fault_deferred = True
        injector.schedule_on(simulator.engine)
        self.fault_injector = injector

    def extend_fault_plan(self, plan) -> None:
        """Install additional fault events on a live (possibly mid-run) model.

        Fork-sweep branches call this right after copying the shared prefix:
        the branch keeps the prefix's injector state and gains its own tail
        of events.  With no plan installed yet this is a mid-run
        ``install_fault_plan``.  When link events flip the model from eager
        to deferred route resolution, the step-item lists are dropped: they
        embed concrete pre-fault routes that nothing would ever invalidate
        once ``_prefetch_routes`` stops running.  The per-pair route table
        survives the switch — it is keyed on the topology version (faults
        bump it when they *fire*), and the eager and deferred resolvers
        return identical paths — so the allocator's identity-anchored rate
        memos keep hitting exactly as a straight deferred run's would.
        """
        if plan.is_empty:
            return
        was_deferred = self.deferred_routes or self._fault_deferred
        if self.fault_injector is None:
            self.install_fault_plan(plan)
        else:
            if self.fault_injector.plan.on_link_fail != plan.on_link_fail:
                raise SimulationError(
                    "extended fault events carry a different on_link_fail "
                    f"policy ({plan.on_link_fail!r}) than the installed plan "
                    f"({self.fault_injector.plan.on_link_fail!r})"
                )
            self.fault_injector.extend(plan.events, engine=self.simulator.engine)
            if plan.has_link_events:
                self._fault_deferred = True
        if not was_deferred and (self.deferred_routes or self._fault_deferred):
            self._step_items.clear()

    def can_expand(self, operation: Operation) -> bool:
        """Whether ``operation`` is expanded into flows (vs priced analytically)."""
        if operation.collective is None:
            raise SimulationError(
                f"operation {operation.op_id} has no collective to expand"
            )
        return (
            self.is_scaleout(operation)
            and operation.collective.collective in EXPANDABLE_COLLECTIVES
        )

    def path_between(self, src_rank: int, dst_rank: int) -> Tuple[Link, ...]:
        """Route between two ranks' GPUs (cached; includes scale-up hops).

        The cache is keyed on the topology version: circuit fabrics mutate
        connectivity mid-simulation, and a route resolved before a
        reconfiguration must not be served afterwards.
        """
        version = self.topology.version
        if version != self._paths_version:
            self._pair_paths.clear()
            self._paths_version = version
        key = (src_rank, dst_rank)
        path = self._pair_paths.get(key)
        if path is None:
            try:
                path = tuple(
                    self.topology.shortest_path(
                        gpu_node_name(self.mesh.gpu_of(src_rank)),
                        gpu_node_name(self.mesh.gpu_of(dst_rank)),
                    )
                )
            except TopologyError as exc:
                raise SimulationError(
                    f"no route from rank {src_rank} to rank {dst_rank} on "
                    f"{self.topology.name!r}: {exc}"
                ) from exc
            self._pair_paths[key] = path
        return path

    def transfer_path(
        self, transfer: Transfer
    ) -> Union[Tuple[Link, ...], Callable[[], Tuple[Link, ...]]]:
        """Route of one expanded transfer.

        Static packet fabrics return the concrete route-table entry; circuit
        fabrics (``deferred_routes``) return a resolver called at the flow's
        start instant, when the circuits actually exist.
        """
        if self.deferred_routes or self._fault_deferred:
            return _RouteResolver(self, transfer.src, transfer.dst)
        return self.path_between(transfer.src, transfer.dst)

    def _prefetch_routes(self, steps: Schedule) -> None:
        """Fill the route table for a schedule's unresolved (src, dst) pairs.

        Sources that talk to many destinations across the schedule (the
        AllToAll pattern) are resolved with one early-terminating multi-target
        BFS instead of one shortest-path call per pair; ring-style sources
        (one or two destinations) stay on the per-pair path, which explores
        far less of the graph.
        """
        version = self.topology.version
        if version != self._paths_version:
            self._pair_paths.clear()
            self._step_items.clear()  # item lists embed concrete routes
            self._paths_version = version
        cache = self._pair_paths
        by_src: Dict[int, Set[int]] = {}
        for step in steps:
            for transfer in step.transfers:
                if (transfer.src, transfer.dst) not in cache:
                    by_src.setdefault(transfer.src, set()).add(transfer.dst)
        multi_target_min = max(
            self._MULTI_TARGET_MIN,
            self.topology.num_nodes // self._MULTI_TARGET_NODE_RATIO,
        )
        for src, dsts in by_src.items():
            if len(dsts) < multi_target_min:
                continue  # per-pair resolution explores less of the graph
            node_to_rank = {
                gpu_node_name(self.mesh.gpu_of(dst)): dst for dst in dsts
            }
            found = self.topology.paths_from(
                gpu_node_name(self.mesh.gpu_of(src)), node_to_rank
            )
            for node, path in found.items():
                cache[(src, node_to_rank[node])] = tuple(path)
        # Pairs still missing (few-destination sources, unreachable targets)
        # resolve lazily through path_between, which also raises the proper
        # SimulationError for genuinely unroutable pairs.

    def begin_comm(
        self,
        operation: Operation,
        start_time: float,
        on_complete: CompletionCallback,
    ) -> None:
        """Inject ``operation``'s step schedule starting at ``start_time``.

        ``on_complete`` fires (possibly synchronously for degenerate empty
        schedules) with the collective's completion time once its last step
        drains.
        """
        steps = self._expanded_schedule(operation)
        if not (self.deferred_routes or self._fault_deferred):
            if self._router is None:
                self._prefetch_routes(steps)
            else:
                # Policy-routed runs keep their path sets in the router
                # (version-keyed there), but the cached step items embed the
                # chosen concrete routes and must drop on a version bump.
                self._refresh_route_version()
        items = self.step_items(steps)
        _InFlightCollective(self, items, on_complete).launch(start_time)

    def _refresh_route_version(self) -> None:
        """Drop route-embedding caches when the topology version moved."""
        version = self.topology.version
        if version != self._paths_version:
            self._pair_paths.clear()
            self._step_items.clear()
            self._paths_version = version

    def step_items(
        self, steps: Schedule
    ) -> List[List[Tuple[object, float]]]:
        """Per-step ``(route, size)`` item lists for a schedule, memoized.

        Built once per schedule object and reused across steps, iterations,
        and repeated collectives: route resolution (or resolver construction,
        on circuit fabrics) happens once instead of once per flow injection.
        Entries hold a reference to their schedule so the ``id`` key stays
        valid for the cache's lifetime.
        """
        key = id(steps)
        cached = self._step_items.get(key)
        if cached is not None and cached[0] is steps:
            return cached[1]
        if self._router is not None:
            items = self._router.step_items_for(
                steps, self.deferred_routes or self._fault_deferred
            )
        else:
            transfer_path = self.transfer_path
            items = [
                [(transfer_path(t), t.size_bytes) for t in step.transfers]
                for step in steps
            ]
        if len(self._step_items) >= 1024:
            self._step_items.clear()
        self._step_items[key] = (steps, items)
        return items

    def pop_reconfig_records(self, op_id: int) -> Tuple[ReconfigRecord, ...]:
        """Reconfigurations performed on behalf of collective ``op_id``.

        Called by the executor when the collective completes; packet fabrics
        never reconfigure, circuit fabrics override this.
        """
        return ()

    def _expanded_schedule(self, operation: Operation) -> Schedule:
        if operation.collective is None:
            raise SimulationError(
                f"operation {operation.op_id} has no collective to expand"
            )
        # Shared across models and iterations: expansions are pure functions
        # of (collective type, group, size), which is the cache key.
        return expand_cached(operation.collective)

    @property
    def next_event_time(self) -> Optional[float]:
        """Time of the network's next event, or ``None`` when idle."""
        return self.simulator.engine.next_event_time

    def advance(self) -> bool:
        """Process one network event; returns ``False`` when idle."""
        return self.simulator.engine.step()


class PhotonicFlowNetworkModel(FlowNetworkModel):
    """Flow-level photonic rails: circuit switching as time-domain events.

    The analytic :class:`~repro.core.network.PhotonicRailNetworkModel` and
    this model share the entire Opus control plane — the shim intercepts every
    scale-out collective, the planner maps it to per-rail circuits, and
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

    With ``profile_first_iteration=False``, ``provisioning=False`` and
    ``coalesce_axis=False`` the same model serves as the flow-level twin of
    the bare-OCS backend: every group reconfigures on demand.
    """

    #: Routes resolve at flow start, over whatever circuits exist by then.
    deferred_routes = True

    def __init__(
        self,
        cluster: ClusterSpec,
        mesh: DeviceMesh,
        fabric: Optional[PhotonicRailFabric] = None,
        reconfiguration_delay: Optional[float] = None,
        shim_options: Optional["ShimOptions"] = None,
        registry: Optional["GroupRegistry"] = None,
    ) -> None:
        # Imported lazily: repro.core pulls repro.experiments (through
        # core.system) which imports this module back at its own module level.
        from ..core.controller import OpusController
        from ..errors import ConfigurationError

        fabric = fabric or build_photonic_rail_fabric(cluster)
        if fabric.cluster is not cluster:
            raise ConfigurationError(
                "the photonic fabric must be built from the same cluster "
                "specification as the network model"
            )
        super().__init__(cluster, mesh, fabric.topology)
        self.fabric = fabric
        self._shim_options = shim_options
        self._registry = registry
        self.controller: "OpusController" = OpusController(
            fabric, reconfiguration_delay=reconfiguration_delay
        )
        #: In-flight flow count per installed circuit, keyed by (rail, circuit).
        self._circuit_load: Dict[Tuple[int, Circuit], int] = {}
        #: Collectives whose launch waits for conflicting circuits to drain.
        self._waiters: Dict[Tuple[int, Circuit], List[_DeferredLaunch]] = {}
        #: Reconfiguration records awaiting pickup, keyed by DAG op id.
        self._op_records: Dict[int, List[ReconfigRecord]] = {}
        self.shim: "OpusShim" = self._build_shim()
        #: Telemetry loop (reactive mode only): per-link utilization samples
        #: feeding an EWMA hotspot detector, whose findings arm the
        #: controller's reactive reconfigurator.
        self._telemetry: Optional[LinkTelemetry] = None
        self._hotspots: Optional[HotspotDetector] = None
        if shim_options is not None and shim_options.reactive:
            self._attach_reactive()
        fabric.add_circuit_listener(self._on_circuit_change)

    def _attach_reactive(self) -> None:
        """Build the telemetry loop and hand the controller its reactive state."""
        from ..core.controller import ReactiveReconfigurator

        self.controller.reactive = ReactiveReconfigurator()
        self._telemetry = LinkTelemetry(self.simulator)
        self._hotspots = HotspotDetector(self._telemetry)

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

    def _on_circuit_change(self, event: "CircuitChangeEvent") -> None:
        """React to a circuit install or tear on the fabric.

        Installs and tears drop the route cache eagerly (the topology
        version check would catch them too; this keeps the cache from
        holding torn Link objects between version probes).  A tear
        additionally confronts the flows *riding* the torn links: the
        circuit-hold bookkeeping prevents a collective's own circuits from
        being torn under it, but a flow detoured over another rail's
        circuits (e.g. around a failed link) is invisible to that
        accounting — previously it silently kept charging capacity that no
        longer existed.  Such flows now re-route over the surviving fabric
        or raise the typed :class:`~repro.errors.LinkFailedError`, per the
        simulator's failure policy.
        """
        self._pair_paths.clear()
        if not event.installed:
            self.simulator.fail_link_ids(event.link_ids)

    def _build_shim(self) -> "OpusShim":
        from ..core.shim import OpusShim

        shim = OpusShim(
            fabric=self.fabric,
            mesh=self.mesh,
            controller=self.controller,
            registry=self._registry,
            options=self._shim_options,
        )
        shim.circuit_guard = self._circuits_idle
        return shim

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
        grant = self.shim.request_circuits(op, start_time)
        if grant.records:
            self._op_records.setdefault(operation.op_id, []).extend(grant.records)
        launch_at = max(start_time, grant.ready_time)
        held = self._hold_circuits(target)

        def _finished(end: float) -> None:
            # Real drain feedback: the controller learns when the circuits
            # actually emptied (notify_transfer marks them busy until then),
            # and only afterwards may waiters / provisioning touch them.
            self._observe_telemetry(end)
            self.shim.notify_transfer(op, launch_at, end)
            self._release_circuits(held, end)
            on_complete(end)

        steps = self._expanded_schedule(operation)
        _InFlightCollective(self, self.step_items(steps), _finished).launch(launch_at)

    def pop_reconfig_records(self, op_id: int) -> Tuple[ReconfigRecord, ...]:
        records = self._op_records.pop(op_id, None)
        return tuple(records) if records else ()

    # ------------------------------------------------------------------ #
    # Analytic fallback + lifecycle hooks
    # ------------------------------------------------------------------ #

    def _scaleout_duration(self, operation: Operation) -> float:
        # Circuits give every cross-domain hop the full port line rate — the
        # paper's equal-bandwidth assumption (§4.2) — so the analytic fallback
        # prices at the plain scale-out link instead of routing through the
        # mutable circuit graph, matching PhotonicRailNetworkModel exactly.
        if operation.collective is None:
            raise SimulationError(
                f"operation {operation.op_id} has no collective to price"
            )
        return self._ring.collective_time(operation.collective, self._scaleout_link)

    def timing(self, operation: Operation, ready_time: float) -> CommTiming:
        op = operation.collective
        if op is None:
            raise SimulationError(
                f"operation {operation.op_id} has no collective to price"
            )
        duration = self.transfer_duration(operation)
        if not self.is_scaleout(operation):
            return CommTiming(start=ready_time, end=ready_time + duration)
        live = self._live_conflicts(self.shim.target_for(op))
        if live:
            # timing() must answer synchronously, so unlike begin_comm it
            # cannot defer until the conflicting flows drain — and letting
            # ensure() tear circuits that still carry flows would silently
            # keep stale capacity allocated.  Fail loudly instead; no bundled
            # workload emits non-expandable scale-out collectives.
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
        grant = self.shim.request_circuits(op, ready_time)
        start = max(ready_time, grant.ready_time)
        end = start + duration
        self.shim.notify_transfer(op, start, end)
        return CommTiming(start=start, end=end, reconfigs=grant.records)

    def on_comm_end(self, operation: Operation, end_time: float) -> None:
        if operation.collective is not None and self.is_scaleout(operation):
            self.shim.notify_completion(operation.collective, end_time)

    def on_iteration_start(self, iteration: int, time: float) -> None:
        rewound = time < self.simulator.engine.now
        super().on_iteration_start(iteration, time)
        if rewound:
            self._reset_control_plane()
        self.shim.start_iteration(iteration, time)

    def on_iteration_end(self, iteration: int, time: float) -> None:
        super().on_iteration_end(iteration, time)
        self.shim.end_iteration(iteration, time)

    def install_fault_plan(self, plan) -> None:
        """Bind a fault plan; adds OCS port failures to the link machinery."""
        super().install_fault_plan(plan)
        self.fault_injector.on_port_failed = self._apply_port_failure

    def _apply_port_failure(self, event, now: float) -> None:
        """Kill one OCS port: tear its circuit, reroute riders, replan.

        The controller marks the port permanently conflicting and tears the
        circuit it carried through the fabric, whose circuit-change event
        lands in :meth:`_on_circuit_change` — re-routing or failing any
        flows on the wire.  Dropping the planner caches makes every future
        configuration route around the failed port.
        """
        self.controller.fail_port(event.rail, event.port)
        self.shim.planner.clear_cache()

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
        if self._telemetry is not None:
            # Rebind the telemetry loop to the (possibly rebuilt) simulator
            # and start the reactive state from scratch — a rewound clock is
            # a new job as far as learned phase structure is concerned.
            self._attach_reactive()

    # ------------------------------------------------------------------ #
    # Live-circuit bookkeeping
    # ------------------------------------------------------------------ #

    def _live_conflicts(
        self, target: "RailConfiguration"
    ) -> Set[Tuple[int, Circuit]]:
        """Installed circuits that carry flows and conflict with ``target``."""
        live: Set[Tuple[int, Circuit]] = set()
        for rail in target.rails():
            state = self.controller.rail_state(rail)
            for circuit in target.configuration(rail).circuits:
                if circuit in state.installed:
                    continue
                for existing in state.conflicts_with(circuit):
                    if self._circuit_load.get((rail, existing), 0) > 0:
                        live.add((rail, existing))
        return live

    def _circuits_idle(self, rail: int, configuration: "CircuitConfiguration") -> bool:
        """Shim guard: may ``configuration`` be installed without tearing live circuits?"""
        state = self.controller.rail_state(rail)
        for circuit in configuration.circuits:
            if circuit in state.installed:
                continue
            for existing in state.conflicts_with(circuit):
                if self._circuit_load.get((rail, existing), 0) > 0:
                    return False
        return True

    def _defer_launch(
        self,
        live: Set[Tuple[int, Circuit]],
        operation: Operation,
        start_time: float,
        on_complete: CompletionCallback,
    ) -> None:
        waiter = _DeferredLaunch(set(live), operation, start_time, on_complete)
        for key in live:
            self._waiters.setdefault(key, []).append(waiter)

    def _hold_circuits(
        self, target: "RailConfiguration"
    ) -> List[Tuple[int, Circuit]]:
        held: List[Tuple[int, Circuit]] = []
        for rail in target.rails():
            for circuit in target.configuration(rail).circuits:
                key = (rail, circuit)
                self._circuit_load[key] = self._circuit_load.get(key, 0) + 1
                held.append(key)
        return held

    def _release_circuits(
        self, held: List[Tuple[int, Circuit]], end: float
    ) -> None:
        ready: List[_DeferredLaunch] = []
        for key in held:
            count = self._circuit_load.get(key, 0) - 1
            if count > 0:
                self._circuit_load[key] = count
                continue
            self._circuit_load.pop(key, None)
            for waiter in self._waiters.pop(key, []):
                waiter.pending.discard(key)
                if not waiter.pending:
                    ready.append(waiter)
        for waiter in ready:
            self.begin_comm(
                waiter.operation, max(waiter.start, end), waiter.on_complete
            )

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


# --------------------------------------------------------------------------- #
# Per-fabric constructors
# --------------------------------------------------------------------------- #


def electrical_flow_network(
    cluster: ClusterSpec,
    mesh: DeviceMesh,
    routing_policy: str = "single",
) -> FlowNetworkModel:
    """Flow-level twin of the fully-connected electrical rail baseline."""
    return FlowNetworkModel(
        cluster,
        mesh,
        build_fully_connected_rail_topology(cluster),
        routing_policy=routing_policy,
    )


def fat_tree_flow_network(
    cluster: ClusterSpec,
    mesh: DeviceMesh,
    oversubscription: float = 1.0,
    routing_policy: str = "single",
) -> FlowNetworkModel:
    """Flow-level twin of the fat-tree fabric (optionally oversubscribed)."""
    fabric = build_fat_tree_fabric(cluster, oversubscription=oversubscription)
    return FlowNetworkModel(
        cluster,
        mesh,
        fabric.topology,
        routing_policy=routing_policy,
    )


def rail_optimized_flow_network(
    cluster: ClusterSpec,
    mesh: DeviceMesh,
    always_spine: bool = True,
    routing_policy: str = "single",
) -> FlowNetworkModel:
    """Flow-level twin of the leaf/spine rail-optimized fabric."""
    fabric = build_rail_optimized_fabric(cluster, always_spine=always_spine)
    return FlowNetworkModel(
        cluster,
        mesh,
        fabric.topology,
        routing_policy=routing_policy,
    )


def shim_options_for_provisioning(provisioning: object) -> "ShimOptions":
    """Map the ``provisioning`` knob onto shim options.

    Booleans keep their historical meaning (``True`` = profile-driven
    speculative provisioning, ``False`` = profile but reconfigure on
    demand); the string values spell the full mode space out:

    * ``"profile"`` — profile the first iteration, then provision from it;
    * ``"none"`` — profile but never provision (every phase change pays its
      switching delay on demand);
    * ``"reactive"`` — no profiling iteration at all: phase structure is
      learned online and speculation is driven by telemetry (blocking +
      hotspot evidence).
    """
    from ..core.shim import ShimOptions
    from ..errors import ConfigurationError

    if not isinstance(provisioning, str):
        return ShimOptions(provisioning=bool(provisioning))
    if provisioning == "profile":
        return ShimOptions(provisioning=True)
    if provisioning == "none":
        return ShimOptions(provisioning=False)
    if provisioning == "reactive":
        return ShimOptions(
            provisioning=False,
            profile_first_iteration=False,
            reactive=True,
        )
    raise ConfigurationError(
        f"unknown provisioning mode {provisioning!r}; expected a boolean or "
        "one of 'profile', 'none', 'reactive'"
    )


def photonic_flow_network(
    cluster: ClusterSpec,
    mesh: DeviceMesh,
    reconfiguration_delay: Optional[float] = None,
    provisioning: Union[bool, str] = True,
    technology: Optional["OCSTechnology"] = None,
    registry: Optional["GroupRegistry"] = None,
) -> PhotonicFlowNetworkModel:
    """Flow-level photonic rails under the full Opus control plane."""
    fabric = build_photonic_rail_fabric(cluster, technology=technology)
    return PhotonicFlowNetworkModel(
        cluster,
        mesh,
        fabric=fabric,
        reconfiguration_delay=reconfiguration_delay,
        shim_options=shim_options_for_provisioning(provisioning),
        registry=registry,
    )


def bare_ocs_flow_network(
    cluster: ClusterSpec,
    mesh: DeviceMesh,
    reconfiguration_delay: Optional[float] = None,
    technology: Optional["OCSTechnology"] = None,
    registry: Optional["GroupRegistry"] = None,
) -> PhotonicFlowNetworkModel:
    """Flow-level bare OCS rails: on-demand per-group switching, no Opus.

    Profiling, provisioning, and axis coalescing are disabled, so every
    communication group pays its own switching event whenever its circuits
    are missing — the flow-level counterpart of the analytic
    :class:`~repro.simulator.fabric_network.OCSReconfigurableNetworkModel`
    envelope.
    """
    from ..core.shim import ShimOptions

    fabric = build_photonic_rail_fabric(cluster, technology=technology)
    return PhotonicFlowNetworkModel(
        cluster,
        mesh,
        fabric=fabric,
        reconfiguration_delay=reconfiguration_delay,
        shim_options=ShimOptions(
            provisioning=False,
            profile_first_iteration=False,
            coalesce_axis=False,
        ),
        registry=registry,
    )
