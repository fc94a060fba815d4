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

Circuit-switched fabrics subclass this model in :mod:`repro.core.network`,
where the Opus control plane gates every launch; this module knows nothing of
that control plane.

On contention-free workloads the flow and analytic modes agree: a lone ring
collective's per-step flows each get the bottleneck bandwidth the analytic
model divides out statically, and the per-step launch overhead mirrors the
alpha term.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Set, Tuple

from ..collectives.primitives import CollectiveType
from ..collectives.schedule import Schedule, expand_cached
from ..errors import ConfigurationError, SimulationError, TopologyError
from ..parallelism.dag import Operation
from ..parallelism.mesh import DeviceMesh
from ..topology.base import Link, Topology, gpu_node_name
from ..topology.devices import ClusterSpec
from .fabric_network import TopologyNetworkModel
from .flows import AllocatorStats, FlowSimulator, Routes, StepItems
from .routing import ROUTING_POLICIES, PolicyRouter

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


class _StepRoutes:
    """Deferred routes of one collective step: its (src, dst) rank pairs.

    Called once at the step's start event, when the circuits exist.  A
    picklable callable class rather than a lambda: it lives inside the
    model's cached step items *across* iterations, so a snapshot must
    serialize it and a fork must rebind it (through the deepcopy/pickle
    memo) to the fork's own model — a closure would silently keep resolving
    against the parent simulation's topology.
    """

    __slots__ = ("model", "pairs")

    def __init__(
        self, model: "FlowNetworkModel", pairs: Tuple[Tuple[int, int], ...]
    ) -> None:
        self.model = model
        self.pairs = pairs

    def __call__(self) -> Routes:
        return self.model.step_routes(self.pairs)

    def __getstate__(self):
        return (self.model, self.pairs)

    def __setstate__(self, state):
        self.model, self.pairs = state


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
        steps: List[object],
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
        # On circuit fabrics the items carry a resolver called at the step's
        # start instant (the circuits only exist by then); static packet
        # fabrics carry the concrete route-table entries directly.  Either
        # way the per-step items are built once per schedule and reused
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
        #: Per-schedule step items (routes or route resolver, sizes), keyed
        #: by schedule identity; rebuilt when the route table drops.
        self._step_items: Dict[int, Tuple[Schedule, List[object]]] = {}
        #: Resolved routes per step content (its rank pairs), valid for the
        #: topology version in ``_paths_version`` like the pair table.
        self._step_routes: Dict[Tuple[Tuple[int, int], ...], Routes] = {}

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        # Schedule-identity cache: re-key on the anchored schedule objects.
        # Pickle and deepcopy keep object identity but change id().
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
        return identical paths.
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
        self._sync_paths_version()
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

    def step_routes(self, pairs: Tuple[Tuple[int, int], ...]) -> Routes:
        """Routes of one step's (src, dst) rank pairs, memoized per content.

        Deferred steps resolve here at their start event.  Steps recur with
        the same pairs — every step of a ring, every iteration — so the memo
        resolves each distinct step once per topology version instead of
        once per flow.
        """
        self._sync_paths_version()
        routes = self._step_routes.get(pairs)
        if routes is None:
            path_between = self.path_between
            routes = Routes(
                [path_between(src, dst) for src, dst in pairs], self._paths_version
            )
            if len(self._step_routes) >= 4096:
                self._step_routes.clear()
            self._step_routes[pairs] = routes
        return routes

    def _prefetch_routes(self, steps: Schedule) -> None:
        """Fill the route table for a schedule's unresolved (src, dst) pairs.

        Sources that talk to many destinations across the schedule (the
        AllToAll pattern) are resolved with one early-terminating multi-target
        BFS instead of one shortest-path call per pair; ring-style sources
        (one or two destinations) stay on the per-pair path, which explores
        far less of the graph.
        """
        self._refresh_route_version()
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
        if self._sync_paths_version():
            self._step_items.clear()  # step items embed concrete routes

    def _sync_paths_version(self) -> bool:
        """Drop the version-keyed route tables if the topology changed."""
        version = self.topology.version
        if version == self._paths_version:
            return False
        self._pair_paths.clear()
        self._step_routes.clear()
        self._paths_version = version
        return True

    def step_items(self, steps: Schedule) -> List[object]:
        """Per-step items for a schedule, memoized.

        One :class:`~repro.simulator.flows.StepItems` per step (or, for
        adaptive routing, a ``(resolver, size)`` list whose flows each read
        the live occupancy at their own start).  Built once per schedule
        object and reused across steps, iterations, and repeated
        collectives.  Entries hold a reference to their schedule so the
        ``id`` key stays valid for the cache's lifetime.
        """
        key = id(steps)
        cached = self._step_items.get(key)
        if cached is not None and cached[0] is steps:
            return cached[1]
        if self._router is not None:
            items = self._router.step_items_for(
                steps, self.deferred_routes or self._fault_deferred
            )
        elif self.deferred_routes or self._fault_deferred:
            items = [
                StepItems(
                    _StepRoutes(self, tuple((t.src, t.dst) for t in step.transfers)),
                    [t.size_bytes for t in step.transfers],
                )
                for step in steps
            ]
        else:
            path_between = self.path_between
            version = self.topology.version
            items = [
                StepItems(
                    Routes(
                        [path_between(t.src, t.dst) for t in step.transfers], version
                    ),
                    [t.size_bytes for t in step.transfers],
                )
                for step in steps
            ]
        if len(self._step_items) >= 1024:
            self._step_items.clear()
        self._step_items[key] = (steps, items)
        return items

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
