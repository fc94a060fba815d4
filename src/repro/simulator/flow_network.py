"""Flow-level network mode: collectives expanded into contending fluid flows.

The analytic models in :mod:`repro.simulator.network` and
:mod:`repro.simulator.fabric_network` price every collective independently
with an alpha–beta formula.  That is exact while collectives never share
fabric links, but it cannot see *cross-collective* contention: two
communication groups whose routes cross the same oversubscribed uplink are
each priced as if they owned it.

:class:`FlowNetworkModel` closes that gap.  Every scale-out collective is
expanded — via :func:`repro.collectives.schedule.expand` — into
barrier-synchronized steps of point-to-point transfers; each step's
transfers are routed over the topology graph through the model's
:class:`~repro.simulator.routing.RouteTable` (closed-form fat-tree and
direct-circuit routes, else one
:meth:`~repro.topology.base.Topology.shortest_path` per distinct node pair
and topology version; one :class:`~repro.simulator.flows.Routes` bundle per
distinct step) and handed to the max–min fair
:class:`~repro.simulator.flows.FlowSimulator`.
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

from typing import Callable, List, Optional, Tuple

from ..collectives.primitives import CollectiveType
from ..collectives.schedule import Schedule, expand_cached
from ..errors import ConfigurationError, SimulationError
from ..parallelism.dag import Operation
from ..parallelism.mesh import DeviceMesh
from ..topology.base import Link, Topology
from ..topology.devices import ClusterSpec
from .fabric_network import TopologyNetworkModel
from .flows import AllocatorStats, FlowSimulator, Routes, StepItems
from .routing import (
    ROUTING_POLICIES,
    DeferredRoutes,
    ItemMemo,
    PolicyRouter,
    rekeyed,
)

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
        # fabrics carry the route table's concrete bundles directly.  Either
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
    #: completes) or as the route table's concrete bundles (static packet
    #: fabrics).
    deferred_routes = False

    def __init__(
        self,
        cluster: ClusterSpec,
        mesh: DeviceMesh,
        topology: Topology,
        routing_policy: str = "single",
    ) -> None:
        super().__init__(cluster, mesh, topology)
        #: Multipath routing policy (see :mod:`repro.simulator.routing`).
        #: ``single`` — the default — builds no router: every route is the
        #: route table's shortest path.
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
        #: Set when an installed fault plan mutates links: routes are then
        #: handed to the simulator as deferred resolvers even on static
        #: packet fabrics, so every flow resolves against the live topology
        #: at its start instant instead of embedding a route a fault may
        #: have invalidated.
        self._fault_deferred = False
        #: Step items of deferred models (route resolvers and sizes), keyed
        #: by schedule identity.  They embed no route, so they outlive
        #: topology changes; eager items live in the route table instead.
        self._step_items: ItemMemo = {}

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._step_items = rekeyed(self._step_items)

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
        # Fault reroutes stay under the run's routing policy — and the hook
        # must survive simulator rebuilds (a rewound clock swaps in a fresh
        # simulator), so it is installed here, not in __init__.
        router = self._router
        simulator.route_policy = router.reroute if router else self.route_table.node_path
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
        route table), and the simulator re-rates the affected components and
        re-routes — or fails, per the plan's ``on_link_fail`` policy — the
        flows whose paths died.
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
        to deferred route resolution, the eager step items stay behind in
        the route table, which deferred resolution never reads.
        """
        if plan.is_empty:
            return
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
        """Route between two ranks' GPUs (includes scale-up hops).

        Every flow-mode pair lookup comes through here.  The route table
        never serves a route across a topology version change: circuit
        fabrics mutate connectivity mid-simulation, and a route resolved
        before a reconfiguration must not be served afterwards.
        """
        return self.route_table.path(src_rank, dst_rank)

    def step_routes(self, pairs: Tuple[Tuple[int, int], ...]) -> Routes:
        """Routes of one step's (src, dst) rank pairs, memoized per content.

        Eager steps resolve here when their items are built, deferred steps
        at their start event.  Steps recur with the same pairs — every step
        of a ring, every iteration — so each distinct step resolves once per
        topology version instead of once per flow.
        """
        return self.route_table.step(pairs, self.path_between)

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
        items = self.step_items(self._expanded_schedule(operation))
        _InFlightCollective(self, items, on_complete).launch(start_time)

    def step_items(self, steps: Schedule) -> List[object]:
        """Per-step items for a schedule, memoized.

        One :class:`~repro.simulator.flows.StepItems` per step (or, for
        adaptive routing, a ``(resolver, size)`` list whose flows each read
        the live occupancy at their own start).  Built once per schedule
        object and reused across steps, iterations, and repeated
        collectives.  Items with concrete routes are memoized in the route
        table and drop with its routes; deferred items outlive topology
        changes.
        """
        deferred = self.deferred_routes or self._fault_deferred
        memo = self._step_items if deferred else self.route_table.items()
        key = id(steps)
        cached = memo.get(key)
        if cached is not None and cached[0] is steps:
            return cached[1]
        if self._router is not None:
            items = self._router.step_items_for(steps, deferred)
        else:
            items = []
            for step in steps:
                pairs = tuple([(t.src, t.dst) for t in step.transfers])
                items.append(
                    StepItems(
                        DeferredRoutes(self, pairs) if deferred else self.step_routes(pairs),
                        [t.size_bytes for t in step.transfers],
                    )
                )
        if len(memo) >= 1024:
            memo.clear()
        memo[key] = (steps, items)
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
