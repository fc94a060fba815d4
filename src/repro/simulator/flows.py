"""Flow-level (fluid) network simulation with max–min fair bandwidth sharing.

Each flow moves ``size_bytes`` along a fixed path of links.  Whenever the set
of active flows changes (an arrival or a completion), the simulator
recomputes the max–min fair allocation with the standard progressive-filling
algorithm and reschedules the next completion.  This is the usual fluid
approximation used by datacenter-fabric studies, including the ones the paper
builds on (TopoOpt, Rail-only): no packets, no transport dynamics, just
capacity sharing.

The engine is batch-granular.  A *batch* — what one
:meth:`FlowSimulator.add_flows` call injects, one collective step — is the
unit of admission, link registration, rating and completion.  It keeps its
flows' state in columns (remaining bytes, rate, progress, epoch, finish time)
beside the per-flow link ids of its :class:`Routes`; a :class:`Flow` is a
handle onto one row.  Flows that start together on links nobody else uses —
every step on provisioned circuits — claim those links with one dict update,
run at their path bottleneck and retire as a batch.  Otherwise the simulator
keeps per-link user sets and re-rates only the flows that (transitively)
share links with an arrival or completion.  Max–min fair allocation
decomposes exactly over link-sharing components, so the walk that finds
those flows also splits them into components and fills each one on its
own: a flow's unshared links fold into one private capacity, and
progressive filling scans only the shared links (see
:func:`~repro.simulator.waterfill._fill_component`).  The components of
``_VECTORIZE_MIN_FLOWS`` flows or more share one numpy fill per event.
:func:`max_min_fair_rates`, for any flow set, water-fills with numpy for
large sets and with incremental pure Python for small ones, where numpy's
per-call cost dominates.

The rates of a start event whose flows share links only among themselves are
memoized per (topology version, routes).  When the same routes start again
with the same sizes, and no completion of theirs would re-rate a survivor,
the event replays its drain: it holds its links as one claim and retires
group by group, until another flow joins one of its links or a capacity
changes.

The DAG executor drives this engine through a flow-level network model
(:class:`~repro.simulator.flow_network.FlowNetworkModel`, the
``network_mode="flow"`` backend knob): every scale-out collective becomes
per-step point-to-point transfers in one shared simulator, so concurrent
collectives contend for link capacity.  It is also usable standalone for
micro-studies such as incast on a shared rail switch versus circuits.
"""

from __future__ import annotations

import heapq
import math
from itertools import chain, repeat
from operator import attrgetter
from typing import (
    Callable,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
    Union,
)

from ..errors import LinkFailedError, SimulationError, TopologyError
from ..topology.base import Link, Topology
from .engine import SimulationEngine
from .snapshot import Snapshottable, register_continuation
from .waterfill import (
    _fill_component,
    _max_min_fair_rates_numpy,
    _max_min_fair_rates_python,
    _sharing_components,
)

#: Tolerance used when deciding whether a flow has finished transferring.
_BYTES_EPSILON = 1e-6

#: Flow-set size below which progressive filling runs directly — component
#: decomposition and numpy dispatch only pay for themselves on larger sets.
_DECOMPOSE_MIN_FLOWS = 16

#: Component size at which the numpy water-filling pays for its setup cost.
#: Below it the per-component Python fill wins by far: on the faulted 128-GPU
#: fat tree most re-rated components are 2–4 flows on 2 shared links (of
#: 41,009 multi-flow fills a pass, 15.5k are 2 flows on 2 shared links and
#: 14.9k are 3 flows on 2), which the Python fill settles in 5–10 µs and
#: the numpy fill in about 200 µs.
_VECTORIZE_MIN_FLOWS = 32

#: Smallest start event whose drain the shape memo replays.
_REPLAY_MIN_FLOWS = 32

#: Entries the shape memo holds before it starts over.
_SHAPES_MAX = 4096

#: Deferred route: called at the flow's start event to resolve the path.
#: Circuit-switched fabrics install a collective's circuits *after* its flows
#: are scheduled (the switching delay separates the two), so the route over
#: those circuits only exists — and is only looked up — when the flow starts.
#: A resolver must return currently-installed links (the route table never
#: serves a route across a version change), so resolver paths skip the
#: per-link liveness check.
PathResolver = Callable[[], Sequence[Link]]

LinkKey = Tuple[str, str, int]


#: Sort key for deterministic iteration over flow sets.
_flow_id_of = attrgetter("flow_id")


def _check_size(size_bytes: float) -> None:
    """Reject a size no transfer can have, before any state changes."""
    if not 0.0 <= size_bytes < math.inf:  # also false for NaN
        raise SimulationError(f"flow size must be finite and >= 0, got {size_bytes!r}")


class AllocatorStats:
    """Counters over the simulator's allocation machinery.

    ``allocator_invocations`` and ``rerated_components`` both count re-rate
    calls — one per event that re-rates anything, or per memo miss of a
    self-contained start — not link-sharing components, so the two are
    always equal; ``rerated_flows`` sums the flows those calls re-rated.
    Both stay while pinned result digests hash all three counters.

    One instance can be shared across simulator rebuilds — the flow network
    models keep a single object for a whole training run — so the solver
    work of a whole run stays visible in benchmark output no matter how many
    times the underlying simulator is recreated.
    """

    __slots__ = ("allocator_invocations", "rerated_components", "rerated_flows")

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        self.allocator_invocations = 0
        self.rerated_components = 0
        self.rerated_flows = 0

    def as_dict(self) -> Dict[str, int]:
        return {
            "allocator_invocations": self.allocator_invocations,
            "rerated_components": self.rerated_components,
            "rerated_flows": self.rerated_flows,
            # Constant: pinned result digests hash this key of the metrics.
            "epsilon_skips": 0,
        }

    def __repr__(self) -> str:
        return f"AllocatorStats({self.as_dict()!r})"


class Routes:
    """The resolved routes of one batch and the per-flow columns they imply.

    ``links`` holds each flow's link ids, ``bottlenecks`` its narrowest link
    bandwidth (its max–min rate when it shares no link) and ``latencies``
    its summed link latency.  Bandwidths are read at construction, so a
    bundle is only as fresh as ``version``, the topology version at which
    its paths were installed; a batch whose bundle is behind the topology
    re-checks its paths when it starts (``None``: always).  Network models
    memoize bundles per (step content, topology version).
    """

    __slots__ = (
        "paths", "links", "bottlenecks", "latencies", "lengths", "flat",
        "disjoint", "positive", "empty", "version",
    )

    def __init__(
        self, paths: Iterable[Sequence[Link]], version: Optional[int] = None
    ) -> None:
        self.paths = tuple(path if type(path) is tuple else tuple(path) for path in paths)
        self.links = tuple(tuple([link.link_id for link in path]) for path in self.paths)
        self.bottlenecks = tuple(
            min([link.bandwidth for link in path]) if path else math.inf
            for path in self.paths
        )
        self.latencies = tuple(sum(link.latency for link in path) for path in self.paths)
        self.lengths = tuple(map(len, self.links))
        self.flat = tuple(chain.from_iterable(self.links))
        #: No link is used by two of these flows.
        self.disjoint = len(set(self.flat)) == len(self.flat)
        #: Every bottleneck is a finite positive rate.
        self.positive = all(0.0 < rate < math.inf for rate in self.bottlenecks)
        #: Some flow has co-located endpoints (an empty path).
        self.empty = 0 in self.lengths
        self.version = version


#: ``(durations, pairs)`` of flows on dedicated links at their bottleneck
#: rates: each flow's drain time, and the distinct ``(size, rate)`` pairs
#: whose drain check stands for every flow's.
_Plan = Tuple[Tuple[float, ...], Tuple[Tuple[float, float], ...]]


def _drain_plan(sizes: Sequence[float], routes: Routes) -> _Plan:
    pairs = list(zip(map(float, sizes), routes.bottlenecks))
    return tuple([size / rate for size, rate in pairs]), tuple(dict.fromkeys(pairs))


class StepItems:
    """The flows of one batch: their sizes and their routes.

    ``routes`` is a :class:`Routes`, or a zero-argument callable returning
    one at the batch's start event (on circuit fabrics the route only exists
    once the circuits are installed).  Only a route choice that is a pure
    function of the endpoints and the topology version may be deferred this
    way; one that reads live link occupancy stays a per-flow
    :data:`PathResolver`, so each flow sees the flows registered before it.
    """

    __slots__ = ("routes", "sizes", "tiny", "_plan")

    def __init__(
        self, routes: Union[Routes, Callable[[], Routes]], sizes: Iterable[float]
    ) -> None:
        self.sizes = tuple(sizes)
        for size in self.sizes:
            _check_size(size)
        self.routes = routes
        #: Some member completes after its latency only.
        self.tiny = any(size <= _BYTES_EPSILON for size in self.sizes)
        self._plan: Optional[Tuple[Routes, _Plan]] = None

    def plan(self, routes: Routes) -> _Plan:
        """The drain plan of these sizes on dedicated ``routes``, cached."""
        cached = self._plan
        if cached is None or cached[0] is not routes:
            cached = self._plan = (routes, _drain_plan(self.sizes, routes))
        return cached[1]


class _Batch:
    """One ``add_flows`` (or ``add_flow``) call: its flows as columns.

    ``source`` is what the caller passed: a :class:`StepItems`, or a list
    of per-flow paths and :data:`PathResolver` s.  The start event fills
    ``paths``, ``links`` and ``latencies`` (tuples shared with the
    :class:`Routes`, copied to lists the first time one flow re-routes).
    """

    __slots__ = (
        "first_id", "start_time", "version", "sizes", "source", "routes",
        "paths", "links", "latencies", "remaining", "rate", "progress", "epoch",
        "finish", "outstanding", "end", "callback", "group", "flows", "unit",
        "exclusive", "plan",
    )

    def __init__(
        self,
        first_id: int,
        start_time: float,
        version: Optional[int],
        source: object,
        sizes: Tuple[float, ...],
        callback: Optional[Callable],
        group: bool,
    ) -> None:
        count = len(sizes)
        self.first_id = first_id
        self.start_time = start_time
        self.version = version
        self.sizes = sizes
        self.source = source
        self.routes: Optional[Routes] = None
        self.paths: Optional[Sequence[Tuple[Link, ...]]] = None
        self.links: Sequence[Tuple[int, ...]] = ()
        self.latencies: Sequence[float] = ()
        self.remaining = list(map(float, sizes))
        self.rate = [0.0] * count
        self.progress = [start_time] * count
        #: Bumped on every rate change; a completion-heap entry carries the
        #: epoch it was computed at and is dropped once that moved on.
        self.epoch = [0] * count
        self.finish: List[Optional[float]] = [None] * count
        self.outstanding = count
        self.end = 0.0
        #: ``add_flows``: ``callback(end)`` once every flow finished
        #: (``group``); ``add_flow``: ``callback(flow)`` when it finishes.
        self.callback = callback
        self.group = group
        #: The handles, until every flow finished (see ``_retired``).
        self.flows: List[Flow] = []
        #: The replayed start event holding this batch's links, if any.
        self.unit: Optional[_Unit] = None
        #: Started on dedicated links and untouched since — no flow was
        #: re-rated, finished alone or joined on a link — so the batch
        #: drains and retires as one (see ``_drain_batch``), by ``plan``.
        self.exclusive = False
        self.plan: Optional[_Plan] = None

    def path(self, index: int) -> Tuple[Link, ...]:
        """A pending flow's path: concrete, or empty until it resolves."""
        source = self.source
        if type(source) is list:
            path = source[index]
            return () if callable(path) else tuple(path)
        if type(source.routes) is Routes:
            return source.routes.paths[index]
        return ()  # deferred: resolved at the start event


def _column(name: str, doc: str) -> property:
    return property(lambda flow: getattr(flow._batch, name)[flow._index], doc=doc)


class Flow:
    """One fluid flow over a fixed path: a handle onto its batch's columns.

    ``path`` is the links the flow traverses, in order.  An empty path means
    the source and destination are co-located and the flow completes after
    its latency only; a deferred path reads as empty until it resolves.
    """

    #: ``flow_id`` is the unique identifier assigned by the simulator, a slot
    #: because the solvers read it in their inner loops.
    __slots__ = ("_batch", "_index", "flow_id")

    def __init__(
        self, flow_id: int, path: Sequence[Link], size_bytes: float, start_time: float
    ) -> None:
        _check_size(size_bytes)
        batch = _Batch(flow_id, start_time, None, None, (size_bytes,), None, False)
        batch.paths = (tuple(path),)
        self._batch = batch
        self._index = 0
        self.flow_id = flow_id

    @property
    def path(self) -> Tuple[Link, ...]:
        paths = self._batch.paths
        return self._batch.path(self._index) if paths is None else paths[self._index]

    start_time = property(
        lambda flow: flow._batch.start_time, doc="Arrival time of the flow."
    )
    size_bytes = _column("sizes", "Bytes to transfer.")
    remaining_bytes = _column(
        "remaining", "Bytes left as of the flow's last rate change (lazy)."
    )
    rate = _column("rate", "Allocated rate in bytes/second.")
    finish_time = _column("finish", "Arrival of the last byte, or ``None``.")

    @property
    def latency(self) -> float:
        """Total propagation latency along the flow's path."""
        return sum(link.latency for link in self.path)

    @property
    def done(self) -> bool:
        """Whether the flow has finished transferring."""
        return self.finish_time is not None

    def __repr__(self) -> str:
        return (
            f"Flow(flow_id={self.flow_id}, hops={len(self.path)}, "
            f"size_bytes={self.size_bytes!r}, start_time={self.start_time!r})"
        )


def _handles(batch: _Batch) -> List[Flow]:
    """One :class:`Flow` handle per flow of ``batch``."""
    handles = [object.__new__(Flow) for _ in batch.sizes]
    first = batch.first_id
    for index, flow in enumerate(handles):
        flow._batch = batch
        flow._index = index
        flow.flow_id = first + index
    return handles


class _Shape:
    """Memoized allocation of one self-contained start event.

    ``rates`` are its flows' max–min fair rates.  The first start of these
    routes with at least ``_REPLAY_MIN_FLOWS`` concrete flows, none of them
    degenerate, also records ``sizes``, the distinct link ``keys`` and the
    drain ``groups`` — ``(duration, flow indices)`` in first-occurrence
    order, ``None`` if some rate is 0 or infinite — for a replay.
    """

    __slots__ = ("rates", "sizes", "keys", "groups", "stable")

    def __init__(self, rates: List[float]) -> None:
        self.rates = rates
        self.sizes: Optional[Tuple[float, ...]] = None
        self.keys: Tuple[int, ...] = ()
        self.groups: Optional[Tuple[Tuple[float, Tuple[int, ...]], ...]] = None
        #: Whether a replay is exact (``_drain_is_stable``), once asked.
        self.stable: Optional[bool] = None

    def record(self, sizes: Tuple[float, ...], keys: Iterable[int]) -> None:
        self.sizes = sizes
        self.keys = tuple(dict.fromkeys(keys))
        grouping: Dict[float, List[int]] = {}
        for index, (size, rate) in enumerate(zip(sizes, self.rates)):
            if not 0.0 < rate < math.inf:
                return
            grouping.setdefault(float(size) / rate, []).append(index)
        self.groups = tuple(
            (duration, tuple(indices)) for duration, indices in grouping.items()
        )


class _Unit:
    """A replayed start event: it holds every one of its links as one claim
    until its last drain group retires.  A flow joining one of the links, or
    any capacity change, first ``_unseal`` s it into per-flow registrations.
    """

    __slots__ = ("keys", "batches", "outstanding", "sealed")

    def __init__(
        self, keys: Tuple[int, ...], batches: Sequence[_Batch], groups: int
    ) -> None:
        self.keys = keys
        self.batches = tuple(batches)
        self.outstanding = groups  # drain groups not yet retired
        self.sealed = True

    def live_on(self, link_id: int) -> List[Flow]:
        """The unit's unfinished flows riding ``link_id``."""
        return [
            batch.flows[index]
            for batch in self.batches
            for index, links in enumerate(batch.links)
            if batch.finish[index] is None and link_id in links
        ]


def max_min_fair_rates(
    flows: Sequence[Flow], capacities: Optional[Dict[LinkKey, float]] = None
) -> Dict[int, float]:
    """Map each flow's id to its max–min fair rate, by progressive filling.

    Flows with an empty path receive infinite rate; ``capacities`` overrides
    link bandwidths by ``link.key``.  Large flow sets go to the numpy
    water-filling, small ones to the incremental pure-Python algorithm; both
    produce identical allocations (see :mod:`repro.simulator.waterfill`).
    """
    if len(flows) < _DECOMPOSE_MIN_FLOWS:
        return _max_min_fair_rates_python(flows, capacities)
    if len(flows) >= _VECTORIZE_MIN_FLOWS:
        # The numpy solver labels link-sharing components itself and fills
        # them in parallel (one bottleneck per component per round), so no
        # Python-level decomposition is needed in front of it.
        return _max_min_fair_rates_numpy(flows, capacities)
    # Max-min fairness decomposes exactly over connected components of the
    # flow/link sharing graph: progressive filling on one component never
    # reads capacity touched by another.  Below the numpy threshold, solving
    # components independently turns the round count from "distinct shares
    # overall" into "distinct shares per component".
    components = _sharing_components(flows)
    rates: Dict[int, float] = {}
    for component in components:
        rates.update(_max_min_fair_rates_python(component, capacities))
    return rates


@register_continuation("flows.empty_batch_complete")
def _complete_empty_batch(engine: SimulationEngine, on_complete) -> None:
    """Completion event for a degenerate zero-flow batch (see add_flows)."""
    on_complete(engine.now)


class FlowSimulator(Snapshottable):
    """Event-driven fluid simulator over batches of flows.

    Usage::

        sim = FlowSimulator()
        sim.add_flow(path, size_bytes, start_time=0.0, on_complete=callback)
        sim.run()

    Arrivals at one instant share a single engine event (the *start event*),
    and an arrival or completion re-rates only the connected component of
    flows sharing links with the change (see the module docstring).
    """

    def __init__(
        self,
        engine: Optional[SimulationEngine] = None,
        topology: Optional[Topology] = None,
        stats: Optional[AllocatorStats] = None,
    ) -> None:
        self.engine = engine or SimulationEngine()
        self.stats = stats if stats is not None else AllocatorStats()
        #: Optional topology the flows route over.  A flow whose route
        #: predates a topology change is checked for liveness when it starts,
        #: so a route over a torn-down circuit fails loudly instead of
        #: silently charging capacity that no longer exists.
        self.topology = topology
        #: Next flow id (a plain int, so snapshots capture it explicitly).
        self._counter = 0
        #: Batches pending start per arrival instant (one engine event each).
        self._pending_at: Dict[float, List[_Batch]] = {}
        #: Started batches with unfinished flows.
        self._running: Set[_Batch] = set()
        #: Users per link id: the lone :class:`Flow`, a set of flows once the
        #: link is shared, or the :class:`_Unit` of a replayed start event.
        self._users: Dict[int, object] = {}
        #: Lazy completion heap of ``(estimate, tiebreak_id, epoch, payload)``.
        #: A single flow's entry is stale once the flow's epoch moved on.  The
        #: flows of one start event sharing one estimate carry ``-1`` and
        #: ``(batch, flows)`` segments, each flow checked against epoch 1.
        self._completion_heap: List[Tuple[float, int, int, object]] = []
        self._completion_event = None
        #: (topology version, per-flow link ids) -> :class:`_Shape`.
        self._shapes: Dict[Tuple[Optional[int], tuple], _Shape] = {}
        #: Replayed start events still holding their links.
        self._units: Set[_Unit] = set()
        #: What happens to a flow whose path loses a link while the flow is
        #: pending or on the wire: ``"fail"`` raises the typed
        #: :class:`~repro.errors.LinkFailedError`, ``"reroute"`` resolves a
        #: fresh route over the surviving topology.  Fault-aware network
        #: models set this from their :class:`~repro.simulator.faults.FaultPlan`.
        self.link_failure_policy: str = "fail"
        #: Optional route chooser for rerouted casualties:
        #: ``route_policy(src_node, dst_node)`` returns the new link sequence.
        #: Flow models install their route table's search or their policy
        #: router here, so a fault reroute stays under the run's policy;
        #: ``None`` — the default — takes the plain shortest path.
        self.route_policy: Optional[Callable[[str, str], Sequence[Link]]] = None

    # ------------------------------------------------------------------ #
    # Flow management
    # ------------------------------------------------------------------ #

    def add_flow(
        self,
        path: Union[Sequence[Link], PathResolver],
        size_bytes: float,
        start_time: float = 0.0,
        on_complete: Optional[Callable[[Flow], None]] = None,
    ) -> Flow:
        """Register a flow that arrives at ``start_time``.

        ``path`` is either the concrete link sequence or a zero-argument
        callable resolved at the flow's start event (deferred path
        resolution): on circuit-switched fabrics the route only exists once
        the circuits are installed, which happens between scheduling and
        start.  Until a deferred path resolves, the flow reports an empty
        path.  A negative, infinite or NaN size raises
        :class:`~repro.errors.SimulationError` before any state changes.
        """
        _check_size(size_bytes)
        return self._admit([path], (size_bytes,), start_time, on_complete, False)[0]

    def add_flows(
        self,
        items: Union[
            StepItems, Sequence[Tuple[Union[Sequence[Link], PathResolver], float]]
        ],
        start_time: float,
        on_complete: Callable[[float], None],
    ) -> List[Flow]:
        """Register a batch of flows sharing one arrival instant and callback.

        ``items`` is a :class:`StepItems`, or a sequence of
        ``(path_or_resolver, size_bytes)`` pairs.  The batch's
        ``on_complete`` fires once — with the last flow's finish time — when
        every flow in the batch has drained.  This is the bulk interface the
        flow network models use for collective steps: one engine event and
        one completion callback per step instead of one per transfer.  Every
        size is validated before any state changes.
        """
        if type(items) is StepItems:
            source: object = items
            sizes = items.sizes
        else:
            pairs = list(items)
            source = [path for path, _size in pairs]
            sizes = tuple([size for _path, size in pairs])
            for size in sizes:
                _check_size(size)
        if not sizes:
            if start_time not in self._pending_at:
                self._pending_at[start_time] = []
                self.engine.schedule(start_time, self._on_batch_start, start_time)
            # Degenerate empty batch: it completes at its start time.  The
            # callback is a named continuation (not a closure) so a snapshot
            # taken while the event is pending stays serializable.
            self.engine.schedule(start_time, _complete_empty_batch, on_complete)
            return []
        return self._admit(source, sizes, start_time, on_complete, True)

    def _admit(
        self,
        source: object,
        sizes: Tuple[float, ...],
        start_time: float,
        callback: Optional[Callable],
        group: bool,
    ) -> List[Flow]:
        version = self.topology.version if self.topology is not None else None
        batch = _Batch(self._counter, start_time, version, source, sizes, callback, group)
        self._counter += len(sizes)
        pending = self._pending_at.get(start_time)
        if pending is None:
            self._pending_at[start_time] = pending = []
            self.engine.schedule(start_time, self._on_batch_start, start_time)
        pending.append(batch)
        batch.flows = _handles(batch)
        return batch.flows

    def flow(self, flow_id: int) -> Flow:
        """Return the pending or active flow with id ``flow_id``.

        Completed flows are dropped from the bookkeeping (callers hold the
        :class:`Flow` handles :meth:`add_flow` returned), so looking one up
        here raises.  A debugging accessor: it scans the batches.
        """
        for batch in chain(self._running, *self._pending_at.values()):
            index = flow_id - batch.first_id
            if 0 <= index < len(batch.sizes) and batch.finish[index] is None:
                return batch.flows[index]
        raise SimulationError(f"unknown (or already completed) flow id {flow_id}")

    @property
    def active_flows(self) -> List[Flow]:
        """Flows currently transferring."""
        return sorted(
            (
                flow
                for batch in self._running
                for flow, finish in zip(batch.flows, batch.finish)
                if finish is None
            ),
            key=_flow_id_of,
        )

    # ------------------------------------------------------------------ #
    # Live-load introspection (routing policies, telemetry)
    # ------------------------------------------------------------------ #

    def link_occupancy(self, key: LinkKey) -> int:
        """Number of active flows currently riding the link ``key``.

        Read from the user registry, which every code path maintains; a
        replayed event's claim is counted without unsealing it, since
        reading congestion must not perturb the run.
        """
        users = self._users.get(key[2])
        if users is None:
            return 0
        if type(users) is _Unit:
            return len(users.live_on(key[2]))
        return len(users) if type(users) is set else 1

    def link_loads(self) -> Iterable[Tuple[int, float, int]]:
        """Yield ``(link_id, allocated_rate, active_flows)`` per in-use link.

        The telemetry collector's sampling primitive: one pass over the user
        registry (infinite rates count as 0, keeping the sums finite).
        """
        isinf = math.isinf
        for link_id, users in self._users.items():
            if type(users) is _Unit:
                flows = users.live_on(link_id)
            else:
                flows = users if type(users) is set else (users,)
            rate = 0.0
            for flow in flows:
                flow_rate = flow._batch.rate[flow._index]
                if not isinf(flow_rate):
                    rate += flow_rate
            yield link_id, rate, len(flows)

    def run(self, until: Optional[float] = None) -> float:
        """Run until all flows complete (or ``until``); returns the stop time.

        Raises :class:`~repro.errors.SimulationError` if the event queue
        drains while flows are still active — a flow allocated rate 0 forever
        (e.g. over a link whose capacity dropped to 0) would otherwise leave
        ``run`` returning silently with unfinished flows.
        """
        stop = self.engine.run(until=until)
        if self._running and self.engine.pending == 0:
            stalled = ", ".join(
                f"flow {flow.flow_id} (rate {flow.rate:g} B/s, "
                f"{flow.remaining_bytes:g} B left)"
                for flow in self.active_flows
            )
            raise SimulationError(
                f"simulation stalled at t={stop:g}s with active flows that can "
                f"never complete: {stalled}; check for zero-capacity links"
            )
        return stop

    # ------------------------------------------------------------------ #
    # Fault reaction
    # ------------------------------------------------------------------ #

    def apply_link_change(
        self, keys: Iterable[LinkKey], now: Optional[float] = None
    ) -> None:
        """Re-rate flows after the capacity of ``keys`` changed.

        Called when a fault event degrades or restores link bandwidth: the
        components of flows touching the changed links are re-allocated
        from the live capacities, and the shape memo is dropped so no later
        start reuses a rate computed against the old capacity.
        """
        if now is None:
            now = self.engine.now
        self._invalidate_memos()
        dirty = [key[2] for key in keys if key[2] in self._users]
        if dirty:
            self._reallocate((), dirty, now)

    def fail_links(
        self, keys: Iterable[LinkKey], now: Optional[float] = None
    ) -> List[Flow]:
        """React to links that just left the fabric (fault or circuit tear).

        Flows riding a dead link are handled per :attr:`link_failure_policy`:
        ``"fail"`` (the default) raises :class:`~repro.errors.LinkFailedError`
        carrying the flow and link, ``"reroute"`` moves each casualty onto a
        fresh shortest path over the surviving topology (raising the same
        typed error when no route survives).  Rerouted flows and the
        survivors they now share links with are re-rated; returns the
        affected flows.
        """
        return self._fail_link_ids({key[2] for key in keys}, now)

    def fail_link_ids(
        self, link_ids: Iterable[int], now: Optional[float] = None
    ) -> List[Flow]:
        """Like :meth:`fail_links`, addressed by topology link id.

        Circuit tear-downs only know the link ids they removed.  A no-op (no
        memo invalidation, no allocation work) when no flow rides the torn
        links — the overwhelmingly common case on a healthy circuit fabric.
        """
        users = self._users
        failed_ids = {link for link in link_ids if link in users}
        if not failed_ids:
            return []
        return self._fail_link_ids(failed_ids, now)

    def _fail_link_ids(self, failed_ids: Set[int], now: Optional[float]) -> List[Flow]:
        """:meth:`fail_links` over the ids of the links that left the fabric."""
        if now is None:
            now = self.engine.now
        self._invalidate_memos()
        users = self._users
        casualties: List[Flow] = []
        seen: Set[Flow] = set()
        for link_id in failed_ids:
            riders = users.pop(link_id, None)
            for flow in riders if type(riders) is set else (riders,):
                if flow is not None and flow not in seen:
                    seen.add(flow)
                    casualties.append(flow)
        if not casualties:
            return []
        casualties.sort(key=_flow_id_of)
        victims: List[Tuple[Flow, Link]] = []
        for flow in casualties:
            dead = next(link for link in flow.path if link.link_id in failed_ids)
            if self.link_failure_policy != "reroute":
                raise LinkFailedError(
                    f"flow {flow.flow_id} was on the wire over link "
                    f"{dead.src}->{dead.dst} (id {dead.link_id}) when it "
                    f"failed at t={now:g}s (link_failure_policy='fail')",
                    flow_id=flow.flow_id,
                    link_key=dead.key,
                )
            victims.append((flow, dead))
        dirty_links: List[int] = []
        for flow, dead in victims:
            batch, index = flow._batch, flow._index
            batch.exclusive = False
            self._advance(batch, index, now)
            for link_id in batch.links[index]:
                if link_id not in failed_ids:
                    self._release(flow, link_id, dirty_links)
            _set_path(batch, index, self._reroute_path(flow, dead, now))
            self._register(flow)
        self._reallocate(casualties, dirty_links, now)
        return casualties

    def _invalidate_memos(self) -> None:
        """Drop the shape memo and unseal every replayed start event: the
        capacities or the registry are about to change under them."""
        self._shapes.clear()
        for unit in list(self._units):
            self._unseal(unit)

    def _reroute_path(self, flow: Flow, dead: Link, now: float) -> Tuple[Link, ...]:
        """A fresh route for a flow whose path lost ``dead``; typed raise if none."""
        if self.topology is None:
            raise LinkFailedError(
                f"flow {flow.flow_id} lost link {dead.src}->{dead.dst} "
                f"(id {dead.link_id}) at t={now:g}s and no topology is "
                "attached to re-route over",
                flow_id=flow.flow_id,
                link_key=dead.key,
            )
        src, dst = flow.path[0].src, flow.path[-1].dst
        try:
            if self.route_policy is not None:
                return tuple(self.route_policy(src, dst))
            return tuple(self.topology.shortest_path(src, dst))
        except TopologyError as exc:
            raise LinkFailedError(
                f"flow {flow.flow_id} lost link {dead.src}->{dead.dst} "
                f"(id {dead.link_id}) at t={now:g}s and no surviving route "
                f"from {src!r} to {dst!r} exists",
                flow_id=flow.flow_id,
                link_key=dead.key,
            ) from exc

    def _register(self, flow: Flow, claimed: Optional[Dict[int, None]] = None) -> int:
        """Add ``flow`` to the users of every link of its path, unsealing any
        replayed event holding one.  The links ``flow`` is first on go into
        ``claimed``; the result has bit 1 set if ``flow`` joined a link in
        ``claimed`` and bit 2 if it joined any other used link."""
        users = self._users
        joined = 0
        for link_id in flow._batch.links[flow._index]:
            riders = users.get(link_id)
            if type(riders) is _Unit:
                self._unseal(riders)
                riders = users.get(link_id)
            if riders is None:
                users[link_id] = flow
                if claimed is not None:
                    claimed[link_id] = None
                continue
            joined |= 1 if claimed is not None and link_id in claimed else 2
            if type(riders) is set:
                riders.add(flow)
            else:
                riders._batch.exclusive = False
                users[link_id] = {riders, flow}
        return joined

    def _release(self, flow: Flow, link_id: int, dirty_links: List[int]) -> None:
        """Drop ``flow`` from the users of ``link_id``, noting shared links."""
        users = self._users
        riders = users.get(link_id)
        if riders is flow:
            del users[link_id]
        elif type(riders) is set:
            riders.discard(flow)
            if len(riders) == 1:
                # Collapse back to the lone-survivor representation.
                (users[link_id],) = riders
            # Only links with surviving users can wake anyone up.
            dirty_links.append(link_id)

    def _unseal(self, unit: _Unit) -> None:
        """Swap a replayed event's claim for per-flow registrations."""
        if not unit.sealed:
            return
        unit.sealed = False
        self._units.discard(unit)
        users = self._users
        for link_id in unit.keys:
            del users[link_id]
        for batch in unit.batches:
            batch.unit = None
            for flow, finish in zip(batch.flows, batch.finish):
                if finish is None:
                    self._register(flow)

    # ------------------------------------------------------------------ #
    # Start events
    # ------------------------------------------------------------------ #

    def _on_batch_start(self, engine: SimulationEngine, start_time: float) -> None:
        now = engine.now
        batches = self._pending_at.pop(start_time, ())
        topology = self.topology
        version = topology.version if topology is not None else None
        bulk = True
        resolved = False
        for batch in batches:
            self._running.add(batch)
            source = batch.source
            if type(source) is list:
                if any(map(callable, source)):
                    bulk = False  # per-flow resolvers: resolved flow by flow
                    continue
                routes = Routes(source, batch.version)
                tiny = min(batch.sizes) <= _BYTES_EPSILON
            else:
                routes = source.routes
                if type(routes) is not Routes:
                    resolved = True
                    routes = routes()
                tiny = source.tiny
            batch.routes = routes
            batch.paths = routes.paths
            batch.links = routes.links
            batch.latencies = routes.latencies
            if tiny or routes.empty or (version is not None and routes.version != version):
                bulk = False
        if not bulk:
            self._start_each(batches, now, version, resolved)
        elif not (
            (not resolved and self._shapes and self._replay(batches, now, version))
            or self._start_dedicated(batches, now, version, resolved)
        ):
            self._start_each(batches, now, version, resolved)

    def _start_dedicated(
        self, batches: List[_Batch], now: float, version: Optional[int], resolved: bool
    ) -> bool:
        """Start flows riding links nobody else uses, if that is what they do:
        one dict update per batch claims the links, each flow runs at its
        path bottleneck, and a batch whose flows share one finish estimate
        is one segment of the heap entry."""
        users = self._users
        if len(batches) == 1:
            flat: Sequence[int] = batches[0].routes.flat
            if not batches[0].routes.disjoint:
                return False
        else:
            flat = list(chain.from_iterable(batch.routes.flat for batch in batches))
            if len(set(flat)) != len(flat):
                return False
        if not users.keys().isdisjoint(flat):
            for link_id in flat:
                if type(users.get(link_id)) is _Unit:
                    self._unseal(users[link_id])
            if not users.keys().isdisjoint(flat):
                return False
        if not resolved and len(flat) >= _REPLAY_MIN_FLOWS:
            flows = list(chain.from_iterable(batch.flows for batch in batches))
            if len(flows) >= _REPLAY_MIN_FLOWS:
                bottlenecks = chain.from_iterable(b.routes.bottlenecks for b in batches)
                self._self_contained_rates(flows, version, flat, list(bottlenecks))
        groups: Dict[float, List[_Segment]] = {}
        for batch in batches:
            routes = batch.routes
            users.update(
                zip(routes.flat, chain.from_iterable(map(repeat, batch.flows, routes.lengths)))
            )
            if not routes.positive:
                self._apply_rates(batch.flows, routes.bottlenecks, now, groups)
                continue
            count = len(batch.sizes)
            batch.rate = list(routes.bottlenecks)
            batch.epoch = [1] * count
            batch.exclusive = True
            source = batch.source
            batch.plan = plan = (
                source.plan(routes)
                if type(source) is StepItems
                else _drain_plan(batch.sizes, routes)
            )
            durations = plan[0]
            if durations.count(durations[0]) == count:
                # Uniform step: the whole batch is one segment.
                groups.setdefault(now + durations[0], []).append((batch, batch.flows))
                continue
            for flow, duration in zip(batch.flows, durations):
                _add_to_group(groups, now + duration, flow)
        self._push_groups(groups, now)
        return True

    def _start_each(
        self, batches: List[_Batch], now: float, version: Optional[int], resolved: bool
    ) -> None:
        """Start batches flow by flow, in order: per-flow resolvers (adaptive
        routing reads the live occupancy, so flow k sees flows 0..k-1
        registered), routes to re-check, flows that finish after their
        latency only, and flows that share links."""
        dirty: List[Flow] = []
        claimed: Dict[int, None] = {}  # links first registered by this event
        joined = 0  # 1: links shared within the event, 2: with running flows
        for batch in batches:
            source = batch.source
            per_flow = batch.routes is None
            if per_flow:
                resolved = resolved or any(map(callable, source))
                batch.paths = [batch.path(index) for index in range(len(source))]
                batch.links = [()] * len(source)
                batch.latencies = [0.0] * len(source)
                stale = version is not None and batch.version != version
            else:
                stale = version is not None and batch.routes.version != version
            for index, flow in enumerate(batch.flows):
                check = stale
                if per_flow:
                    path = source[index]
                    if callable(path):
                        # Freshly resolved against the live topology; no
                        # liveness check needed (see PathResolver).
                        _set_path(batch, index, tuple(path()))
                        check = False
                    else:
                        _set_path(batch, index, batch.paths[index])
                if check:
                    self._check_links_alive(batch, index, now)
                path = batch.paths[index]
                if batch.sizes[index] <= _BYTES_EPSILON or not path:
                    # Zero-size flows and co-located endpoints (empty path =
                    # infinite rate) complete after their latency only; no
                    # representable transfer time separates start from finish.
                    self._complete(flow, now + batch.latencies[index])
                    continue
                joined |= self._register(flow, claimed)
                dirty.append(flow)
        if not dirty:
            self._sync_completion_event(now)
            return
        if joined & 2:
            self._reallocate(dirty, (), now)
            return
        total = sum(len(batch.sizes) for batch in batches)
        keys = (
            claimed
            if not resolved and len(dirty) == total and total >= _REPLAY_MIN_FLOWS
            else None
        )
        if joined:
            rates = self._self_contained_rates(dirty, version, keys)
        else:
            rates = [min([link.bandwidth for link in flow.path]) for flow in dirty]
            if keys is not None:
                self._self_contained_rates(dirty, version, keys, rates)
        self._apply_rates(dirty, rates, now)

    def _self_contained_rates(
        self,
        flows: List[Flow],
        version: Optional[int],
        keys: Optional[Iterable[int]],
        rates: Optional[List[float]] = None,
    ) -> List[float]:
        """Rates of a start event sharing links with nobody else, memoized.

        Max–min fair rates are a pure function of the event's routes and the
        live capacities, so the key is the topology version plus every
        flow's link ids (fault handling also clears the memo).  A miss is
        solved directly and counted like any other re-rate, unless the
        caller passes the ``rates`` it already knows.  ``keys`` (the event's
        link ids, when it may replay) record the replay fields once.
        """
        shapes = self._shapes
        key = (version, tuple([flow._batch.links[flow._index] for flow in flows]))
        shape = shapes.get(key)
        if shape is None:
            if rates is None:
                stats = self.stats
                stats.allocator_invocations += 1
                stats.rerated_components += 1
                stats.rerated_flows += len(flows)
                computed = max_min_fair_rates(flows)
                rates = [computed[flow.flow_id] for flow in flows]
            if len(shapes) >= _SHAPES_MAX:
                shapes.clear()
            shapes[key] = shape = _Shape(rates)
        if keys is not None and shape.sizes is None:
            shape.record(
                tuple([flow._batch.sizes[flow._index] for flow in flows]), keys
            )
        return shape.rates

    def _replay(
        self, batches: List[_Batch], now: float, version: Optional[int]
    ) -> bool:
        """Start ``batches`` by replaying their memoized drain, if one applies:
        the same routes started before with the same sizes, none of their
        links is in use, and the replay is exact (:meth:`_drain_is_stable`).
        The event claims its links as one :class:`_Unit`, takes the memoized
        rates, and pushes one completion entry per drain group."""
        links = tuple(chain.from_iterable(batch.links for batch in batches))
        shape = self._shapes.get((version, links))
        users = self._users
        if (
            shape is None
            or shape.groups is None
            or shape.sizes != tuple(chain.from_iterable(b.sizes for b in batches))
            or not users.keys().isdisjoint(shape.keys)
        ):
            return False
        flows = list(chain.from_iterable(batch.flows for batch in batches))
        if shape.stable is None:
            shape.stable = self._drain_is_stable(flows, shape)
        if not shape.stable:
            return False
        unit = _Unit(shape.keys, batches, len(shape.groups))
        users.update(zip(shape.keys, repeat(unit)))
        offset = 0
        for batch in batches:
            count = len(batch.sizes)
            batch.unit = unit
            batch.rate = shape.rates[offset : offset + count]
            batch.epoch = [1] * count
            offset += count
        for duration, indices in shape.groups:
            groups: Dict[float, List[_Segment]] = {}
            for index in indices:
                _add_to_group(groups, duration, flows[index])
            heapq.heappush(
                self._completion_heap,
                (now + duration, flows[indices[0]].flow_id, -1, groups[duration]),
            )
        self._units.add(unit)
        self._sync_completion_event(now)
        return True

    def _drain_is_stable(self, flows: List[Flow], shape: _Shape) -> bool:
        """Whether no group completion of ``shape`` would re-rate a survivor:
        after each drain group but the last, the survivors' max–min fair
        rates must equal their memoized ones.  The solves check the memo
        rather than allocate, so they are not counted."""
        alive = dict.fromkeys(range(len(flows)))
        for _duration, indices in sorted(shape.groups)[:-1]:
            for index in indices:
                del alive[index]
            solved = max_min_fair_rates([flows[index] for index in alive])
            for index in alive:
                if solved[flows[index].flow_id] != shape.rates[index]:
                    return False
        return True

    def _apply_rates(
        self,
        flows: Sequence[Flow],
        rates: Sequence[float],
        now: float,
        groups: Optional[Dict[float, List[_Segment]]] = None,
    ) -> None:
        """Assign known rates to freshly started flows and schedule them:
        flows sharing one finish estimate ride one heap entry, and a flow of
        rate 0 none (``run`` reports the stall)."""
        push = groups is None
        if push:
            groups = {}
        for flow, rate in zip(flows, rates):
            if rate <= 0.0:
                continue
            batch, index = flow._batch, flow._index
            batch.rate[index] = rate
            batch.epoch[index] += 1
            estimate = now if rate == math.inf else now + batch.remaining[index] / rate
            _add_to_group(groups, estimate, flow)
        if push:
            self._push_groups(groups, now)

    def _push_groups(self, groups: Dict[float, List[_Segment]], now: float) -> None:
        heap = self._completion_heap
        for estimate, segments in groups.items():
            # The unique first flow id keeps tuple comparison away from the
            # payload.
            heapq.heappush(heap, (estimate, segments[0][1][0].flow_id, -1, segments))
        self._sync_completion_event(now)

    # ------------------------------------------------------------------ #
    # Completions
    # ------------------------------------------------------------------ #

    def _on_completion_check(self, engine: SimulationEngine, _payload: object) -> None:
        self._completion_event = None
        now = engine.now
        heap = self._completion_heap
        inf = math.inf
        finished: List[object] = []
        while heap and heap[0][0] <= now:
            _estimate, _entry_id, epoch, payload = heapq.heappop(heap)
            if epoch >= 0:
                members: Sequence[Flow] = (payload,)
            else:
                unit = payload[0][0].unit
                if unit is not None:
                    # An undisturbed replayed event: the group retires in
                    # bulk, its survivors keep their (exact) rates.
                    unit.outstanding -= 1
                    finished.append((unit, payload, unit.outstanding == 0))
                    continue
                epoch = 1
                members = []
                for batch, segment in payload:
                    if (
                        segment is batch.flows
                        and batch.exclusive
                        and self._drain_batch(batch, now)
                    ):
                        finished.append(batch)
                    else:
                        members.extend(segment)
            for flow in members:
                batch, index = flow._batch, flow._index
                if batch.finish[index] is not None or batch.epoch[index] != epoch:
                    continue  # stale: completed or the rate changed since
                # Lazy progress (see _advance) and drain check, inlined.  A
                # residual drain time below the clock's float resolution also
                # completes now: re-checking at the same instant would spin
                # the engine.  Infinite-rate flows drain instantly.
                rate = batch.rate[index]
                elapsed = now - batch.progress[index]
                if elapsed > 0.0:
                    if rate == inf:
                        batch.remaining[index] = 0.0
                    elif rate > 0.0:
                        left = batch.remaining[index] - rate * elapsed
                        batch.remaining[index] = left if left > 0.0 else 0.0
                    batch.progress[index] = now
                remaining = batch.remaining[index]
                if (
                    remaining <= _BYTES_EPSILON
                    or rate == inf
                    or (rate > 0.0 and now + remaining / rate <= now)
                ):
                    finished.append(flow)
                else:
                    # Float roundoff left representable drain time: re-estimate.
                    heapq.heappush(
                        heap, (now + remaining / rate, flow.flow_id, epoch, flow)
                    )
        users = self._users
        dirty_links: List[int] = []
        for item in finished:
            kind = type(item)
            if kind is _Batch:
                self._retire_batch(item, now)
                continue
            if kind is tuple:
                unit, segments, last = item
                members = list(chain.from_iterable(flows for _b, flows in segments))
                if unit.sealed:
                    if last:
                        # Last drain group: the claim comes down with it.
                        unit.sealed = False
                        self._units.discard(unit)
                        for link_id in unit.keys:
                            del users[link_id]
                        for batch in unit.batches:
                            batch.unit = None
                    for flow in members:
                        self._complete(flow, now + flow._batch.latencies[flow._index])
                    continue
                # Unsealed by a callback since the pop: retire flow by flow.
            else:
                members = (item,)
            for flow in members:
                batch, index = flow._batch, flow._index
                for link_id in batch.links[index]:
                    riders = users.get(link_id)  # _release, inlined: hot loop
                    if riders is flow:
                        del users[link_id]
                    elif type(riders) is set:
                        riders.discard(flow)
                        if len(riders) == 1:
                            (users[link_id],) = riders
                        dirty_links.append(link_id)
                self._complete(flow, now + batch.latencies[index])
        self._reallocate((), dirty_links, now)

    @staticmethod
    def _drain_batch(batch: _Batch, now: float) -> bool:
        """Drain check of a whole exclusive batch; True if every flow is done.

        The per-flow check of :meth:`_on_completion_check`, once per distinct
        (size, rate), since every flow ran at its start rate from one
        instant.  On False the columns advance to ``now``, so the per-flow
        check that follows sees no elapsed time.
        """
        elapsed = now - batch.progress[0]
        for size, rate in batch.plan[1]:
            left = size - rate * elapsed if elapsed > 0.0 else size
            if left > _BYTES_EPSILON and now + left / rate > now:
                break
        else:
            return True
        if elapsed > 0.0:
            columns = zip(batch.remaining, batch.rate)
            batch.remaining = [max(0.0, left - rate * elapsed) for left, rate in columns]
            batch.progress = [now] * len(batch.remaining)
        return False

    def _retire_batch(self, batch: _Batch, now: float) -> None:
        """Complete every flow of a drained exclusive batch in bulk."""
        flows = batch.flows
        users = self._users
        for link_id in batch.routes.flat:
            del users[link_id]
        count = len(batch.sizes)
        batch.finish = [now + latency for latency in batch.latencies]
        batch.remaining = [0.0] * count
        batch.rate = [0.0] * count
        batch.exclusive = False
        batch.end = max(batch.end, max(batch.finish))
        batch.outstanding = 0
        self._retired(batch)
        if batch.group:
            batch.callback(batch.end)
        elif batch.callback is not None:
            batch.callback(flows[0])

    def _complete(self, flow: Flow, finish_time: float) -> None:
        batch, index = flow._batch, flow._index
        batch.exclusive = False
        batch.finish[index] = finish_time
        batch.remaining[index] = 0.0
        batch.rate[index] = 0.0
        if finish_time > batch.end:
            batch.end = finish_time
        batch.outstanding -= 1
        if batch.outstanding == 0:
            self._retired(batch)
        if not batch.group:
            if batch.callback is not None:
                batch.callback(flow)
        elif batch.outstanding == 0:
            batch.callback(batch.end)

    def _retired(self, batch: _Batch) -> None:
        """Forget a batch whose every flow finished.  Its handles still read
        its columns, but it lets go of them: a handle -> batch -> handle
        cycle would keep each finished step alive until a full collection."""
        self._running.discard(batch)
        batch.flows = []

    # ------------------------------------------------------------------ #
    # Allocation
    # ------------------------------------------------------------------ #

    def _reallocate(
        self, dirty_flows: Sequence[Flow], dirty_links: Sequence[int], now: float
    ) -> None:
        """Recompute rates for the component(s) touched by a flow change.

        ``dirty_flows`` are newly-started flows, ``dirty_links`` the links of
        flows that just completed.  One walk per seed collects the link-sharing
        component it reaches: its flows and its shared links (those whose
        user entry is a set).  Every other flow keeps its rate and estimate.
        Max–min fair allocation decomposes exactly over components, so each
        one is filled on its own (:func:`_fill_component`), except that the
        components at or above ``_VECTORIZE_MIN_FLOWS`` share one numpy fill.
        A started flow sharing no link runs at its bottleneck and is not
        counted as a re-rate.
        """
        users = self._users
        placed: Set[Flow] = set()
        large: List[Flow] = []
        rerated = 0
        for seed in chain(dirty_flows, dirty_links):
            if type(seed) is int:
                riders = users.get(seed)
                if riders is None:
                    continue
                # One component holds all riders of a link, or none of them.
                flows = list(riders) if type(riders) is set else [riders]
                if flows[0] in placed:
                    continue
            elif seed in placed:
                continue
            else:
                flows = [seed]
            placed.update(flows)
            private, crossing, capacity = _walk_component(flows, users, placed)
            if type(seed) is int or capacity:
                rerated += len(flows)
            else:
                # A lone started flow; a dirty link may still reach it.
                placed.discard(seed)
            if not capacity:
                rates = private  # no shared link: each flow at its bottleneck
            elif len(flows) < _VECTORIZE_MIN_FLOWS:
                rates = _fill_component(private, crossing, capacity)
            else:
                large.extend(flows)
                continue
            for flow, rate in zip(flows, rates):
                if rate != flow._batch.rate[flow._index]:
                    self._rerate(flow, rate, now)
        if large:
            rates = _max_min_fair_rates_numpy(large)
            for flow in large:
                rate = rates[flow.flow_id]
                if rate != flow._batch.rate[flow._index]:
                    self._rerate(flow, rate, now)
        if rerated:
            stats = self.stats
            stats.allocator_invocations += 1
            stats.rerated_components += 1
            stats.rerated_flows += rerated
        self._sync_completion_event(now)

    def _rerate(self, flow: Flow, rate: float, now: float) -> None:
        """Give ``flow`` a new rate and queue its new completion estimate."""
        batch, index = flow._batch, flow._index
        batch.exclusive = False
        self._advance(batch, index, now)
        batch.rate[index] = rate
        batch.epoch[index] += 1
        if rate <= 0.0:
            return  # no completion in sight; run() reports the stall
        estimate = now if math.isinf(rate) else now + batch.remaining[index] / rate
        heapq.heappush(
            self._completion_heap,
            (estimate, batch.first_id + index, batch.epoch[index], flow),
        )

    @staticmethod
    def _advance(batch: _Batch, index: int, now: float) -> None:
        """Bring a flow's remaining bytes up to date at ``now`` (lazy progress)."""
        elapsed = now - batch.progress[index]
        if elapsed > 0.0:
            rate = batch.rate[index]
            if math.isinf(rate):
                batch.remaining[index] = 0.0
            elif rate > 0.0:
                batch.remaining[index] = max(
                    0.0, batch.remaining[index] - rate * elapsed
                )
        batch.progress[index] = now

    def _sync_completion_event(self, now: float) -> None:
        """Keep exactly one engine event pointed at the earliest live estimate."""
        heap = self._completion_heap
        while heap:
            _estimate, _entry_id, epoch, payload = heap[0]
            if epoch < 0:
                # Group entry: treated as live without scanning its flows
                # (at worst one spurious, empty completion event fires).
                break
            batch, index = payload._batch, payload._index
            if batch.finish[index] is None and batch.epoch[index] == epoch:
                break
            heapq.heappop(heap)
        event = self._completion_event
        if not heap:
            if event is not None:
                event.cancel()
                self._completion_event = None
            return
        target = max(heap[0][0], now)
        if event is not None:
            if event.time == target and not event.cancelled:
                return
            event.cancel()
        self._completion_event = self.engine.schedule(
            target, self._on_completion_check, None
        )

    def _check_links_alive(self, batch: _Batch, index: int, now: float) -> None:
        """Validate (under ``"reroute"``, repair) a starting flow's path.

        A dead link under the ``"reroute"`` policy moves the flow onto a
        fresh route.  Otherwise a link *failed* by fault injection raises
        :class:`~repro.errors.LinkFailedError`, and one gone for any other
        reason — a circuit torn down between routing and flow start — raises
        :class:`~repro.errors.SimulationError`: charging its stale capacity
        would silently corrupt the allocation.
        """
        topology = self.topology
        flow = batch.flows[index]
        for link in batch.paths[index]:
            if topology.has_link(link.link_id) and (
                topology.link(link.link_id) is link
            ):
                continue
            if self.link_failure_policy == "reroute":
                _set_path(batch, index, self._reroute_path(flow, link, now))
                return
            if topology.link_failed(link.link_id):
                raise LinkFailedError(
                    f"flow {flow.flow_id} starting at t={now:g}s is routed "
                    f"over failed link {link.src}->{link.dst} "
                    f"(id {link.link_id}) (link_failure_policy='fail')",
                    flow_id=flow.flow_id,
                    link_key=link.key,
                )
            raise SimulationError(
                f"flow {flow.flow_id} starting at t={now:g}s is routed over "
                f"torn-down link {link.src}->{link.dst} (id {link.link_id}); "
                "the circuit was reconfigured away before the flow started"
            )


def _walk_component(
    flows: List[Flow], users: Dict[int, object], placed: Set[Flow]
) -> Tuple[List[float], List[List[int]], List[float]]:
    """Grow ``flows`` in place to the link-sharing component they reach.

    ``users`` maps a link id to its lone user or its set of users, as the
    simulator's registry does; the walk crosses every set, adding the riders
    not yet in ``placed`` to both.  Returns the :func:`_fill_component`
    input of the component, by position in ``flows``: each flow's private
    capacity (its smallest unshared link bandwidth) and shared link
    positions, and each shared link's capacity.
    """
    inf = math.inf
    private: List[float] = []
    crossing: List[List[int]] = []
    capacity: List[float] = []
    position: Dict[int, int] = {}
    for flow in flows:  # grows as the walk reaches new riders
        bottleneck = inf
        links: List[int] = []
        for link in flow._batch.paths[flow._index]:
            link_id = link.link_id
            riders = users[link_id]
            if type(riders) is not set:
                bandwidth = link.bandwidth
                if bandwidth < bottleneck:
                    bottleneck = bandwidth
                continue
            pos = position.get(link_id)
            if pos is None:
                position[link_id] = pos = len(capacity)
                capacity.append(link.bandwidth)
                for rider in riders:
                    if rider not in placed:
                        placed.add(rider)
                        flows.append(rider)
            links.append(pos)
        private.append(float(bottleneck))
        crossing.append(links)
    return private, crossing, capacity


#: The flows of one batch inside a completion-heap group entry; the batch's
#: own ``flows`` list when the whole batch is in it.
_Segment = Tuple[_Batch, List[Flow]]


def _add_to_group(
    groups: Dict[float, List[_Segment]], estimate: float, flow: Flow
) -> None:
    """Append ``flow`` to the completion group of ``estimate``."""
    segments = groups.get(estimate)
    batch = flow._batch
    if segments is None:
        groups[estimate] = [(batch, [flow])]
    elif segments[-1][0] is batch and segments[-1][1] is not batch.flows:
        segments[-1][1].append(flow)
    else:
        segments.append((batch, [flow]))


def _set_path(batch: _Batch, index: int, path: Tuple[Link, ...]) -> None:
    """Give one flow a new path, copying shared route columns first."""
    if type(batch.paths) is not list:
        batch.paths = list(batch.paths)
        batch.links = list(batch.links)
        batch.latencies = list(batch.latencies)
    batch.paths[index] = path
    batch.links[index] = tuple([link.link_id for link in path])
    batch.latencies[index] = sum(link.latency for link in path)

