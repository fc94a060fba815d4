"""Flow-level (fluid) network simulation with max–min fair bandwidth sharing.

Each :class:`Flow` moves ``size_bytes`` along a fixed path of links.  Whenever
the set of active flows changes (an arrival or a completion), the simulator
recomputes the max–min fair allocation with the standard progressive-filling
algorithm and reschedules the next completion.  This is the usual fluid
approximation used by datacenter-fabric studies, including the ones the paper
builds on (TopoOpt, Rail-only): no packets, no transport dynamics, just
capacity sharing.

Two things make the engine scale to 10k-endpoint fabrics:

* **Vectorized water-filling** — :func:`max_min_fair_rates` runs the
  progressive-filling rounds over a flat link×flow incidence structure with
  numpy when the flow set is large, falling back to the incremental
  pure-Python algorithm for small sets (and when numpy is unavailable).
* **Component-local reallocation** — the simulator maintains per-link user
  sets incrementally and, on every arrival/completion batch, recomputes rates
  only for the connected component of flows that (transitively) share links
  with the changed flows.  Max–min fair allocation decomposes exactly over
  such components: flows whose bottleneck sets are unaffected keep their
  rates, their progress is tracked lazily per flow, and their completion
  estimates stay queued in a lazy heap instead of being rescanned per event.

The DAG executor uses this engine when run with a flow-level network model
(:class:`~repro.simulator.flow_network.FlowNetworkModel`, selected with the
``network_mode="flow"`` backend knob): every scale-out collective is expanded
into per-step point-to-point transfers that share one simulator, so
concurrent collectives contend for link capacity.  The analytic mode bypasses
it.  The engine is also usable standalone for micro-studies such as incast on
a shared rail switch versus dedicated circuits.
"""

from __future__ import annotations

import heapq
import itertools
import math
from typing import (
    Callable,
    Dict,
    FrozenSet,
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

try:  # numpy is a declared dependency, but the pure-Python path keeps the
    import numpy as _np  # engine usable in stripped-down environments.
except ImportError:  # pragma: no cover - exercised via the fallback tests
    _np = None

#: Tolerance used when deciding whether a flow has finished transferring.
_BYTES_EPSILON = 1e-6

#: Flow-set size below which progressive filling runs directly — component
#: decomposition and numpy dispatch only pay for themselves on larger sets.
_DECOMPOSE_MIN_FLOWS = 16

#: Component size at which the numpy water-filling pays for its setup cost.
_VECTORIZE_MIN_FLOWS = 32

#: Smallest batch worth sealing: below this the generic per-flow completion
#: path costs about the same as seal validation plus the bulk sweep.
_SEALED_MIN_FLOWS = 32

#: Deferred route: called at the flow's start event to resolve the path.
#: Circuit-switched fabrics install a collective's circuits *after* its flows
#: are scheduled (the switching delay separates the two), so the route over
#: those circuits only exists — and is only looked up — when the flow starts.
#: A resolver must return currently-installed links (the version-keyed route
#: caches guarantee this), so resolver paths skip the per-link liveness check.
PathResolver = Callable[[], Sequence[Link]]

LinkKey = Tuple[str, str, int]


def _flow_id_of(flow: "Flow") -> int:
    """Sort key for deterministic iteration over flow sets."""
    return flow.flow_id


class AllocatorStats:
    """Counters over the simulator's allocation machinery.

    One instance can be shared across simulator rebuilds — the flow network
    models keep a single object for a whole training run — so the solver
    work of a whole run stays visible in benchmark output no matter how many
    times the underlying simulator is recreated.
    """

    __slots__ = (
        "allocator_invocations",
        "rerated_components",
        "rerated_flows",
    )

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


class _FlowGroup:
    """Completion accounting for one batch of flows injected together.

    The owner receives a single callback with the batch's last finish time
    once every member completed — one callback per collective step instead of
    one per flow.  The group also remembers the (cached, shared) item list it
    was built from, which keys the isolated-component allocation memo.
    """

    __slots__ = ("outstanding", "end", "callback", "items")

    def __init__(self, outstanding: int, callback: Callable[[float], None]) -> None:
        self.outstanding = outstanding
        self.end = 0.0
        self.callback = callback
        self.items: object = None


class _PhantomBatch:
    """Marker standing in for a sealed batch's per-flow link registrations.

    A shape-replayed batch (see :class:`_BatchShape`) claims its links by
    pointing every key at one of these instead of registering each member
    flow — one dict entry per link either way, but claimed with two C-level
    bulk operations instead of a Python loop per flow per link.  Any code
    path that needs real per-flow membership (a later batch joining one of
    the links, a fault) first calls ``_materialize_phantom``, which swaps
    the markers for ordinary registrations; undisturbed batches retire in
    bulk without ever materializing.
    """

    __slots__ = ("members", "keys", "retired", "outstanding")

    def __init__(self) -> None:
        self.members: List[Tuple["Flow", int]] = []
        self.keys: Tuple[LinkKey, ...] = ()
        self.retired = False
        #: Sealed completion entries (one per drain-duration group) still in
        #: flight; the markers come down when the last one retires.
        self.outstanding = 0


class _BatchShape:
    """Memoized bookkeeping for one recurring self-contained batch shape.

    Synchronized steady state re-injects identically-shaped batches — the
    same (cached) path objects, the same sizes — once per collective step,
    hundreds of times per iteration.  After the first fully-registered
    solve, the shape records everything replay needs: the allocation, the
    claimed link keys, per-flow latencies, and the uniform drain duration.
    Replays then skip per-flow registration, solving, and estimate math
    entirely (see ``_try_shape_replay``); a replay is bit-for-bit identical
    to the slow path because every stored float was produced by it.
    """

    __slots__ = (
        "anchors",
        "sizes",
        "rates",
        "latencies",
        "keys",
        "key_set",
        "id_items",
        "groups",
    )

    def __init__(
        self,
        anchors: Tuple[Tuple[Link, ...], ...],
        sizes: Tuple[float, ...],
        rates: List[float],
        latencies: Tuple[float, ...],
        keys: Tuple[LinkKey, ...],
        key_set: FrozenSet[LinkKey],
        groups: Optional[Tuple[Tuple[float, Tuple[int, ...]], ...]],
    ) -> None:
        self.anchors = anchors
        self.sizes = sizes
        self.rates = rates
        self.latencies = latencies
        self.keys = keys
        self.key_set = key_set
        self.id_items = tuple((key[2], key) for key in keys)
        #: (drain_duration, member_indices) per completion-estimate group, in
        #: first-occurrence order (matching the slow path's estimate dict) —
        #: or ``None`` when the shape is not replayable (a zero or infinite
        #: rate somewhere).
        self.groups = groups


class Flow:
    """One fluid flow over a fixed path.

    Attributes
    ----------
    flow_id:
        Unique identifier assigned by the simulator.
    path:
        The links the flow traverses, in order.  An empty path means the
        source and destination are co-located and the flow completes after
        its latency only.
    size_bytes:
        Bytes to transfer.
    start_time:
        Arrival time of the flow.
    """

    __slots__ = (
        "flow_id",
        "path",
        "size_bytes",
        "start_time",
        "remaining_bytes",
        "rate",
        "finish_time",
        "_progress_time",
        "_epoch",
        "_added_version",
        "_resolver",
        "_on_complete",
        "_group",
        "_path_latency",
    )

    def __init__(
        self,
        flow_id: int,
        path: Sequence[Link],
        size_bytes: float,
        start_time: float,
    ) -> None:
        if size_bytes < 0:
            raise SimulationError("flow size must be non-negative")
        self.flow_id = flow_id
        self.path: Tuple[Link, ...] = tuple(path)
        self.size_bytes = size_bytes
        self.start_time = start_time
        self.remaining_bytes = float(size_bytes)
        self.rate = 0.0
        self.finish_time: Optional[float] = None
        #: Time up to which ``remaining_bytes`` is accurate (lazy progress).
        self._progress_time = start_time
        #: Bumped on every rate change; stale completion-heap entries carry an
        #: older epoch and are dropped when they surface.
        self._epoch = 0
        #: Topology version when the flow was admitted (liveness fast path).
        self._added_version: Optional[int] = None
        #: Deferred path resolver, completion callback, and batch accounting
        #: (set by the owning simulator; None for standalone flows).
        self._resolver: Optional[PathResolver] = None
        self._on_complete: Optional[Callable[["Flow"], None]] = None
        self._group: Optional[_FlowGroup] = None
        #: Path latency, folded in during link registration (hot path).
        self._path_latency = 0.0

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


def max_min_fair_rates(
    flows: Sequence[Flow], capacities: Optional[Dict[LinkKey, float]] = None
) -> Dict[int, float]:
    """Compute the max–min fair rate of each flow by progressive filling.

    Dispatches to a numpy water-filling over the link×flow incidence
    structure for large flow sets and to the incremental pure-Python
    algorithm otherwise; both produce identical allocations.

    Parameters
    ----------
    flows:
        Active flows; flows with an empty path receive infinite rate.
    capacities:
        Optional override of per-link capacities keyed by ``link.key``
        (defaults to each link's ``bandwidth``).

    Returns
    -------
    dict
        Mapping of ``flow_id`` to allocated rate in bytes/second.
    """
    if len(flows) < _DECOMPOSE_MIN_FLOWS:
        return _max_min_fair_rates_python(flows, capacities)
    if _np is not None and len(flows) >= _VECTORIZE_MIN_FLOWS:
        # The numpy solver labels link-sharing components itself and fills
        # them in parallel (one bottleneck per component per round), so no
        # Python-level decomposition is needed in front of it.
        return _max_min_fair_rates_numpy(flows, capacities)
    # Max-min fairness decomposes exactly over connected components of the
    # flow/link sharing graph: progressive filling on one component never
    # reads capacity touched by another.  Without numpy, solving components
    # independently still turns the round count from "distinct shares
    # overall" into "distinct shares per component".
    components = _sharing_components(flows)
    rates: Dict[int, float] = {}
    for component in components:
        rates.update(_max_min_fair_rates_python(component, capacities))
    return rates


def _sharing_components(flows: Sequence[Flow]) -> List[List[Flow]]:
    """Partition flows into connected components of link sharing.

    Empty-path flows form singleton components (they get infinite rate from
    either solver).  Union-find over link keys with path halving; each
    (flow, link) incidence is touched O(alpha) times.
    """
    parent: Dict[LinkKey, LinkKey] = {}
    for flow in flows:
        path = flow.path
        if not path:
            continue
        first = path[0].key
        root = parent.setdefault(first, first)
        while parent[root] is not root:
            parent[root] = parent[parent[root]]
            root = parent[root]
        for link in path[1:]:
            key = link.key
            other = parent.setdefault(key, key)
            while parent[other] is not other:
                parent[other] = parent[parent[other]]
                other = parent[other]
            if other is not root:
                parent[other] = root
    groups: Dict[Optional[LinkKey], List[Flow]] = {}
    for flow in flows:
        if not flow.path:
            groups.setdefault(None, []).append(flow)
            continue
        root = flow.path[0].key
        while parent[root] is not root:
            parent[root] = parent[parent[root]]
            root = parent[root]
        groups.setdefault(root, []).append(flow)
    return list(groups.values())


def _max_min_fair_rates_python(
    flows: Sequence[Flow], capacities: Optional[Dict[LinkKey, float]] = None
) -> Dict[int, float]:
    """Progressive filling with incremental per-link user-set bookkeeping."""
    remaining_capacity: Dict[LinkKey, float] = {}
    # Per-link set of *still-unallocated* flows; flows are removed as they
    # freeze, so each (flow, link) pair is touched O(1) times overall instead
    # of being re-intersected against the unallocated set every round.
    link_flows: Dict[LinkKey, Set[int]] = {}
    flow_by_id: Dict[int, Flow] = {flow.flow_id: flow for flow in flows}
    for flow in flows:
        for link in flow.path:
            key = link.key
            if key not in remaining_capacity:
                capacity = link.bandwidth
                if capacities and key in capacities:
                    capacity = capacities[key]
                remaining_capacity[key] = capacity
                link_flows[key] = set()
            link_flows[key].add(flow.flow_id)

    rates: Dict[int, float] = {}
    num_unallocated = 0
    for flow in flows:
        if not flow.path:
            rates[flow.flow_id] = math.inf
        else:
            num_unallocated += 1

    while num_unallocated:
        # Find the most constrained link: smallest fair share among its
        # still-unallocated flows.
        best_share = None
        for key, users in link_flows.items():
            if not users:
                continue
            share = remaining_capacity[key] / len(users)
            if best_share is None or share < best_share:
                best_share = share
        if best_share is None:
            # Remaining flows traverse only links with no capacity constraint.
            for flow in flows:
                if flow.flow_id not in rates:
                    rates[flow.flow_id] = math.inf
            break
        # Freeze every flow crossing a link whose fair share equals the bottleneck.
        frozen: Set[int] = set()
        for key, users in link_flows.items():
            if not users:
                continue
            share = remaining_capacity[key] / len(users)
            if share <= best_share * (1 + 1e-12):
                frozen.update(users)
        # Subtract the frozen flows' rates from every link they traverse and
        # drop them from the per-link user sets (incremental bookkeeping);
        # links whose last user froze are retired from the scan entirely.
        for flow_id in frozen:
            rates[flow_id] = best_share
            for link in flow_by_id[flow_id].path:
                key = link.key
                users = link_flows.get(key)
                if users is None:
                    continue  # retired in an earlier round; never read again
                remaining_capacity[key] = max(
                    0.0, remaining_capacity[key] - best_share
                )
                users.discard(flow_id)
                if not users:
                    del link_flows[key]
        num_unallocated -= len(frozen)
    return rates


#: Iteration cap for the component-label propagation inside the numpy
#: solver.  Typical sharing graphs converge in a handful of sweeps; on
#: pathological long chains the solver safely falls back to one global
#: component (exact, just more filling rounds).
_LABEL_SWEEPS_MAX = 16


def _max_min_fair_rates_numpy(
    flows: Sequence[Flow], capacities: Optional[Dict[LinkKey, float]] = None
) -> Dict[int, float]:
    """Segmented water-filling over a flat link×flow incidence structure.

    The solver first labels the connected components of the link-sharing
    graph with a few ``minimum.reduceat`` sweeps, then runs progressive
    filling with one bottleneck *per component* per round: independent
    components fill in parallel, so the round count is the deepest single
    component's share ladder instead of the number of distinct shares
    overall.  Every round is a handful of O(incidence) array operations,
    and the incidence arrays are compacted as flows freeze.  The allocation
    is identical to the pure-Python algorithm.
    """
    rates: Dict[int, float] = {}
    link_index: Dict[LinkKey, int] = {}
    caps: List[float] = []
    entry_flow: List[int] = []
    entry_link: List[int] = []
    constrained: List[Flow] = []
    for flow in flows:
        if not flow.path:
            rates[flow.flow_id] = math.inf
            continue
        flow_pos = len(constrained)
        constrained.append(flow)
        for link in flow.path:
            key = link.key
            link_pos = link_index.get(key)
            if link_pos is None:
                link_pos = len(caps)
                link_index[key] = link_pos
                capacity = link.bandwidth
                if capacities and key in capacities:
                    capacity = capacities[key]
                caps.append(capacity)
            entry_flow.append(flow_pos)
            entry_link.append(link_pos)
    if not constrained:
        return rates

    flow_rate = _fill_incidence(
        _np.asarray(caps, dtype=float),
        _np.asarray(entry_flow, dtype=_np.intp),
        _np.asarray(entry_link, dtype=_np.intp),
        len(constrained),
    )
    for flow_pos, flow in enumerate(constrained):
        value = flow_rate[flow_pos]
        rates[flow.flow_id] = math.inf if math.isinf(value) else float(value)
    return rates


def _fill_incidence(cap, e_flow, e_link, num_flows):
    """Water-fill one pre-built link×flow incidence; returns per-flow rates.

    ``e_flow`` must be non-decreasing and every flow/link position must
    appear at least once.
    """
    num_links = cap.shape[0]

    # --- component labels (links): alternating min-propagation ----------- #
    # Entries were appended flow-by-flow, so e_flow is non-decreasing and
    # every flow/link has at least one entry: reduceat segments are exact.
    flow_starts = _np.searchsorted(e_flow, _np.arange(num_flows))
    link_order = _np.argsort(e_link, kind="stable")
    sorted_links = e_link[link_order]
    link_starts = _np.flatnonzero(
        _np.r_[True, sorted_links[1:] != sorted_links[:-1]]
    )
    label = _np.arange(num_links, dtype=_np.intp)
    converged = False
    for _sweep in range(_LABEL_SWEEPS_MAX):
        flow_label = _np.minimum.reduceat(label[e_link], flow_starts)
        new_label = _np.minimum.reduceat(
            flow_label[e_flow][link_order], link_starts
        )
        if _np.array_equal(new_label, label):
            converged = True
            break
        label = new_label
    if not converged:
        # Under-merged labels would freeze non-global minima inside one true
        # component; a single global component is always exact.
        label = _np.zeros(num_links, dtype=_np.intp)
    _uniq, comp_of_link = _np.unique(label, return_inverse=True)
    comp_of_flow = comp_of_link[e_link[flow_starts]]
    comp_order = _np.argsort(comp_of_link, kind="stable")
    sorted_comps = comp_of_link[comp_order]
    comp_starts = _np.flatnonzero(
        _np.r_[True, sorted_comps[1:] != sorted_comps[:-1]]
    )

    user_count = _np.bincount(e_link, minlength=num_links).astype(float)
    entry_alive = _np.ones(len(e_flow), dtype=bool)
    flow_rate = _np.zeros(num_flows, dtype=float)
    flow_unallocated = _np.ones(num_flows, dtype=bool)
    remaining = num_flows

    while remaining:
        with _np.errstate(divide="ignore"):
            shares = _np.where(
                user_count > 0.0, cap / _np.maximum(user_count, 1.0), _np.inf
            )
        # One bottleneck per component; finished components read inf and
        # freeze nothing (their entries are all dead).  A component whose
        # remaining links are unconstrained freezes its flows at inf.
        comp_best = _np.minimum.reduceat(shares[comp_order], comp_starts)
        frozen_link = shares <= comp_best[comp_of_link] * (1 + 1e-12)
        frozen_entries = entry_alive & frozen_link[e_link]
        newly_frozen = _np.unique(e_flow[frozen_entries])
        if newly_frozen.size == 0:
            flow_rate[flow_unallocated] = _np.inf
            break
        flow_rate[newly_frozen] = comp_best[comp_of_flow[newly_frozen]]
        flow_unallocated[newly_frozen] = False
        dead = entry_alive & ~flow_unallocated[e_flow]
        dead_link = e_link[dead]
        finite_rate = _np.where(
            _np.isfinite(flow_rate), flow_rate, 0.0
        )  # inf-rate flows only ever cross unconstrained links
        cap_drain = _np.bincount(
            dead_link, weights=finite_rate[e_flow[dead]], minlength=num_links
        )
        cap -= cap_drain
        _np.maximum(cap, 0.0, out=cap)
        user_count -= _np.bincount(dead_link, minlength=num_links)
        entry_alive &= ~dead
        remaining -= int(newly_frozen.size)
        # Compact the incidence arrays once most entries have died, so a
        # many-round filling scans the shrinking live set instead of the
        # full original incidence.
        alive_count = int(entry_alive.sum())
        if alive_count * 2 < e_flow.size:
            e_flow = e_flow[entry_alive]
            e_link = e_link[entry_alive]
            entry_alive = _np.ones(alive_count, dtype=bool)

    return flow_rate


@register_continuation("flows.empty_batch_complete")
def _complete_empty_batch(engine: SimulationEngine, on_complete) -> None:
    """Completion event for a degenerate zero-flow batch (see add_flows)."""
    on_complete(engine.now)


class FlowSimulator(Snapshottable):
    """Event-driven fluid simulator over a set of flows.

    Usage::

        sim = FlowSimulator()
        sim.add_flow(path, size_bytes, start_time=0.0, on_complete=callback)
        sim.run()

    Arrivals at one instant are batched behind a single engine event, and a
    batch of arrivals/completions triggers rate recomputation only for the
    connected component of flows sharing links with the change (see the
    module docstring).
    """

    def __init__(
        self,
        engine: Optional[SimulationEngine] = None,
        topology: Optional[Topology] = None,
        stats: Optional[AllocatorStats] = None,
    ) -> None:
        self.engine = engine or SimulationEngine()
        self.stats = stats if stats is not None else AllocatorStats()
        #: Optional topology the flows route over.  When set, every flow's
        #: links are checked for liveness at the flow's start event, so a
        #: route over a torn-down circuit fails loudly instead of silently
        #: charging capacity that no longer exists.
        self.topology = topology
        self._active: Set[Flow] = set()
        #: Next flow id.  A plain int (not itertools.count) so snapshots can
        #: capture and restore it explicitly.
        self._counter = 0
        #: Flows pending start, batched per exact arrival instant; one
        #: engine event per distinct instant reallocates once for the batch.
        self._pending_at: Dict[float, List[Flow]] = {}
        #: Active flows per link key, maintained incrementally.  The value is
        #: the lone :class:`Flow` while a link has a single user (the common
        #: case on provisioned fabrics) and is promoted to a set of flows on
        #: the first sharer — one allocation per *contended* link instead of
        #: one per registration.
        self._link_users: Dict[LinkKey, object] = {}
        #: Per-path registration metadata keyed by the path tuple's identity:
        #: (path, link keys, static bottleneck bandwidth, total latency).
        #: Paths come from the models' route tables as shared tuples, so one
        #: entry serves every flow and iteration using the route.  Holding
        #: the path in the value pins the id.  (Mutating a link's bandwidth
        #: between two same-path flows is not picked up by the cached
        #: bottleneck; the progressive-filling path always reads live.)
        self._path_meta: Dict[int, Tuple[Tuple[Link, ...], Tuple[LinkKey, ...], float, float]] = {}
        #: Lazy completion heap of (finish_estimate, tiebreak_id, epoch,
        #: payload) entries — single flows carry their epoch (stale entries,
        #: whose flow's rate changed since, are skipped), uniform batches
        #: carry ``-1`` and a list of (flow, epoch) members.
        self._completion_heap: List[Tuple[float, int, int, object]] = []
        self._completion_event = None
        #: Memoized allocations for self-contained batches, keyed by the
        #: identity of the (cached) item list they were injected from.
        self._isolated_rates: Dict[int, Tuple[object, Optional[int], List[float]]] = {}
        #: Content-keyed fallback memo for self-contained batches that span
        #: several injection groups (e.g. one synchronized step of many
        #: concurrent rings): max–min rates are a pure function of the
        #: ordered path list and the topology version, so later steps with
        #: the same routes replay the allocation positionally.
        self._content_rates: Dict[
            Tuple[Optional[int], Tuple[int, ...]],
            Tuple[Tuple[Tuple[Link, ...], ...], List[float]],
        ] = {}
        #: Sealed-batch bookkeeping.  A *sealed* completion-heap entry is a
        #: self-contained batch whose members all share one finish estimate;
        #: if nothing disturbed it in flight, completion retires its link
        #: registrations per *link* instead of per flow×link and skips the
        #: per-flow drain math.  Disturbances are recorded where they happen:
        #: every re-rate adds its closure's links to ``_sealed_disturbed``,
        #: and fault handling bumps ``_seal_gen`` (invalidating every
        #: outstanding seal at once).  The disturbed-link set is cleared
        #: whenever the last sealed entry pops, so it stays small.
        self._seal_gen = 0
        self._sealed_outstanding = 0
        self._sealed_disturbed: Set[LinkKey] = set()
        #: Full replay bookkeeping for recurring batch shapes (the sealed
        #: lane's other half): content key -> :class:`_BatchShape`.
        self._batch_shapes: Dict[
            Tuple[Optional[int], Tuple[int, ...]], _BatchShape
        ] = {}
        #: Live phantom batches (shape replays whose links are claimed by
        #: markers); faults materialize them all before touching capacities.
        self._phantoms: Set[_PhantomBatch] = set()
        #: What happens to a flow whose path loses a link while the flow is
        #: pending or on the wire: ``"fail"`` raises the typed
        #: :class:`~repro.errors.LinkFailedError`, ``"reroute"`` resolves a
        #: fresh route over the surviving topology.  Fault-aware network
        #: models set this from their :class:`~repro.simulator.faults.FaultPlan`.
        self.link_failure_policy: str = "fail"
        #: Optional route chooser consulted when a rerouted casualty needs a
        #: fresh path: ``route_policy(src_node, dst_node)`` returns the link
        #: sequence to move the flow onto.  Network models running a
        #: non-default routing policy install their policy router here so a
        #: fault reroute stays under the run's policy (adaptive flows pick
        #: the least-congested survivor, ECMP flows re-hash over the
        #: surviving equal-cost set) instead of collapsing onto the
        #: deterministic shortest path.  ``None`` — the default — preserves
        #: the original shortest-path reroute bit-for-bit.
        self.route_policy: Optional[Callable[[str, str], Sequence[Link]]] = None
        #: link_id -> key of every link with at least one active user, so
        #: circuit tear-downs (which only know topology link ids) can find
        #: the flows riding them without scanning the user registry.
        self._link_id_keys: Dict[int, LinkKey] = {}

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        # Identity-keyed memo caches: pickle and deepcopy preserve object
        # identity *within* one captured graph but not the id() values used
        # as dict keys, so every memo is re-keyed on the anchor object its
        # value pins.  Without this the memos would merely go cold after a
        # restore or fork — still correct, but the cold rebuilds would be
        # counted as extra allocator work, breaking the guarantee that a
        # continued snapshot reports the same stats as a straight run.
        self._path_meta = {id(meta[0]): meta for meta in self._path_meta.values()}
        self._isolated_rates = {
            id(memo[0]): memo for memo in self._isolated_rates.values()
        }
        self._content_rates = {
            (key[0], tuple(id(anchor) for anchor in memo[0])): memo
            for key, memo in self._content_rates.items()
        }
        self._batch_shapes = {
            (key[0], tuple(id(anchor) for anchor in shape.anchors)): shape
            for key, shape in self._batch_shapes.items()
        }

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
        path.
        """
        resolver: Optional[PathResolver] = None
        if callable(path):
            resolver, path = path, ()
        flow_id = self._counter
        self._counter = flow_id + 1
        flow = Flow(
            flow_id=flow_id,
            path=path,
            size_bytes=size_bytes,
            start_time=start_time,
        )
        if self.topology is not None:
            flow._added_version = self.topology.version
        flow._resolver = resolver
        flow._on_complete = on_complete
        batch = self._pending_at.get(start_time)
        if batch is None:
            self._pending_at[start_time] = batch = []
            self.engine.schedule(start_time, self._on_batch_start, start_time)
        batch.append(flow)
        return flow

    def add_flows(
        self,
        items: Sequence[Tuple[Union[Sequence[Link], PathResolver], float]],
        start_time: float,
        on_complete: Callable[[float], None],
    ) -> List[Flow]:
        """Register a batch of flows sharing one arrival instant and callback.

        ``items`` are ``(path_or_resolver, size_bytes)`` pairs.  The batch's
        ``on_complete`` fires once — with the last member's finish time — when
        every flow in the batch has drained.  This is the bulk interface the
        flow network models use for collective steps: one engine event and
        one completion callback per step instead of one per transfer.
        """
        for _path, size_bytes in items:
            # Validate before any state mutation: a mid-loop raise would
            # otherwise leave phantom flows registered in the pending batch
            # under a group whose callback could never fire.
            if size_bytes < 0:
                raise SimulationError("flow size must be non-negative")
        version = self.topology.version if self.topology is not None else None
        group = _FlowGroup(len(items), on_complete)
        group.items = items
        flow_id = self._counter
        batch = self._pending_at.get(start_time)
        if batch is None:
            self._pending_at[start_time] = batch = []
            self.engine.schedule(start_time, self._on_batch_start, start_time)
        created: List[Flow] = []
        new_flow = Flow.__new__
        for path, size_bytes in items:
            resolver = None
            if callable(path):
                resolver, path = path, ()
            # Inlined Flow construction: this loop runs once per transfer of
            # every collective step, so the constructor call overhead counts.
            flow = new_flow(Flow)
            flow.flow_id = flow_id
            flow_id += 1
            flow.path = path if type(path) is tuple else tuple(path)
            flow.size_bytes = size_bytes
            flow.start_time = start_time
            flow.remaining_bytes = float(size_bytes)
            flow.rate = 0.0
            flow.finish_time = None
            flow._progress_time = start_time
            flow._epoch = 0
            flow._added_version = version
            flow._resolver = resolver
            flow._on_complete = None
            flow._group = group
            flow._path_latency = 0.0
            batch.append(flow)
            created.append(flow)
        self._counter = flow_id
        if not items:
            # Degenerate empty batch: nothing will ever decrement the group,
            # so it completes at its start time.  The callback is a named
            # continuation (not a closure) so a snapshot taken while the
            # event is pending stays serializable.
            self.engine.schedule(start_time, _complete_empty_batch, on_complete)
        return created

    def flow(self, flow_id: int) -> Flow:
        """Return the pending or active flow with id ``flow_id``.

        Completed flows are dropped from the simulator's bookkeeping (callers
        hold the :class:`Flow` returned by :meth:`add_flow` or receive it in
        their completion callback), so looking one up here raises.  This is a
        debugging accessor and scans the pending/active sets; the hot paths
        deliberately carry flow objects instead of ids.
        """
        for flow in self._active:
            if flow.flow_id == flow_id:
                return flow
        for batch in self._pending_at.values():
            for flow in batch:
                if flow.flow_id == flow_id:
                    return flow
        raise SimulationError(f"unknown (or already completed) flow id {flow_id}")

    @property
    def active_flows(self) -> List[Flow]:
        """Flows currently transferring."""
        return sorted(self._active, key=_flow_id_of)

    # ------------------------------------------------------------------ #
    # Live-load introspection (routing policies, telemetry)
    # ------------------------------------------------------------------ #

    def link_occupancy(self, key: LinkKey) -> int:
        """Number of active flows currently riding the link ``key``.

        Read from the user registry, which every code path maintains — so
        adaptive route choice sees the same congestion picture whether the competing
        batches went through the exact solver or the sealed replay lane.
        Phantom batches are counted without materializing them: reading
        congestion must not perturb the replay fast path.
        """
        users = self._link_users.get(key)
        if users is None:
            return 0
        kind = type(users)
        if kind is set:
            return len(users)
        if kind is _PhantomBatch:
            count = 0
            for flow, _epoch in users.members:
                if flow.finish_time is None:
                    for link in flow.path:
                        if link.key == key:
                            count += 1
                            break
            return count
        return 1

    def link_loads(self) -> Iterable[Tuple[LinkKey, float, int]]:
        """Yield ``(key, allocated_rate, active_flows)`` per in-use link.

        The telemetry collector's sampling primitive: one pass over the user
        registry, summing live member rates (infinite rates — empty-path
        flows never register on links, but a defensive 0 keeps the sums
        finite).  Phantom batches are expanded read-only into a side
        accumulator, shared across all of the phantom's links.
        """
        phantom_loads: Dict[int, Dict[LinkKey, Tuple[float, int]]] = {}
        for key, users in self._link_users.items():
            kind = type(users)
            if kind is set:
                rate = 0.0
                for flow in users:
                    if not math.isinf(flow.rate):
                        rate += flow.rate
                yield key, rate, len(users)
            elif kind is _PhantomBatch:
                loads = phantom_loads.get(id(users))
                if loads is None:
                    loads = {}
                    for flow, _epoch in users.members:
                        if flow.finish_time is not None:
                            continue
                        rate = flow.rate if not math.isinf(flow.rate) else 0.0
                        for link in flow.path:
                            entry = loads.get(link.key)
                            loads[link.key] = (
                                (entry[0] + rate, entry[1] + 1)
                                if entry is not None
                                else (rate, 1)
                            )
                    phantom_loads[id(users)] = loads
                rate, count = loads.get(key, (0.0, 0))
                yield key, rate, count
            else:
                rate = users.rate
                yield key, (0.0 if math.isinf(rate) else rate), 1

    # ------------------------------------------------------------------ #
    # Simulation
    # ------------------------------------------------------------------ #

    def run(self, until: Optional[float] = None) -> float:
        """Run until all flows complete (or ``until``); returns the stop time.

        Raises
        ------
        SimulationError
            If the event queue drains while flows are still active.  This
            happens when a flow is allocated rate 0 forever — e.g. its path
            crosses a link whose capacity was overridden to 0 — so it would
            otherwise never complete and ``run`` would silently return with
            unfinished flows.
        """
        stop = self.engine.run(until=until)
        if self._active and self.engine.pending == 0:
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
        connected components of flows touching the changed links are
        re-allocated from the live capacities (everyone else keeps their
        rates and estimates), and the path-derived caches — per-path static
        bottlenecks, isolated-batch allocations — are dropped so no future
        batch replays a rate computed against the old capacity.
        """
        if now is None:
            now = self.engine.now
        self._path_meta.clear()
        self._isolated_rates.clear()
        self._content_rates.clear()
        self._batch_shapes.clear()
        # Invalidate every outstanding sealed batch: capacities (or the
        # registry itself) are about to change under them.  Phantom batches
        # must come back to real per-flow registrations first — the exact
        # re-rate below walks the user registry.
        self._seal_gen += 1
        if self._phantoms:
            for phantom in list(self._phantoms):
                self._materialize_phantom(phantom)
        dirty = [key for key in keys if key in self._link_users]
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
        if now is None:
            now = self.engine.now
        self._path_meta.clear()
        self._isolated_rates.clear()
        self._content_rates.clear()
        self._batch_shapes.clear()
        # Invalidate every outstanding sealed batch: capacities (or the
        # registry itself) are about to change under them.  Phantom batches
        # must come back to real per-flow registrations first — the exact
        # re-rate below walks the user registry.
        self._seal_gen += 1
        if self._phantoms:
            for phantom in list(self._phantoms):
                self._materialize_phantom(phantom)
        link_users = self._link_users
        failed_keys = set(keys)
        casualties: List[Flow] = []
        seen: Set[Flow] = set()
        for key in sorted(failed_keys):
            users = link_users.pop(key, None)
            if users is None:
                continue
            del self._link_id_keys[key[2]]
            for flow in (users,) if type(users) is not set else users:
                if flow not in seen:
                    seen.add(flow)
                    casualties.append(flow)
        if not casualties:
            return []
        casualties.sort(key=_flow_id_of)
        reroute = self.link_failure_policy == "reroute"
        victims: List[Tuple[Flow, Link]] = []
        for flow in casualties:
            dead = next(link for link in flow.path if link.key in failed_keys)
            if not reroute:
                raise LinkFailedError(
                    f"flow {flow.flow_id} was on the wire over link "
                    f"{dead.src}->{dead.dst} (id {dead.link_id}) when it "
                    f"failed at t={now:g}s (link_failure_policy='fail')",
                    flow_id=flow.flow_id,
                    link_key=dead.key,
                )
            victims.append((flow, dead))
        dirty_links: List[LinkKey] = []
        version = self.topology.version if self.topology is not None else None
        for flow, dead in victims:
            self._advance_flow(flow, now)
            self._unregister_path(flow, failed_keys, dirty_links)
            flow.path = self._reroute_path(flow, dead, now)
            flow._added_version = version
            self._register_path(flow)
        self._reallocate(casualties, dirty_links, now)
        return casualties

    def fail_link_ids(
        self, link_ids: Iterable[int], now: Optional[float] = None
    ) -> List[Flow]:
        """Like :meth:`fail_links`, addressed by topology link id.

        Circuit tear-down events only know the topology link ids they
        removed; this resolves them against the per-id index and is a no-op
        (no cache invalidation, no allocation work) when no active flow was
        riding the torn links — the overwhelmingly common case on a healthy
        circuit fabric.
        """
        index = self._link_id_keys
        keys = [index[link_id] for link_id in link_ids if link_id in index]
        if not keys:
            return []
        return self.fail_links(keys, now)

    def _unregister_path(
        self, flow: Flow, skip_keys: Set[LinkKey], dirty_links: List[LinkKey]
    ) -> None:
        """Remove ``flow`` from its links' user sets (cold fault path)."""
        link_users = self._link_users
        for link in flow.path:
            key = link.key
            if key in skip_keys:
                continue
            users = link_users.get(key)
            if users is flow:
                del link_users[key]
                del self._link_id_keys[key[2]]
            elif type(users) is set:
                users.discard(flow)
                if len(users) == 1:
                    (link_users[key],) = users
                dirty_links.append(key)

    def _register_path(self, flow: Flow) -> None:
        """Register ``flow`` on every link of its path (cold fault path)."""
        link_users = self._link_users
        for link in flow.path:
            key = link.key
            users = link_users.get(key)
            if users is None:
                link_users[key] = flow
                self._link_id_keys[key[2]] = key
            elif type(users) is set:
                users.add(flow)
            else:
                link_users[key] = {users, flow}
        flow._path_latency = sum(link.latency for link in flow.path)

    def _reroute_path(
        self, flow: Flow, dead: Link, now: float
    ) -> Tuple[Link, ...]:
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

    # ------------------------------------------------------------------ #
    # Event handlers
    # ------------------------------------------------------------------ #

    def _on_batch_start(self, engine: SimulationEngine, start_time: float) -> None:
        now = engine.now
        batch = self._pending_at.pop(start_time, ())
        if (
            self._batch_shapes
            and len(batch) >= _SEALED_MIN_FLOWS
            and self._try_shape_replay(batch, now)
        ):
            return
        link_users = self._link_users
        link_id_keys = self._link_id_keys
        active = self._active
        topology = self.topology
        version = topology.version if topology is not None else None
        path_meta = self._path_meta
        dirty: List[Flow] = []
        solo_bw: List[float] = []
        batch_links: Set[LinkKey] = set()
        add_batch_link = batch_links.add
        intra_shared = False
        external_shared = False
        for flow in batch:
            resolver = flow._resolver
            if resolver is not None:
                # Freshly resolved against the live topology; no liveness
                # check needed (see PathResolver).
                flow._resolver = None
                flow.path = tuple(resolver())
            elif version is not None and flow._added_version != version:
                self._check_links_alive(flow, now)
            flow._progress_time = now
            path = flow.path
            if flow.size_bytes <= _BYTES_EPSILON or not path:
                # Zero-size flows and co-located endpoints (empty path =
                # infinite rate) complete after their latency only; no
                # representable transfer time separates start from finish.
                self._complete_flow(flow, now + flow.latency)
                continue
            active.add(flow)
            # Register the flow on every link of its (shared, cached) path
            # via the per-path metadata, and track who shares links with
            # whom — other members of this batch, or flows already on the wire.
            meta = path_meta.get(id(path))
            if meta is None or meta[0] is not path:
                keys = tuple(link.key for link in path)
                meta = (
                    path,
                    keys,
                    min(link.bandwidth for link in path),
                    sum(link.latency for link in path),
                )
                if len(path_meta) >= 65536:
                    path_meta.clear()
                path_meta[id(path)] = meta
            for key in meta[1]:
                users = link_users.get(key)
                if users is None:
                    link_users[key] = flow
                    link_id_keys[key[2]] = key
                    add_batch_link(key)
                else:
                    if type(users) is _PhantomBatch:
                        # A shape-replayed batch holds this link via a
                        # marker; swap in its real registrations and join
                        # them.  The key can come back empty — the marker
                        # may have outlived its members (they finished, but
                        # the phantom's later duration groups kept the
                        # claim up) — in which case this flow is alone.
                        self._materialize_phantom(users)
                        users = link_users.get(key)
                    if users is None:
                        link_users[key] = flow
                        link_id_keys[key[2]] = key
                        add_batch_link(key)
                        continue
                    if type(users) is set:
                        users.add(flow)
                    else:
                        link_users[key] = {users, flow}
                    if key in batch_links:
                        intra_shared = True
                    else:
                        external_shared = True
            flow._path_latency = meta[3]
            dirty.append(flow)
            solo_bw.append(meta[2])
        if not dirty:
            self._sync_completion_event(now)
            return
        if not intra_shared and not external_shared:
            # The whole batch rides dedicated links (the dominant case on
            # provisioned circuits and fully-connected rails): every flow's
            # max-min fair rate is its plain path bottleneck, no progressive
            # filling and no component closure needed.
            if len(dirty) == len(batch) and len(dirty) >= _SEALED_MIN_FLOWS:
                self._store_shape(batch, solo_bw, version, batch_links)
            self._apply_batch_rates(dirty, solo_bw, now, sealed_links=batch_links)
            return
        if not external_shared:
            # The batch contends only within itself (e.g. one collective step
            # funneling through shared uplinks, no bystanders): its max-min
            # fair allocation depends only on the batch's paths, so identical
            # re-injections — the same step next iteration, the same-shape
            # collective elsewhere — replay the memoized allocation.  The
            # group memo replays single-group batches by item-list identity;
            # the content memo catches everything else (multi-group unions
            # like one synchronized step of many concurrent rings, whose
            # routes repeat step after step), and on a genuine miss solves
            # the batch directly — no component closure is needed when the
            # batch shares links with nobody outside itself.
            rates = self._isolated_batch_rates(batch, dirty, version)
            if rates is None:
                rates = self._self_contained_rates(dirty, version)
            if len(dirty) == len(batch) and len(dirty) >= _SEALED_MIN_FLOWS:
                self._store_shape(batch, rates, version, batch_links)
            self._apply_batch_rates(dirty, rates, now, sealed_links=batch_links)
            return
        self._reallocate(dirty, (), now)

    def _apply_batch_rates(
        self,
        dirty: List[Flow],
        rates: Sequence[float],
        now: float,
        sealed_links: Optional[Set[LinkKey]] = None,
    ) -> None:
        """Assign known rates to a fresh batch and schedule its completions.

        Flows sharing one completion estimate (every transfer of a uniform
        collective step) ride a single heap entry.  When the caller vouches
        that the batch is self-contained (``sealed_links`` is its link set)
        and every member lands on the same estimate, the entry is *sealed*:
        unless something disturbs it in flight, completion retires the whole
        batch with per-link bookkeeping (see :meth:`_on_completion_check`).
        """
        inf = math.inf
        sealable = sealed_links is not None and len(dirty) >= _SEALED_MIN_FLOWS
        batches: Dict[float, List[Tuple[Flow, int]]] = {}
        for flow, rate in zip(dirty, rates):
            if rate <= 0.0:
                sealable = False  # zero-capacity link; run() reports the stall
                continue
            flow.rate = rate
            epoch = flow._epoch + 1
            flow._epoch = epoch
            estimate = now if rate == inf else now + flow.remaining_bytes / rate
            members = batches.get(estimate)
            if members is None:
                batches[estimate] = [(flow, epoch)]
            else:
                members.append((flow, epoch))
        heap = self._completion_heap
        if sealable and len(batches) == 1:
            ((estimate, members),) = batches.items()
            heapq.heappush(
                heap,
                (
                    estimate,
                    members[0][0].flow_id,
                    -2,
                    (self._seal_gen, members, sealed_links, None),
                ),
            )
            self._sealed_outstanding += 1
        else:
            for estimate, members in batches.items():
                # ``epoch -1`` marks a batch entry; the unique first-member
                # flow id keeps tuple comparison away from the payload.
                heapq.heappush(heap, (estimate, members[0][0].flow_id, -1, members))
        self._sync_completion_event(now)

    def _isolated_batch_rates(
        self, batch: Sequence[Flow], dirty: List[Flow], version: Optional[int]
    ) -> Optional[List[float]]:
        """Memoized allocation for a batch that only contends with itself.

        Valid only when the batch is exactly one ``add_flows`` item list (the
        shared, cached per-step list), nothing in it completed early, and the
        topology version matches the memoized run — then the max-min fair
        rates are a pure function of the item list and can be replayed
        positionally.  Returns ``None`` when the memo cannot be used, in
        which case the caller falls back to progressive filling (whose result
        seeds the memo for next time via this same path).
        """
        group = batch[0]._group
        if (
            group is None
            or batch[-1]._group is not group
            or group.items is None
            or len(dirty) != len(batch)
        ):
            return None
        key = id(group.items)
        memo = self._isolated_rates.get(key)
        if (
            memo is not None
            and memo[0] is group.items
            and memo[1] == version
            and len(memo[2]) == len(dirty)
        ):
            return memo[2]
        flows = list(dirty)
        self.stats.allocator_invocations += 1
        computed = max_min_fair_rates(flows)
        rates = [computed[flow.flow_id] for flow in dirty]
        if len(self._isolated_rates) >= 4096:
            self._isolated_rates.clear()
        self._isolated_rates[key] = (group.items, version, rates)
        return rates

    def _self_contained_rates(
        self, dirty: List[Flow], version: Optional[int]
    ) -> List[float]:
        """Allocation for a self-contained batch, memoized on its route list.

        Max–min fair rates are a pure function of the batch's ordered paths
        and the live capacities, so the memo key is the tuple of path
        identities plus the topology version (capacity changes bump the
        version, and fault handling clears the memo outright).  The stored
        path tuple re-anchors every identity on a hit — a recycled ``id``
        (possible on circuit fabrics, whose per-flow resolver paths are not
        held by the route table) can never replay a stale allocation.  This
        is what makes synchronized steady state cheap: one step of N
        concurrent rings re-uses the same routes every step, so each shape
        is solved once and replayed positionally thereafter.
        """
        key = (version, tuple(id(flow.path) for flow in dirty))
        memo = self._content_rates.get(key)
        if memo is not None:
            anchors, rates = memo
            if all(a is flow.path for a, flow in zip(anchors, dirty)):
                return rates
        self.stats.allocator_invocations += 1
        self.stats.rerated_components += 1
        self.stats.rerated_flows += len(dirty)
        computed = max_min_fair_rates(dirty)
        rates = [computed[flow.flow_id] for flow in dirty]
        if len(self._content_rates) >= 4096:
            self._content_rates.clear()
        self._content_rates[key] = (
            tuple(flow.path for flow in dirty),
            rates,
        )
        return rates

    def _store_shape(
        self,
        batch: Sequence[Flow],
        rates: Sequence[float],
        version: Optional[int],
        batch_links: Set[LinkKey],
    ) -> None:
        """Record a self-contained batch's full replay bookkeeping.

        Called by ``_on_batch_start`` right before rates are applied, while
        every member is still fresh (``remaining_bytes`` untouched and
        ``_path_latency`` set by the registration loop).  A shape without a
        uniform drain duration is stored with ``duration = None`` so the
        replay probe caches the negative instead of re-deriving it.
        """
        shapes = self._batch_shapes
        key = (version, tuple([id(flow.path) for flow in batch]))
        if key in shapes:
            return
        inf = math.inf
        grouping: Optional[Dict[float, List[int]]] = {}
        for index, (flow, rate) in enumerate(zip(batch, rates)):
            if not 0.0 < rate < inf:
                grouping = None
                break
            duration = flow.remaining_bytes / rate
            bucket = grouping.get(duration)
            if bucket is None:
                grouping[duration] = [index]
            else:
                bucket.append(index)
        groups = (
            tuple((duration, tuple(idxs)) for duration, idxs in grouping.items())
            if grouping is not None
            else None
        )
        if len(shapes) >= 4096:
            shapes.clear()
        shapes[key] = _BatchShape(
            anchors=tuple(flow.path for flow in batch),
            sizes=tuple(flow.remaining_bytes for flow in batch),
            rates=list(rates),
            latencies=tuple(flow._path_latency for flow in batch),
            keys=tuple(batch_links),
            key_set=frozenset(batch_links),
            groups=groups,
        )

    def _try_shape_replay(self, batch: Sequence[Flow], now: float) -> bool:
        """Start ``batch`` via its memoized shape, skipping per-flow work.

        Hit conditions: same (cached) path objects in the same order, same
        sizes, same topology version, a uniform memoized drain duration, and
        none of the batch's links currently claimed by anyone.  On a hit the
        links are claimed with one :class:`_PhantomBatch` marker per key (two
        C-level bulk dict operations), the memoized rates and the single
        sealed completion estimate are applied, and the slow path — per-flow
        registration, classification, solving, estimate grouping — is skipped
        entirely.  Every float applied here was produced by the slow path for
        an identical batch, so replays are bit-for-bit identical to it.
        """
        topology = self.topology
        version = topology.version if topology is not None else None
        shape = self._batch_shapes.get(
            (version, tuple([id(flow.path) for flow in batch]))
        )
        if shape is None:
            return False
        groups = shape.groups
        if groups is None:
            return False
        sizes = shape.sizes
        for flow, anchor, size in zip(batch, shape.anchors, sizes):
            if (
                flow.path is not anchor
                or flow.remaining_bytes != size
                or flow._resolver is not None
                or flow._added_version != version
            ):
                return False
        link_users = self._link_users
        keys = shape.keys
        key_set = shape.key_set
        # ``isdisjoint`` iterates its argument: probe with whichever side is
        # smaller (the registry is tiny in steady state, the shape at 10k
        # endpoints claims tens of thousands of keys).
        if len(link_users) < len(key_set):
            if not key_set.isdisjoint(link_users):
                return False
        elif not link_users.keys().isdisjoint(key_set):
            return False
        phantom = _PhantomBatch()
        link_users.update(zip(keys, itertools.repeat(phantom)))
        self._link_id_keys.update(shape.id_items)
        members: List[Tuple[Flow, int]] = []
        append = members.append
        # Members stay out of ``_active``: their pending sealed completion
        # keeps the engine busy (so the stall check can't misfire), nothing
        # else iterates the set, and ``_materialize_phantom`` adds them back
        # the moment the batch rejoins the slow path.
        for flow, rate, latency in zip(batch, shape.rates, shape.latencies):
            flow._progress_time = now
            flow.rate = rate
            flow._path_latency = latency
            epoch = flow._epoch + 1
            flow._epoch = epoch
            append((flow, epoch))
        phantom.members = members
        phantom.keys = keys
        phantom.outstanding = len(groups)
        self._phantoms.add(phantom)
        heap = self._completion_heap
        gen = self._seal_gen
        for duration, indices in groups:
            group_members = [members[i] for i in indices]
            heapq.heappush(
                heap,
                (
                    now + duration,
                    group_members[0][0].flow_id,
                    -2,
                    (gen, group_members, key_set, phantom),
                ),
            )
        self._sealed_outstanding += len(groups)
        self._sync_completion_event(now)
        return True

    def _materialize_phantom(self, phantom: _PhantomBatch) -> None:
        """Swap a phantom batch's link markers for real registrations.

        Called the moment anything needs per-flow membership on one of the
        phantom's links: a later batch joining one of them, or a fault
        walking the registry.  After this the batch is indistinguishable
        from one started on the slow path — its seal stays valid unless the
        usual disturbance channels (re-rate closure links, generation bumps)
        invalidate it.
        """
        if phantom.retired:
            return
        phantom.retired = True
        self._phantoms.discard(phantom)
        link_users = self._link_users
        link_id_keys = self._link_id_keys
        for key in phantom.keys:
            # Markers are exclusive (claimed only on unclaimed keys, and any
            # toucher materializes before registering), so this is ours.
            del link_users[key]
        active_add = self._active.add
        for flow, _epoch in phantom.members:
            if flow.finish_time is not None:
                continue
            active_add(flow)
            for link in flow.path:
                key = link.key
                users = link_users.get(key)
                if users is None:
                    link_users[key] = flow
                    link_id_keys[key[2]] = key
                elif type(users) is set:
                    users.add(flow)
                else:
                    link_users[key] = {users, flow}

    def _on_completion_check(self, engine: SimulationEngine, _payload: object) -> None:
        self._completion_event = None
        now = engine.now
        heap = self._completion_heap
        pop = heapq.heappop
        push = heapq.heappush
        inf = math.inf
        finished: List[object] = []
        while heap and heap[0][0] <= now:
            _estimate, entry_id, epoch, payload = pop(heap)
            if epoch == -2:
                # Sealed self-contained batch: if its generation matches, no
                # re-rate's closure touched its links, and no member was
                # re-rated, then every user of every
                # batch link is still a member draining at the sealed rate —
                # the whole entry completes in bulk (ordered marker below).
                gen, seal_members, seal_keys, seal_phantom = payload
                disturbed_links = self._sealed_disturbed
                # ``seal_keys`` (a set, often tens of thousands of links at
                # scale) probes the usually-empty disturbance set, not the
                # other way round — ``isdisjoint`` iterates its argument.
                ok = gen == self._seal_gen and (
                    not disturbed_links
                    or seal_keys.isdisjoint(disturbed_links)
                )
                if ok and seal_phantom is not None:
                    # Materialized in flight: per-flow registrations now back
                    # the batch, so retire it through the generic path.  An
                    # *unretired* phantom needs no per-member validation at
                    # all — every channel that can touch a member's epoch or
                    # finish time first materializes the phantom.
                    ok = not seal_phantom.retired
                elif ok:
                    for flow, flow_epoch in seal_members:
                        if flow._epoch != flow_epoch or flow.finish_time is not None:
                            ok = False
                            break
                self._sealed_outstanding -= 1
                if self._sealed_outstanding == 0 and disturbed_links:
                    disturbed_links.clear()
                if seal_phantom is not None:
                    seal_phantom.outstanding -= 1
                if ok:
                    if seal_phantom is None:
                        # Slow-path seal: exclusive per-flow registrations
                        # retire with the (single) entry.
                        finished.append((seal_members, seal_keys))
                    elif seal_phantom.outstanding == 0:
                        # Last duration group of the phantom: markers come
                        # down with it.
                        seal_phantom.retired = True
                        self._phantoms.discard(seal_phantom)
                        finished.append((seal_members, seal_keys))
                    else:
                        # Earlier duration group: members complete, but the
                        # markers stay up for the groups still draining.
                        finished.append((seal_members, None))
                    continue
                # Disturbed: fall back to generic per-flow processing.  Every
                # disturbance channel materializes phantoms before it can
                # invalidate a seal; this is insurance for paths that don't.
                if seal_phantom is not None:
                    self._materialize_phantom(seal_phantom)
                members = seal_members
            else:
                members = ((payload, epoch),) if epoch >= 0 else payload
            for flow, flow_epoch in members:
                if flow.finish_time is not None or flow._epoch != flow_epoch:
                    continue  # stale: completed or the rate changed since
                # Lazy progress and drain check, inlined (see _advance_flow /
                # _flow_is_drained for the commented versions).
                rate = flow.rate
                elapsed = now - flow._progress_time
                if elapsed > 0.0:
                    if rate == inf:
                        flow.remaining_bytes = 0.0
                    elif rate > 0.0:
                        left = flow.remaining_bytes - rate * elapsed
                        flow.remaining_bytes = left if left > 0.0 else 0.0
                    flow._progress_time = now
                remaining = flow.remaining_bytes
                if (
                    remaining <= _BYTES_EPSILON
                    or rate == inf
                    or (rate > 0.0 and now + remaining / rate <= now)
                ):
                    finished.append(flow)
                else:
                    # Float roundoff left representable drain time: re-estimate.
                    push(
                        heap,
                        (now + remaining / rate, flow.flow_id, flow_epoch, flow),
                    )
        link_users = self._link_users
        active = self._active
        dirty_links: List[LinkKey] = []
        link_id_keys = self._link_id_keys
        for item in finished:
            if type(item) is tuple:
                # Sealed batch (or one duration group of a phantom one),
                # validated at pop: every key's users are exactly the members
                # or the phantom marker standing in for them, so
                # registrations retire per link — deferred to the phantom's
                # last group when ``seal_keys`` is None — and the drain math
                # is skipped (rates never changed in flight).
                seal_members, seal_keys = item
                if seal_keys is not None:
                    for key in seal_keys:
                        del link_users[key]
                        del link_id_keys[key[2]]
                for flow, _epoch in seal_members:
                    active.discard(flow)
                    self._complete_flow(flow, now + flow._path_latency)
                continue
            flow = item
            active.discard(flow)
            for link in flow.path:
                key = link.key
                users = link_users.get(key)
                if users is flow:
                    del link_users[key]
                    del link_id_keys[key[2]]
                elif type(users) is set:
                    users.discard(flow)
                    if len(users) == 1:
                        # Collapse back to the lone-survivor representation.
                        (link_users[key],) = users
                    # Only links with surviving users can wake anyone up.
                    dirty_links.append(key)
            self._complete_flow(flow, now + flow._path_latency)
        self._reallocate((), dirty_links, now)

    # ------------------------------------------------------------------ #
    # Allocation
    # ------------------------------------------------------------------ #

    def _reallocate(
        self,
        dirty_flows: Sequence[Flow],
        dirty_links: Sequence[LinkKey],
        now: float,
    ) -> None:
        """Recompute rates for the component(s) touched by a flow change.

        ``dirty_flows`` are newly-started flows, ``dirty_links`` the links of
        flows that just completed.  The affected set is the transitive
        closure of link sharing starting from those seeds; max–min fair
        allocation decomposes exactly over such components, so every other
        active flow keeps its rate and completion estimate.  Flows that share
        no link with anyone (the dominant case on dedicated circuits and
        fully-provisioned rails) bypass progressive filling entirely: their
        max–min fair rate is the plain path bottleneck.
        """
        link_users = self._link_users
        shared: List[Flow] = []
        for flow in dirty_flows:
            solo_rate = math.inf
            for link in flow.path:
                if type(link_users[link.key]) is set:
                    solo_rate = None
                    break
                bandwidth = link.bandwidth
                if bandwidth < solo_rate:
                    solo_rate = bandwidth
            if solo_rate is None:
                shared.append(flow)
            elif solo_rate != flow.rate:
                self._advance_flow(flow, now)
                flow.rate = solo_rate
                flow._epoch += 1
                self._push_completion(flow, now)
        affected: Set[Flow] = set()
        seen_links: Set[LinkKey] = set(dirty_links)
        stack: List[LinkKey] = list(seen_links)
        for flow in shared:
            affected.add(flow)
            for link in flow.path:
                key = link.key
                if key not in seen_links:
                    seen_links.add(key)
                    stack.append(key)
        while stack:
            key = stack.pop()
            users = link_users.get(key)
            if users is None:
                continue
            for user in users if type(users) is set else (users,):
                if user in affected:
                    continue
                affected.add(user)
                for link in user.path:
                    other = link.key
                    if other not in seen_links:
                        seen_links.add(other)
                        stack.append(other)
        if affected:
            if self._sealed_outstanding:
                # The closure touched these links: any sealed batch riding
                # one of them can no longer complete in bulk.
                self._sealed_disturbed.update(seen_links)
            flows = sorted(affected, key=_flow_id_of)
            stats = self.stats
            stats.allocator_invocations += 1
            stats.rerated_components += 1
            stats.rerated_flows += len(flows)
            # The closure above already isolated the sharing component(s), so
            # dispatch straight to a solver instead of re-decomposing.
            if _np is not None and len(flows) >= _VECTORIZE_MIN_FLOWS:
                rates = _max_min_fair_rates_numpy(flows)
            else:
                rates = _max_min_fair_rates_python(flows)
            for flow in flows:
                new_rate = rates[flow.flow_id]
                if new_rate != flow.rate:
                    self._advance_flow(flow, now)
                    flow.rate = new_rate
                    flow._epoch += 1
                    self._push_completion(flow, now)
        self._sync_completion_event(now)

    def _advance_flow(self, flow: Flow, now: float) -> None:
        """Bring ``flow.remaining_bytes`` up to date at ``now`` (lazy progress)."""
        elapsed = now - flow._progress_time
        if elapsed > 0.0:
            if math.isinf(flow.rate):
                flow.remaining_bytes = 0.0
            elif flow.rate > 0.0:
                flow.remaining_bytes = max(
                    0.0, flow.remaining_bytes - flow.rate * elapsed
                )
        flow._progress_time = now

    def _push_completion(self, flow: Flow, now: float) -> None:
        if flow.rate <= 0.0:
            return  # no completion in sight; run() reports the stall
        if math.isinf(flow.rate):
            estimate = now
        else:
            estimate = now + flow.remaining_bytes / flow.rate
        heapq.heappush(
            self._completion_heap, (estimate, flow.flow_id, flow._epoch, flow)
        )

    def _sync_completion_event(self, now: float) -> None:
        """Keep exactly one engine event pointed at the earliest live estimate."""
        heap = self._completion_heap
        while heap:
            _estimate, _entry_id, epoch, payload = heap[0]
            if epoch < 0:
                # Batch entry: treated as live without scanning its members
                # (at worst one spurious, empty completion event fires).
                break
            if payload.finish_time is None and payload._epoch == epoch:
                break
            heapq.heappop(heap)
        if not heap:
            if self._completion_event is not None:
                self._completion_event.cancel()
                self._completion_event = None
            return
        target = heap[0][0]
        if target < now:
            target = now
        if (
            self._completion_event is not None
            and self._completion_event.time == target
            and not self._completion_event.cancelled
        ):
            return
        if self._completion_event is not None:
            self._completion_event.cancel()
        self._completion_event = self.engine.schedule(
            target, self._on_completion_check, None
        )

    # ------------------------------------------------------------------ #
    # Liveness and completion
    # ------------------------------------------------------------------ #

    def _check_links_alive(self, flow: Flow, now: float) -> None:
        """Validate (and, under ``"reroute"``, repair) a pending flow's path.

        Skipped entirely when the topology version is unchanged since the
        flow was admitted (nothing can have been torn down), which makes the
        check O(1) on static packet fabrics.  When a path link is dead and
        :attr:`link_failure_policy` is ``"reroute"``, the flow is moved onto
        a fresh route over the surviving topology before it registers.

        Raises
        ------
        LinkFailedError
            If a path link was *failed* by fault injection (or no surviving
            route exists under the reroute policy).
        SimulationError
            If a path link is no longer installed for any other reason — on
            circuit fabrics this means a reconfiguration tore the circuit
            down between routing and flow start, and charging the stale
            capacity would silently corrupt the allocation.
        """
        if self.topology is None:
            return
        if flow._added_version == self.topology.version:
            return
        for link in flow.path:
            if self.topology.has_link(link.link_id) and (
                self.topology.link(link.link_id) is link
            ):
                continue
            if self.link_failure_policy == "reroute":
                flow.path = self._reroute_path(flow, link, now)
                flow._added_version = self.topology.version
                return
            if self.topology.link_failed(link.link_id):
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

    @staticmethod
    def _flow_is_drained(flow: Flow, now: float) -> bool:
        """Whether ``flow`` counts as finished at ``now``.

        Besides the byte tolerance, a flow whose residual drain time is below
        the floating-point resolution of the clock (``now + time_left == now``)
        must complete *now*: no representable future event could ever drain
        it, and rescheduling a completion check at the same instant would spin
        the engine forever.  Infinite-rate flows (unconstrained routes) drain
        instantly by definition.
        """
        if flow.remaining_bytes <= _BYTES_EPSILON:
            return True
        if math.isinf(flow.rate):
            return True
        if flow.rate > 0:
            return now + flow.remaining_bytes / flow.rate <= now
        return False

    def _complete_flow(self, flow: Flow, finish_time: float) -> None:
        flow.finish_time = finish_time
        flow.remaining_bytes = 0.0
        flow.rate = 0.0
        if flow._on_complete is not None:
            flow._on_complete(flow)
        group = flow._group
        if group is not None:
            if finish_time > group.end:
                group.end = finish_time
            group.outstanding -= 1
            if group.outstanding == 0:
                group.callback(group.end)
