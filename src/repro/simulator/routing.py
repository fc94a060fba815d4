"""Route table and multipath routing policies for flow mode.

:class:`RouteTable` resolves every route of one topology-backed network
model: per-pair shortest paths, equal-cost path sets, per-step
:class:`~repro.simulator.flows.Routes` bundles and the step items that embed
them.  A pair's path comes from the topology's closed form where the fabric
builder attached one — a fat tree's coordinates while it is as built, a
photonic rail's installed circuits (:class:`~repro.topology.photonic.CircuitRoutes`)
— and from a graph search otherwise, so a circuit install forces no search.
Every memo entry is valid for one topology version; circuit installs, faults
and degradations bump the version, and the next read drops all of them
together.

Static packet fabrics (fat tree, rail-optimized, fully-connected electrical)
route every transfer on one deterministic shortest path.  The
``routing_policy`` knob selects among:

* ``single`` — the default: every route is the table's :meth:`RouteTable.path`
  and no :class:`PolicyRouter` is built;
* ``ecmp`` — every flow picks deterministically, by an integer hash of its
  (source, destination, step, position) coordinates, from the *equal-cost
  path set* enumerated by
  :meth:`~repro.topology.base.Topology.equal_cost_paths`;
* ``adaptive`` — every flow picks the least-congested equal-cost path at its
  start instant, read from the flow simulator's live per-link occupancy
  (QSPN-style congestion-aware route choice);
* ``spray`` — every transfer is split across ``k`` equal-cost paths as ``k``
  sub-flows whose sizes sum exactly to the transfer size; the step's
  completion group recombines them (the step finishes when the last
  sub-flow drains).

Determinism is load-bearing: the ECMP hash is a fixed integer mix (never
Python's per-process-randomized ``hash``), the path sets come out of the
topology in natural-sorted order, and the adaptive tie-break is (congestion,
enumeration index).  The router reads its path sets from the model's route
table, so circuit installs, faults, and degradations flush stale sets
automatically.
"""

from __future__ import annotations

import zlib
from typing import TYPE_CHECKING, Callable, Dict, List, Sequence, Tuple, TypeVar

from ..errors import SimulationError, TopologyError
from ..topology.base import Link, Topology, gpu_node_name
from .flows import Routes, StepItems

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..collectives.schedule import Schedule, Transfer
    from ..parallelism.mesh import DeviceMesh
    from .flow_network import FlowNetworkModel

#: Every accepted ``routing_policy`` knob value.
ROUTING_POLICIES = ("single", "ecmp", "adaptive", "spray")

#: Cap on the enumerated equal-cost set per pair.  Fat trees expose one path
#: per core choice, so this covers realistic fan-outs while bounding the
#: enumeration on pathological graphs; truncation keeps the natural-sorted
#: prefix, so it is deterministic too.
MAX_EQUAL_COST_PATHS = 8

#: Entries the route table's pair, equal-cost and step memos each hold
#: before they start over.
MEMO_BOUND = 4096

#: Sub-flows a sprayed transfer is split into (clamped to the equal-cost
#: set size, so a single-path pair degenerates to an ordinary flow).
SPRAY_WAYS = 4

_MASK64 = (1 << 64) - 1

_Path = Tuple[Link, ...]
_Found = TypeVar("_Found")
#: Per-schedule step items, keyed by ``id(schedule)``.  Each entry anchors
#: its schedule, so the key stays valid for the entry's lifetime.
ItemMemo = Dict[int, Tuple["Schedule", List[object]]]


def rekeyed(memo: ItemMemo) -> ItemMemo:
    """``memo`` re-keyed on its anchored schedules' identities.

    Pickle and deepcopy keep object identity but change ``id()``, so every
    unpickled item memo goes through this.
    """
    return {id(cached[0]): cached for cached in memo.values()}


class RouteTable:
    """The routes of one network model's topology.

    Offers per-rank-pair shortest paths (:meth:`path`), per-node-pair
    searched paths (:meth:`node_path`) and equal-cost sets
    (:meth:`equal_cost`), per-step bundles keyed by the step's content
    (:meth:`step`), and the step items that embed concrete routes
    (:meth:`items`).  :meth:`path` takes the topology's closed form
    (:attr:`~repro.topology.base.Topology.closed_form`) wherever it answers,
    and searches where it returns ``None``: on a fat tree once a fault,
    degradation or restore moved the version, on photonic rails for every
    pair no single installed circuit joins.  Every memo is
    valid for :attr:`version`: the first read after the version moves drops
    them all at once, so no reader can be handed a route another reader
    already saw go stale.
    """

    def __init__(self, topology: Topology, mesh: "DeviceMesh") -> None:
        self.topology = topology
        self.mesh = mesh
        #: Topology version every memo below was filled at.
        self.version = topology.version
        self._paths: Dict[Tuple[str, str], _Path] = {}
        self._sets: Dict[Tuple[str, str], Tuple[_Path, ...]] = {}
        self._steps: Dict[tuple, Routes] = {}
        self._items: ItemMemo = {}

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._items = rekeyed(self._items)

    def _check(self) -> None:
        """Drop every memo if the topology changed since they were filled."""
        version = self.topology.version
        if version != self.version:
            self._paths.clear()
            self._sets.clear()
            self._steps.clear()
            self._items.clear()
            self.version = version

    def between(
        self, search: Callable[[str, str], _Found], src_rank: int, dst_rank: int
    ) -> _Found:
        """``search`` between two ranks' GPU nodes, unroutable pairs typed.

        A :class:`TopologyError` becomes a :class:`SimulationError` naming
        both ranks and the fabric.
        """
        mesh = self.mesh
        try:
            return search(
                gpu_node_name(mesh.gpu_of(src_rank)),
                gpu_node_name(mesh.gpu_of(dst_rank)),
            )
        except TopologyError as exc:
            raise SimulationError(
                f"no route from rank {src_rank} to rank {dst_rank} on "
                f"{self.topology.name!r}: {exc}"
            ) from exc

    def path(self, src_rank: int, dst_rank: int) -> _Path:
        """The shortest path between two ranks' GPUs (scale-up hops included)."""
        closed = self.topology.closed_form
        if closed is not None:
            mesh = self.mesh
            route = closed.path(mesh.gpu_of(src_rank), mesh.gpu_of(dst_rank))
            if route is not None:
                return route
        return self.between(self.node_path, src_rank, dst_rank)

    def _memoized(self, memo: dict, key: object, compute: Callable[[], _Found]) -> _Found:
        """``memo[key]``, computed on a miss; a full memo starts over."""
        self._check()
        found = memo.get(key)
        if found is None:
            if len(memo) >= MEMO_BOUND:
                memo.clear()
            found = memo[key] = compute()
        return found

    def node_path(self, src: str, dst: str) -> _Path:
        """The searched shortest path between two nodes (raises ``TopologyError``).

        Also the fault reroute of flow models without a routing policy.
        """
        search = self.topology.shortest_path
        return self._memoized(self._paths, (src, dst), lambda: tuple(search(src, dst)))

    def equal_cost(self, src: str, dst: str) -> Tuple[_Path, ...]:
        """The equal-cost set between two nodes (raises ``TopologyError``)."""
        search = self.topology.equal_cost_paths
        return self._memoized(
            self._sets, (src, dst), lambda: tuple(search(src, dst, MAX_EQUAL_COST_PATHS))
        )

    def step(self, key: tuple, resolve: Callable[..., Sequence[Link]]) -> Routes:
        """The routes of one step, memoized per content.

        ``key`` lists the step's flows as argument tuples of ``resolve``,
        which returns one flow's path.  Steps recur with the same content —
        every step of a ring, every iteration — so each distinct step is
        resolved once per topology version instead of once per flow.
        """
        return self._memoized(
            self._steps, key, lambda: Routes([resolve(*flow) for flow in key], self.version)
        )

    def items(self) -> ItemMemo:
        """The memo of step items that embed concrete (eager) routes."""
        self._check()
        return self._items


def _mix(*values: int) -> int:
    """Deterministic 64-bit integer mix (splitmix-style).

    Python's builtin ``hash`` is randomized per process for strings and must
    never reach a path choice; this mix is a pure function of its integer
    inputs, so ECMP selections replay bit-for-bit across runs and machines.
    """
    state = 0x9E3779B97F4A7C15
    for value in values:
        state = ((state ^ (value & _MASK64)) * 0xBF58476D1CE4E5B9) & _MASK64
        state ^= state >> 31
    return state


def _name_mix(src: str, dst: str) -> int:
    """Stable hash of a node-name pair (for policy-aware fault reroutes)."""
    return zlib.crc32(f"{src}->{dst}".encode("utf-8"))


class DeferredRoutes:
    """The routes of one step, resolved at the step's start event.

    Calls ``owner.step_routes(key)``: the network model's for single-path
    routing (``key`` holds the step's (src, dst) rank pairs), or the
    :class:`PolicyRouter`'s (``key`` holds each flow's
    ``(src, dst, salt, way)`` coordinates).  Only a choice that is a pure
    function of those coordinates and the topology version may be deferred
    this way; adaptive flows read the live occupancy and stay per-flow
    :class:`_PolicyResolver` s.

    A picklable class rather than a closure: it lives inside the model's
    cached step items *across* iterations, so a snapshot must serialize it
    and a fork must rebind it (through the deepcopy/pickle memo) to the
    fork's own model — a closure would silently keep resolving against the
    parent simulation's topology.
    """

    __slots__ = ("owner", "key")

    def __init__(self, owner: object, key: tuple) -> None:
        self.owner = owner
        self.key = key

    def __call__(self) -> Routes:
        return self.owner.step_routes(self.key)

    def __getstate__(self):
        return (self.owner, self.key)

    def __setstate__(self, state):
        self.owner, self.key = state


class _PolicyResolver:
    """Deferred per-flow route choice under a routing policy.

    Adaptive flows resolve their path at the flow's start instant, against
    the live topology and link occupancy.  ``salt`` and ``way`` replay the
    same deterministic choice a concrete item would have embedded, so
    deferring changes *when* the route is read, never *which* route a given
    policy picks from a given state.
    """

    __slots__ = ("router", "src", "dst", "salt", "way")

    def __init__(
        self, router: "PolicyRouter", src: int, dst: int, salt: int, way: int
    ) -> None:
        self.router = router
        self.src = src
        self.dst = dst
        self.salt = salt
        self.way = way

    def __call__(self) -> _Path:
        return self.router.resolve(self.src, self.dst, self.salt, self.way)

    def __getstate__(self):
        return (self.router, self.src, self.dst, self.salt, self.way)

    def __setstate__(self, state):
        self.router, self.src, self.dst, self.salt, self.way = state


class PolicyRouter:
    """Chooses concrete flow paths for one network model under a policy.

    Reads the equal-cost path sets from the model's :class:`RouteTable` and
    turns a schedule's transfers into the step items the flow simulator
    injects.
    """

    def __init__(self, model: "FlowNetworkModel", policy: str) -> None:
        self.model = model
        self.policy = policy

    def path_set(self, src_rank: int, dst_rank: int) -> Tuple[_Path, ...]:
        """Equal-cost set between two ranks' GPUs."""
        table = self.model.route_table
        return table.between(table.equal_cost, src_rank, dst_rank)

    # ------------------------------------------------------------------ #
    # Choice
    # ------------------------------------------------------------------ #

    def resolve(self, src_rank: int, dst_rank: int, salt: int, way: int = 0) -> _Path:
        """The policy's path for one flow of the (src, dst) pair.

        ``salt`` discriminates flows of the same pair (step index and
        position within the step), ``way`` a sprayed transfer's sub-flow.
        """
        paths = self.path_set(src_rank, dst_rank)
        count = len(paths)
        if count == 1:
            return paths[0]
        if self.policy == "adaptive":
            return self._least_congested(paths)
        return paths[(_mix(src_rank, dst_rank, salt) + way) % count]

    def reroute(self, src: str, dst: str) -> _Path:
        """Policy-aware replacement route for a link-failure casualty.

        Installed as :attr:`FlowSimulator.route_policy`, so a flow rerouted
        around a dead link stays under the run's routing policy instead of
        collapsing onto the deterministic shortest path.  Addressed by node
        names (the simulator only knows the flow's endpoints); lets
        ``TopologyError`` propagate so the simulator can convert an
        unroutable casualty into its typed ``LinkFailedError``.
        """
        paths = self.model.route_table.equal_cost(src, dst)
        count = len(paths)
        if count == 1:
            return paths[0]
        if self.policy == "adaptive":
            return self._least_congested(paths)
        return paths[_name_mix(src, dst) % count]

    def _least_congested(self, paths: Sequence[_Path]) -> _Path:
        """The path minimizing (worst link occupancy, total occupancy, index).

        Occupancy is the live active-flow count per link from the simulator's
        user registry — maintained on every code path, so the choice is
        deterministic.
        """
        occupancy = self.model.simulator.link_occupancy
        best_path = paths[0]
        best_rank: Tuple[int, int, int] = None  # type: ignore[assignment]
        for index, path in enumerate(paths):
            worst = 0
            total = 0
            for link in path:
                count = occupancy(link.key)
                if count > worst:
                    worst = count
                total += count
            rank = (worst, total, index)
            if best_rank is None or rank < best_rank:
                best_rank = rank
                best_path = path
        return best_path

    # ------------------------------------------------------------------ #
    # Item expansion
    # ------------------------------------------------------------------ #

    def step_routes(self, choices: Tuple[Tuple[int, int, int, int], ...]) -> Routes:
        """Routes of one step's ``(src, dst, salt, way)`` flows, memoized."""
        return self.model.route_table.step(choices, self.resolve)

    def step_items_for(self, steps: "Schedule", deferred: bool) -> List[object]:
        """Per-step items for a schedule.

        Adaptive steps are ``(resolver, size)`` lists: each flow reads the
        live occupancy at its own start.  Otherwise each step is one
        :class:`~repro.simulator.flows.StepItems`, with concrete routes, or
        — when ``deferred`` (an active fault plan) — routes resolved at the
        step's start instant against the live topology, the same contract
        as single-path routing under faults.
        """
        items: List[object] = []
        for step_index, step in enumerate(steps):
            row: List[Tuple[Tuple[int, int, int, int], float]] = []
            for position, transfer in enumerate(step.transfers):
                row.extend(self.transfer_items(transfer, step_index, position))
            if self.policy == "adaptive":
                items.append([(_PolicyResolver(self, *flow), size) for flow, size in row])
                continue
            choices = tuple([flow for flow, _size in row])
            routes = DeferredRoutes(self, choices) if deferred else self.step_routes(choices)
            items.append(StepItems(routes, [size for _flow, size in row]))
        return items

    def transfer_items(
        self, transfer: "Transfer", step_index: int, position: int
    ) -> List[Tuple[Tuple[int, int, int, int], float]]:
        """The ``((src, dst, salt, way), size)`` flows realizing one transfer."""
        src, dst, size = transfer.src, transfer.dst, transfer.size_bytes
        salt = _mix(step_index, position)
        if self.policy == "spray":
            ways = min(SPRAY_WAYS, len(self.path_set(src, dst)))
            if ways > 1:
                # share * (ways - 1) + remainder == size exactly in floats:
                # the last sub-flow absorbs every rounding crumb.
                share = size / ways
                remainder = size - share * (ways - 1)
                return [
                    ((src, dst, salt, way), share if way < ways - 1 else remainder)
                    for way in range(ways)
                ]
        return [((src, dst, salt, 0), size)]
