"""Multipath routing policies for packet-fabric flow mode.

Static packet fabrics (fat tree, rail-optimized, fully-connected electrical)
route every transfer on one deterministic shortest path.  This module adds
the alternative policies behind the ``routing_policy`` knob:

* ``single`` — today's behaviour, handled entirely by the network model's
  existing route table (this module is not even instantiated);
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
enumeration index).  Every cache in :class:`PolicyRouter` is keyed on the
topology version, so circuit installs, faults, and degradations flush stale
path sets automatically.
"""

from __future__ import annotations

import zlib
from typing import TYPE_CHECKING, Dict, List, Sequence, Tuple

from ..errors import SimulationError, TopologyError
from ..topology.base import Link, gpu_node_name

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..collectives.schedule import Schedule, Transfer
    from .flow_network import FlowNetworkModel

#: Every accepted ``routing_policy`` knob value.
ROUTING_POLICIES = ("single", "ecmp", "adaptive", "spray")

#: Cap on the enumerated equal-cost set per pair.  Fat trees expose one path
#: per core choice, so this covers realistic fan-outs while bounding the
#: enumeration on pathological graphs; truncation keeps the natural-sorted
#: prefix, so it is deterministic too.
DEFAULT_MAX_PATHS = 8

#: Sub-flows a sprayed transfer is split into (clamped to the equal-cost
#: set size, so a single-path pair degenerates to an ordinary flow).
DEFAULT_SPRAY_WAYS = 4

_MASK64 = (1 << 64) - 1


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


class _PolicyResolver:
    """Deferred per-flow route choice under a routing policy.

    The picklable sibling of :class:`~repro.simulator.flow_network._RouteResolver`:
    adaptive flows (and any policy-routed flow under an active fault plan)
    resolve their path at the flow's start instant, against the live
    topology and — for adaptive — the live link occupancy.  ``salt`` and
    ``way`` replay the same deterministic choice a concrete item would have
    embedded, so switching to deferred resolution changes *when* the route
    is read, never *which* route a given policy picks from a given state.
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

    def __call__(self) -> Tuple[Link, ...]:
        return self.router.resolve(self.src, self.dst, self.salt, self.way)

    def __getstate__(self):
        return (self.router, self.src, self.dst, self.salt, self.way)

    def __setstate__(self, state):
        self.router, self.src, self.dst, self.salt, self.way = state


class PolicyRouter:
    """Chooses concrete flow paths for one network model under a policy.

    Owns the per-pair equal-cost path sets (version-keyed, flushed whenever
    the topology changes) and turns a schedule's transfers into the
    ``(path_or_resolver, size)`` item lists the flow simulator injects.  The
    path tuples are shared across flows, steps, and iterations, so the
    simulator's identity-anchored rate memos keep hitting exactly as they do
    under single-path routing.
    """

    def __init__(
        self,
        model: "FlowNetworkModel",
        policy: str,
        max_paths: int = DEFAULT_MAX_PATHS,
        spray_ways: int = DEFAULT_SPRAY_WAYS,
    ) -> None:
        if policy not in ROUTING_POLICIES:
            raise SimulationError(
                f"unknown routing policy {policy!r}; expected one of "
                f"{', '.join(ROUTING_POLICIES)}"
            )
        self.model = model
        self.policy = policy
        self.max_paths = int(max_paths)
        self.spray_ways = int(spray_ways)
        #: (src_rank, dst_rank) -> equal-cost path tuple-of-tuples.
        self._rank_sets: Dict[Tuple[int, int], Tuple[Tuple[Link, ...], ...]] = {}
        #: (src_node, dst_node) -> same, for name-addressed fault reroutes.
        self._node_sets: Dict[Tuple[str, str], Tuple[Tuple[Link, ...], ...]] = {}
        self._sets_version = model.topology.version

    # ------------------------------------------------------------------ #
    # Path sets
    # ------------------------------------------------------------------ #

    def _check_version(self) -> None:
        version = self.model.topology.version
        if version != self._sets_version:
            self._rank_sets.clear()
            self._node_sets.clear()
            self._sets_version = version

    def _node_set(self, src: str, dst: str) -> Tuple[Tuple[Link, ...], ...]:
        """Equal-cost set between two node names (raises ``TopologyError``)."""
        key = (src, dst)
        paths = self._node_sets.get(key)
        if paths is None:
            paths = tuple(
                self.model.topology.equal_cost_paths(
                    src, dst, max_paths=self.max_paths
                )
            )
            self._node_sets[key] = paths
        return paths

    def path_set(self, src_rank: int, dst_rank: int) -> Tuple[Tuple[Link, ...], ...]:
        """Equal-cost set between two ranks' GPUs (version-keyed cache)."""
        self._check_version()
        key = (src_rank, dst_rank)
        paths = self._rank_sets.get(key)
        if paths is None:
            mesh = self.model.mesh
            src = gpu_node_name(mesh.gpu_of(src_rank))
            dst = gpu_node_name(mesh.gpu_of(dst_rank))
            try:
                paths = self._node_set(src, dst)
            except TopologyError as exc:
                raise SimulationError(
                    f"no route from rank {src_rank} to rank {dst_rank} on "
                    f"{self.model.topology.name!r}: {exc}"
                ) from exc
            self._rank_sets[key] = paths
        return paths

    # ------------------------------------------------------------------ #
    # Choice
    # ------------------------------------------------------------------ #

    def resolve(
        self, src_rank: int, dst_rank: int, salt: int, way: int = 0
    ) -> Tuple[Link, ...]:
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

    def reroute(self, src: str, dst: str) -> Tuple[Link, ...]:
        """Policy-aware replacement route for a link-failure casualty.

        Installed as :attr:`FlowSimulator.route_policy`, so a flow rerouted
        around a dead link stays under the run's routing policy instead of
        collapsing onto the deterministic shortest path.  Addressed by node
        names (the simulator only knows the flow's endpoints); lets
        ``TopologyError`` propagate so the simulator can convert an
        unroutable casualty into its typed ``LinkFailedError``.
        """
        self._check_version()
        paths = self._node_set(src, dst)
        count = len(paths)
        if count == 1:
            return paths[0]
        if self.policy == "adaptive":
            return self._least_congested(paths)
        return paths[_name_mix(src, dst) % count]

    def _least_congested(
        self, paths: Sequence[Tuple[Link, ...]]
    ) -> Tuple[Link, ...]:
        """The path minimizing (worst link occupancy, total occupancy, index).

        Occupancy is the live active-flow count per link from the simulator's
        user registry — maintained on every code path and identical between
        solved and replayed batches, so the choice is deterministic.
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

    def step_items_for(
        self, steps: "Schedule", deferred: bool
    ) -> List[List[Tuple[object, float]]]:
        """Per-step ``(path_or_resolver, size)`` item lists for a schedule.

        ``deferred`` (an active fault plan) switches concrete routes to
        resolvers so every flow re-reads the live topology at its start
        instant — same contract as single-path routing under faults.
        """
        items: List[List[Tuple[object, float]]] = []
        for step_index, step in enumerate(steps):
            row: List[Tuple[object, float]] = []
            for position, transfer in enumerate(step.transfers):
                row.extend(
                    self.transfer_items(transfer, step_index, position, deferred)
                )
            items.append(row)
        return items

    def transfer_items(
        self, transfer: "Transfer", step_index: int, position: int, deferred: bool
    ) -> List[Tuple[object, float]]:
        """The flow items realizing one transfer under this policy."""
        src, dst, size = transfer.src, transfer.dst, transfer.size_bytes
        salt = _mix(step_index, position)
        if self.policy == "spray":
            ways = min(self.spray_ways, len(self.path_set(src, dst)))
            if ways > 1:
                # share * (ways - 1) + remainder == size exactly in floats:
                # the last sub-flow absorbs every rounding crumb.
                share = size / ways
                remainder = size - share * (ways - 1)
                return [
                    (
                        self._route_item(src, dst, salt, way, deferred),
                        share if way < ways - 1 else remainder,
                    )
                    for way in range(ways)
                ]
        return [(self._route_item(src, dst, salt, 0, deferred), size)]

    def _route_item(
        self, src: int, dst: int, salt: int, way: int, deferred: bool
    ) -> object:
        if self.policy == "adaptive" or deferred:
            return _PolicyResolver(self, src, dst, salt, way)
        return self.resolve(src, dst, salt, way)
