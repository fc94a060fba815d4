"""Generic topology graph used by all fabric builders.

A :class:`Topology` is a directed multigraph of named nodes and unidirectional
:class:`Link` objects.  GPUs, NIC ports, electrical switches, and OCS ports are
all nodes; the per-fabric builders (`railopt`, `fattree`, `photonic`,
`scaleup`) decide how to wire them.

Two features matter for the rest of the library:

* **capacity accounting** — each link knows its bandwidth and propagation
  latency; the flow-level simulator shares link bandwidth among concurrent
  flows.
* **routing** — ``shortest_path`` provides hop-by-hop routes for packet
  fabrics; circuit fabrics install explicit circuits instead (see
  :mod:`repro.topology.photonic`).

Circuit fabrics mutate their topology *during* simulation (installing and
tearing optical circuits), so the graph carries a :attr:`Topology.version`
counter that is bumped on every link change.  Consumers that cache anything
derived from connectivity (per-pair routes, group link parameters) key their
caches on the version instead of assuming a static graph.
"""

from __future__ import annotations

import copy
import pickle
import re
from dataclasses import dataclass, field
from enum import Enum
from typing import (
    TYPE_CHECKING,
    Dict,
    Iterator,
    List,
    Optional,
    Protocol,
    Sequence,
    Tuple,
)

import networkx as nx

from ..errors import SnapshotError, TopologyError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..simulator.snapshot import SimState


_NATURAL_SPLIT = re.compile(r"(\d+)")


def _natural_key(name: str) -> Tuple:
    """Sort key that orders embedded integers numerically (``sw2`` < ``sw10``).

    Route searches expand neighbors in this order, so tie-breaking is a
    property of the node *names* rather than of dict insertion order — two
    topologies with the same nodes and links route identically no matter how
    they were built.  Numeric runs compare as integers so the order matches
    the index order every fabric builder already adds nodes in.
    """
    parts = _NATURAL_SPLIT.split(name)
    return tuple(int(part) if part.isdigit() else part for part in parts)


class NodeKind(str, Enum):
    """The role a topology node plays in the fabric."""

    GPU = "gpu"
    NIC_PORT = "nic_port"
    ELECTRICAL_SWITCH = "electrical_switch"
    OCS = "ocs"
    NVSWITCH = "nvswitch"


class LinkKind(str, Enum):
    """The medium / tier a link belongs to."""

    SCALE_UP = "scale_up"
    HOST = "host"
    ELECTRICAL = "electrical"
    OPTICAL_CIRCUIT = "optical_circuit"


@dataclass(frozen=True)
class Node:
    """A vertex of the fabric graph."""

    name: str
    kind: NodeKind
    #: Free-form attributes (e.g. ``{"gpu_id": 12, "rail": 3}``).
    attrs: Dict[str, object] = field(default_factory=dict, compare=False, hash=False)


@dataclass
class Link:
    """A unidirectional link between two nodes.

    Attributes
    ----------
    src, dst:
        Endpoint node names.
    bandwidth:
        Capacity in bytes/second.
    latency:
        Propagation plus fixed per-hop processing latency, seconds.
    kind:
        Medium / tier of the link.
    link_id:
        Unique integer assigned by the owning topology.
    """

    src: str
    dst: str
    bandwidth: float
    latency: float
    kind: LinkKind
    link_id: int = -1
    #: A hashable identity for the link, precomputed because the flow-level
    #: simulator reads it on every allocation pass (``src``, ``dst`` and
    #: ``link_id`` are fixed at construction).
    key: Tuple[str, str, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.bandwidth <= 0:
            raise TopologyError(
                f"link {self.src}->{self.dst} must have positive bandwidth"
            )
        if self.latency < 0:
            raise TopologyError(
                f"link {self.src}->{self.dst} must have non-negative latency"
            )
        self.key = (self.src, self.dst, self.link_id)


class ClosedFormRoutes(Protocol):
    """Routes a fabric builder computes without a graph search."""

    def path(self, src_gpu: int, dst_gpu: int) -> Optional[Tuple[Link, ...]]:
        """The route :meth:`Topology.shortest_path` would return, or ``None``.

        ``None`` means only the search can tell: the graph left the shape
        the routes were computed for.
        """


class Topology:
    """A directed multigraph of nodes and links with simple routing helpers."""

    def __init__(self, name: str = "topology") -> None:
        self.name = name
        self._nodes: Dict[str, Node] = {}
        self._links: Dict[int, Link] = {}
        self._graph = nx.MultiDiGraph()
        # Plain int rather than itertools.count so id allocation is explicit
        # snapshot state (a count object cannot be rewound or compared).
        self._link_counter = 0
        self._version = 0
        #: Flattened routing adjacency (node -> [(neighbor, link), ...]) with
        #: parallel links pre-resolved to min link_id, walked by the
        #: equal-cost enumeration; rebuilt lazily when the version moves.
        self._routing_adjacency: Optional[Dict[str, List[Tuple[str, Link]]]] = None
        self._routing_adjacency_version = -1
        #: Natural-sorted successor/predecessor name lists for the search
        #: routines, rebuilt lazily when the version moves.
        self._search_succ: Optional[Dict[str, List[str]]] = None
        self._search_pred: Optional[Dict[str, List[str]]] = None
        self._search_adjacency_version = -1
        #: Links taken out of service by fault injection, restorable by id.
        self._failed_links: Dict[int, Link] = {}
        #: Original bandwidth of links currently degraded below capacity.
        self._original_bandwidth: Dict[int, float] = {}
        #: Routes a fabric builder attached: ``closed_form.path(src_gpu,
        #: dst_gpu)`` returns exactly the route :meth:`shortest_path` would,
        #: or ``None`` where only the search can tell (see
        #: :class:`repro.simulator.routing.RouteTable`).
        self.closed_form: Optional[ClosedFormRoutes] = None

    @property
    def version(self) -> int:
        """Monotonic counter bumped on every link change.

        Route memos built on top of this topology (see
        :class:`repro.simulator.routing.RouteTable`) compare the version they
        were filled at against the current one instead of assuming the graph
        is static — circuit fabrics add and remove ``OPTICAL_CIRCUIT`` links
        while a simulation is running.
        """
        return self._version

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #

    def add_node(self, name: str, kind: NodeKind, **attrs: object) -> Node:
        """Add a node; re-adding an existing name raises :class:`TopologyError`."""
        if name in self._nodes:
            raise TopologyError(f"node {name!r} already exists in {self.name!r}")
        node = Node(name=name, kind=kind, attrs=dict(attrs))
        self._nodes[name] = node
        self._graph.add_node(name, kind=kind, **attrs)
        return node

    def add_link(
        self,
        src: str,
        dst: str,
        bandwidth: float,
        latency: float,
        kind: LinkKind,
    ) -> Link:
        """Add a unidirectional link from ``src`` to ``dst``."""
        self._require_node(src)
        self._require_node(dst)
        link_id = self._link_counter
        self._link_counter = link_id + 1
        link = Link(
            src=src,
            dst=dst,
            bandwidth=bandwidth,
            latency=latency,
            kind=kind,
            link_id=link_id,
        )
        self._links[link.link_id] = link
        self._attach(link)
        self._version += 1
        return link

    def add_bidirectional_link(
        self,
        a: str,
        b: str,
        bandwidth: float,
        latency: float,
        kind: LinkKind,
    ) -> Tuple[Link, Link]:
        """Add a pair of opposite unidirectional links between ``a`` and ``b``."""
        forward = self.add_link(a, b, bandwidth, latency, kind)
        backward = self.add_link(b, a, bandwidth, latency, kind)
        return forward, backward

    def _attach(self, link: Link) -> None:
        """Enter ``link`` in the graph's adjacency.

        Writes the ``MultiDiGraph`` layout (``succ[src][dst][link_id] ->
        {"link": link}``, the key dict shared with ``pred[dst][src]``)
        directly, as :meth:`route_link` and the search lists read it: circuit
        fabrics add and remove links on every reconfiguration, where the
        networkx edge API costs more than the update itself.
        """
        graph = self._graph
        keys = graph._succ[link.src].get(link.dst)
        if keys is None:
            keys = graph._succ[link.src][link.dst] = {}
            graph._pred[link.dst][link.src] = keys
        keys[link.link_id] = {"link": link}

    def _detach(self, link: Link) -> None:
        """Drop ``link`` from the graph's adjacency (see :meth:`_attach`)."""
        graph = self._graph
        keys = graph._succ[link.src][link.dst]
        del keys[link.link_id]
        if not keys:
            del graph._succ[link.src][link.dst]
            del graph._pred[link.dst][link.src]

    def remove_link(self, link_id: int) -> None:
        """Remove a link by id (used when tearing down optical circuits)."""
        link = self._links.pop(link_id, None)
        if link is None:
            raise TopologyError(f"link id {link_id} does not exist")
        self._detach(link)
        self._original_bandwidth.pop(link_id, None)
        self._version += 1

    # ------------------------------------------------------------------ #
    # Fault injection
    # ------------------------------------------------------------------ #

    def fail_link(self, link_id: int) -> Link:
        """Take a link out of service, remembering it for :meth:`restore_link`.

        Unlike :meth:`remove_link` (a permanent tear-down), a failed link
        keeps its :class:`Link` object registered under ``link_id`` so it can
        be restored with its identity — and so consumers holding a route over
        it can distinguish "failed" (:meth:`link_failed`) from "never
        existed".  Bumps the topology version, which invalidates every
        version-keyed route table and cache.
        """
        link = self._links.pop(link_id, None)
        if link is None:
            raise TopologyError(f"link id {link_id} does not exist")
        self._detach(link)
        self._failed_links[link_id] = link
        self._version += 1
        return link

    def restore_link(self, link_id: int) -> Link:
        """Return a previously failed link to service (same id and object)."""
        link = self._failed_links.pop(link_id, None)
        if link is None:
            raise TopologyError(f"link id {link_id} is not failed")
        self._links[link_id] = link
        self._attach(link)
        self._version += 1
        return link

    def link_failed(self, link_id: int) -> bool:
        """Whether ``link_id`` is currently failed (out of service but known)."""
        return link_id in self._failed_links

    def failed_links(self) -> List[Link]:
        """Every currently failed link."""
        return list(self._failed_links.values())

    def degrade_link(self, link_id: int, fraction: float) -> Link:
        """Scale a link's capacity to ``fraction`` of its *original* bandwidth.

        ``fraction`` must be in ``(0, 1]``; repeated degradations compose
        against the original capacity (not each other), and ``fraction=1.0``
        restores the link to full health.  Bumps the topology version so the
        analytic models' group parameters and the flow-level route tables
        recompute from the degraded capacity.
        """
        if not 0.0 < fraction <= 1.0:
            raise TopologyError(
                f"degrade fraction must be in (0, 1], got {fraction!r}"
            )
        link = self.link(link_id)
        original = self._original_bandwidth.setdefault(link_id, link.bandwidth)
        link.bandwidth = original * fraction
        if fraction == 1.0:
            del self._original_bandwidth[link_id]
        self._version += 1
        return link

    def link_degradation(self, link_id: int) -> float:
        """The remaining capacity fraction of a link (1.0 when healthy).

        Answers for failed links too: a link can be degraded *and* failed,
        and it keeps its degraded capacity across fail/restore cycles.
        """
        link = self._links.get(link_id) or self._failed_links.get(link_id)
        if link is None:
            raise TopologyError(f"link id {link_id} does not exist")
        original = self._original_bandwidth.get(link_id)
        return 1.0 if original is None else link.bandwidth / original

    def degraded_links(self) -> List[Link]:
        """Every link currently running below its original capacity.

        Includes degraded links that are currently *failed* — their reduced
        capacity survives a restore, so consumers undoing degradations must
        see them.
        """
        return [
            self._links.get(link_id) or self._failed_links[link_id]
            for link_id in self._original_bandwidth
        ]

    # ------------------------------------------------------------------ #
    # Snapshot support
    # ------------------------------------------------------------------ #

    @property
    def snapshot_kind(self) -> str:
        return "Topology"

    def snapshot(self) -> "SimState":
        """Capture the link *health* state (failures, degradations).

        A topology snapshot is deliberately lightweight: it records which
        links are failed and every link's current bandwidth, not the graph
        structure.  That makes it only valid for fabrics whose link set is
        fixed for the life of the run (electrical fat-trees, rail-optimized
        fabrics under fault injection).  Circuit fabrics add and tear
        optical links mid-run; they are captured through the full session
        snapshot instead, which pickles the whole object graph.
        """
        from ..simulator.snapshot import SimState

        bandwidth = {link.link_id: link.bandwidth for link in self._links.values()}
        bandwidth.update(
            (link.link_id, link.bandwidth) for link in self._failed_links.values()
        )
        payload = {
            "structure": frozenset(bandwidth),
            "failed": frozenset(self._failed_links),
            "bandwidth": bandwidth,
            "original": dict(self._original_bandwidth),
            "link_counter": self._link_counter,
            "version": self._version,
        }
        return SimState(
            kind=self.snapshot_kind,
            payload=pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL),
        )

    def restore(self, state: "SimState") -> None:
        """Reapply a captured health state onto this topology's own links.

        Restoring preserves :class:`Link` object identity — consumers holding
        references to this topology's links (route caches, installed flow
        paths) see the snapshot's bandwidths through the objects they already
        hold.  The version counter is *not* rewound: it moves strictly
        forward past both the live and the captured value, so any cache keyed
        on a version between the snapshot and now is invalidated rather than
        spuriously revalidated.
        """
        state.require(self.snapshot_kind)
        payload = pickle.loads(state.payload)
        current = frozenset(self._links) | frozenset(self._failed_links)
        if payload["structure"] != current:
            raise SnapshotError(
                f"topology {self.name!r} has a different link set than the "
                "snapshot; structurally dynamic (circuit) fabrics must be "
                "restored through the owning session, not link-by-link"
            )
        failed = payload["failed"]
        for link_id in sorted(frozenset(self._failed_links) - failed):
            self.restore_link(link_id)
        for link_id in sorted(failed - frozenset(self._failed_links)):
            self.fail_link(link_id)
        for link_id, bandwidth in payload["bandwidth"].items():
            link = self._links.get(link_id) or self._failed_links[link_id]
            link.bandwidth = bandwidth
        self._original_bandwidth = dict(payload["original"])
        self._link_counter = max(self._link_counter, payload["link_counter"])
        self._version = max(self._version, payload["version"]) + 1
        self._routing_adjacency = None
        self._routing_adjacency_version = -1
        self._search_succ = None
        self._search_pred = None
        self._search_adjacency_version = -1

    def fork(self) -> "Topology":
        """An independent deep copy (links, graph, and health state)."""
        return copy.deepcopy(self)

    # ------------------------------------------------------------------ #
    # Lookup
    # ------------------------------------------------------------------ #

    def node(self, name: str) -> Node:
        """Return the node called ``name``."""
        self._require_node(name)
        return self._nodes[name]

    def link(self, link_id: int) -> Link:
        """Return the link with id ``link_id``."""
        if link_id not in self._links:
            raise TopologyError(f"link id {link_id} does not exist")
        return self._links[link_id]

    def has_link(self, link_id: int) -> bool:
        """Return whether a link with id ``link_id`` is currently installed.

        Torn-down circuit links keep their ``Link`` objects alive in whoever
        still holds a reference, so flow-level consumers use this to detect
        routes that reference links no longer part of the fabric.
        """
        return link_id in self._links

    def nodes(self, kind: Optional[NodeKind] = None) -> List[Node]:
        """Return all nodes, optionally filtered by kind."""
        if kind is None:
            return list(self._nodes.values())
        return [node for node in self._nodes.values() if node.kind == kind]

    def links(self, kind: Optional[LinkKind] = None) -> List[Link]:
        """Return all links, optionally filtered by kind."""
        if kind is None:
            return list(self._links.values())
        return [link for link in self._links.values() if link.kind == kind]

    def links_between(self, src: str, dst: str) -> List[Link]:
        """Return every link from ``src`` to ``dst`` (may be empty)."""
        if not self._graph.has_edge(src, dst):
            return []
        return [data["link"] for data in self._graph[src][dst].values()]

    def out_links(self, node: str) -> List[Link]:
        """Return all links leaving ``node``."""
        self._require_node(node)
        return [
            data["link"]
            for _, _, data in self._graph.out_edges(node, data=True)
        ]

    def in_links(self, node: str) -> List[Link]:
        """Return all links entering ``node``."""
        self._require_node(node)
        return [
            data["link"]
            for _, _, data in self._graph.in_edges(node, data=True)
        ]

    def degree(self, node: str) -> int:
        """Return the number of outgoing links of ``node``."""
        return len(self.out_links(node))

    @property
    def num_nodes(self) -> int:
        """Number of nodes in the topology."""
        return len(self._nodes)

    @property
    def num_links(self) -> int:
        """Number of unidirectional links in the topology."""
        return len(self._links)

    # ------------------------------------------------------------------ #
    # Routing
    # ------------------------------------------------------------------ #

    def shortest_path(self, src: str, dst: str) -> List[Link]:
        """Return one minimum-hop path from ``src`` to ``dst`` as a link list.

        Ties are broken deterministically as a property of the graph itself:
        the bidirectional search visits neighbors in natural-sorted name
        order (see :func:`_natural_key`), and parallel links between one node
        pair resolve to the smallest ``link_id``.  Raises
        :class:`TopologyError` if no path exists.

        The search runs over flattened, version-cached neighbor lists — it
        is on the route-resolution hot path of the flow-level simulator,
        where the networkx view wrappers would dominate.
        """
        self._require_node(src)
        self._require_node(dst)
        if src == dst:
            return []
        graph_succ, graph_pred = self._search_lists()
        # Bidirectional BFS, same expansion policy as networkx's
        # bidirectional_shortest_path except for the sorted neighbor order.
        pred: Dict[str, Optional[str]] = {src: None}
        succ: Dict[str, Optional[str]] = {dst: None}
        forward_fringe = [src]
        reverse_fringe = [dst]
        meet: Optional[str] = None
        while forward_fringe and reverse_fringe and meet is None:
            if len(forward_fringe) <= len(reverse_fringe):
                this_level = forward_fringe
                forward_fringe = []
                for node in this_level:
                    for neighbor in graph_succ[node]:
                        if neighbor not in pred:
                            forward_fringe.append(neighbor)
                            pred[neighbor] = node
                        if neighbor in succ:
                            meet = neighbor
                            break
                    if meet is not None:
                        break
            else:
                this_level = reverse_fringe
                reverse_fringe = []
                for node in this_level:
                    for neighbor in graph_pred[node]:
                        if neighbor not in succ:
                            succ[neighbor] = node
                            reverse_fringe.append(neighbor)
                        if neighbor in pred:
                            meet = neighbor
                            break
                    if meet is not None:
                        break
        if meet is None:
            raise TopologyError(f"no path from {src!r} to {dst!r}")
        node_path: List[str] = []
        cursor: Optional[str] = meet
        while cursor is not None:
            node_path.append(cursor)
            cursor = pred[cursor]
        node_path.reverse()
        cursor = succ[meet]
        while cursor is not None:
            node_path.append(cursor)
            cursor = succ[cursor]
        return [
            self.route_link(hop_src, hop_dst)
            for hop_src, hop_dst in zip(node_path, node_path[1:])
        ]

    def route_link(self, src: str, dst: str) -> Link:
        """The smallest-id link from ``src`` to ``dst``: the one routes take."""
        edges = self._graph._adj[src][dst]
        if len(edges) == 1:
            (data,) = edges.values()
        else:
            data = edges[min(edges)]
        return data["link"]

    def _routing_lists(self) -> Dict[str, List[Tuple[str, Link]]]:
        """The flattened, version-cached adjacency of :meth:`equal_cost_paths`.

        Neighbor lists are natural-sorted, and parallel links resolve to the
        smallest ``link_id``, so the enumeration order — and with it every
        ECMP choice — depends only on node names, never on the order links
        happened to be added.
        """
        if (
            self._routing_adjacency is None
            or self._routing_adjacency_version != self._version
        ):
            self._routing_adjacency = {
                node: [
                    (neighbor, self.route_link(node, neighbor))
                    for neighbor in sorted(neighbors, key=_natural_key)
                ]
                for node, neighbors in self._graph._adj.items()
            }
            self._routing_adjacency_version = self._version
        return self._routing_adjacency

    def _search_lists(self) -> Tuple[Dict[str, List[str]], Dict[str, List[str]]]:
        """Natural-sorted successor/predecessor name lists, version-cached."""
        if (
            self._search_succ is None
            or self._search_adjacency_version != self._version
        ):
            self._search_succ = {
                name: sorted(neighbors, key=_natural_key)
                for name, neighbors in self._graph._succ.items()
            }
            self._search_pred = {
                name: sorted(neighbors, key=_natural_key)
                for name, neighbors in self._graph._pred.items()
            }
            self._search_adjacency_version = self._version
        assert self._search_pred is not None
        return self._search_succ, self._search_pred

    def equal_cost_paths(
        self, src: str, dst: str, max_paths: Optional[int] = None
    ) -> List[Tuple[Link, ...]]:
        """Every minimum-hop path from ``src`` to ``dst``, in a stable order.

        The equal-cost set is enumerated from the shortest-path DAG (an edge
        ``u -> v`` lies on a minimum-hop path iff
        ``dist(src, u) + 1 + dist(v, dst)`` equals the shortest distance),
        walking neighbors in natural-sorted order so the result — including
        which paths survive a ``max_paths`` truncation — is a deterministic
        function of the graph.  Parallel links between a node pair resolve to
        the smallest ``link_id`` exactly like :meth:`shortest_path`, so only
        distinct node sequences count as distinct paths.  Raises
        :class:`TopologyError` if no path exists; ``src == dst`` yields the
        single empty path.

        This is the path-set primitive behind the multipath routing policies
        (ECMP hashing, adaptive least-congested choice, spray): their
        determinism rests on this ordering being stable across runs and
        insertion orders.
        """
        self._require_node(src)
        self._require_node(dst)
        if src == dst:
            return [()]
        succ, pred = self._search_lists()
        dist_forward: Dict[str, int] = {src: 0}
        frontier = [src]
        depth = 0
        while frontier and dst not in dist_forward:
            depth += 1
            next_frontier: List[str] = []
            for node in frontier:
                for neighbor in succ[node]:
                    if neighbor not in dist_forward:
                        dist_forward[neighbor] = depth
                        next_frontier.append(neighbor)
            frontier = next_frontier
        if dst not in dist_forward:
            raise TopologyError(f"no path from {src!r} to {dst!r}")
        total = dist_forward[dst]
        dist_back: Dict[str, int] = {dst: 0}
        frontier = [dst]
        depth = 0
        while frontier and depth < total:
            depth += 1
            next_frontier = []
            for node in frontier:
                for neighbor in pred[node]:
                    if neighbor not in dist_back:
                        dist_back[neighbor] = depth
                        next_frontier.append(neighbor)
            frontier = next_frontier
        adjacency = self._routing_lists()
        paths: List[Tuple[Link, ...]] = []
        stack: List[Link] = []

        def descend(node: str, remaining: int) -> bool:
            if remaining == 0:
                paths.append(tuple(stack))
                return max_paths is not None and len(paths) >= max_paths
            for neighbor, link in adjacency[node]:
                if dist_back.get(neighbor) == remaining - 1:
                    stack.append(link)
                    if descend(neighbor, remaining - 1):
                        return True
                    stack.pop()
            return False

        descend(src, total)
        return paths

    def path_latency(self, path: Sequence[Link]) -> float:
        """Sum of link latencies along ``path``."""
        return sum(link.latency for link in path)

    def path_bottleneck_bandwidth(self, path: Sequence[Link]) -> float:
        """Minimum link bandwidth along ``path`` (``inf`` for an empty path)."""
        if not path:
            return float("inf")
        return min(link.bandwidth for link in path)

    def connected(self, src: str, dst: str) -> bool:
        """Return whether a directed path from ``src`` to ``dst`` exists."""
        self._require_node(src)
        self._require_node(dst)
        return nx.has_path(self._graph, src, dst)

    # ------------------------------------------------------------------ #
    # Misc
    # ------------------------------------------------------------------ #

    def __iter__(self) -> Iterator[Node]:
        return iter(self._nodes.values())

    def __contains__(self, name: object) -> bool:
        return name in self._nodes

    def __repr__(self) -> str:
        return (
            f"Topology(name={self.name!r}, nodes={self.num_nodes}, "
            f"links={self.num_links})"
        )

    def _require_node(self, name: str) -> None:
        if name not in self._nodes:
            raise TopologyError(f"node {name!r} does not exist in {self.name!r}")


def gpu_node_name(gpu_id: int) -> str:
    """Canonical node name for a GPU."""
    return f"gpu{gpu_id}"


def nic_port_node_name(gpu_id: int, port: int) -> str:
    """Canonical node name for one logical NIC port of a GPU."""
    return f"gpu{gpu_id}.nic{port}"


def switch_node_name(tier: str, index: int) -> str:
    """Canonical node name for an electrical switch (e.g. ``rail0.leaf2``)."""
    return f"{tier}.sw{index}"


def ocs_node_name(rail: int, index: int = 0) -> str:
    """Canonical node name for a rail OCS."""
    return f"rail{rail}.ocs{index}"
