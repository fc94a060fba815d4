"""Photonic rail-optimized fabric: the paper's proposed data plane.

Each rail's electrical packet switches are replaced by one optical circuit
switch (OCS).  Every GPU of rank *r* contributes its scale-out NIC port(s) to
rail *r*'s OCS; the OCS provides point-to-point circuits between these ports.
There is no spine and no electrical switching on the data path — the logical
structure of the rail-optimized topology (scale-up domains, cabling,
GPU-to-rail mapping) is retained unchanged (paper §2.1).

The fabric exposes:

* a per-rail :class:`PhotonicRail` that is the one record of the rail's
  installed circuits, the OCS ports each one holds, the ports that have
  failed and the topology link ids behind each circuit;
* :meth:`PhotonicRailFabric.install` and :meth:`PhotonicRailFabric.tear`,
  which conflict-check one circuit against that record, add or remove its
  topology links and tell the circuit listeners;
* a :class:`~repro.topology.base.Topology` view in which installed circuits
  appear as ``OPTICAL_CIRCUIT`` links between NIC-port nodes, so the flow-level
  simulator routes over circuits exactly the way it routes over packet links;
* port-health and circuit helpers from which the Opus circuit planner builds
  the ring and pairwise configurations the controller installs;
* a :class:`~repro.topology.railopt.FabricInventory` for the Fig. 7 cost/power
  models (OCS ports plus host-side transceivers only — the OCS is transparent).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, NamedTuple, Optional, Set, Tuple

from ..errors import (
    CircuitConflictError,
    CircuitError,
    ConfigurationError,
    TopologyError,
)
from .base import (
    Link,
    LinkKind,
    NodeKind,
    Topology,
    gpu_node_name,
    nic_port_node_name,
    ocs_node_name,
)
from .devices import ClusterSpec, OCSTechnology
from .ocs import Circuit, CircuitConfiguration
from .railopt import FabricInventory, add_host_ports
from .scaleup import add_scaleup_domains


@dataclass(frozen=True)
class RailEndpoint:
    """One OCS-port endpoint on a rail: a (domain, NIC-port) pair."""

    domain: int
    nic_port: int = 0


class CircuitChangeEvent(NamedTuple):
    """One circuit installed on (or torn from) the fabric's topology view.

    Emitted by :meth:`PhotonicRailFabric.install` and
    :meth:`PhotonicRailFabric.tear` for every circuit whose topology links
    were added or removed, so time-domain consumers (the flow-level network
    model, tests) can react to connectivity changes as they happen instead
    of diffing the graph.
    """

    rail: int
    circuit: Circuit
    #: The pair of unidirectional topology link ids realizing the circuit.
    link_ids: Tuple[int, int]
    #: True for an install, False for a tear-down.
    installed: bool


#: Callback invoked for every circuit install / tear-down.
CircuitChangeListener = Callable[[CircuitChangeEvent], None]


def _circuit_latency() -> float:
    """Propagation latency of one optical circuit hop, seconds.

    The OCS is optically transparent — no packet processing, no buffering —
    so the circuit hop itself contributes nothing beyond fiber propagation,
    which is negligible at rack scale.  A GPU-to-GPU route over a circuit
    (host link + circuit + host link) then carries the same 2 microseconds the
    analytic scale-out link model charges, keeping the flow-level and analytic
    photonic modes comparable on contention-free traffic.
    """
    return 0.0


class PhotonicRail:
    """One rail of the photonic fabric: its OCS's port mapping and circuits.

    The OCS port assigned to a (domain, nic_port) endpoint is
    ``domain * ports_per_gpu + nic_port``; this is a fixed cabling decision
    made at build time, mirroring how fibers are physically patched once.

    The rail is the one record of its crossbar state: which circuits are
    installed (and the topology links behind each), which port each circuit
    holds, and which ports have failed.  :class:`PhotonicRailFabric` changes
    that record, one circuit at a time.
    """

    def __init__(
        self,
        rail: int,
        cluster: ClusterSpec,
        technology: Optional[OCSTechnology] = None,
    ) -> None:
        self.rail = rail
        self.cluster = cluster
        self.technology = technology or cluster.ocs
        self.ports_per_gpu = cluster.nic_port_config.num_ports
        required_ports = cluster.num_domains * self.ports_per_gpu
        if required_ports > self.technology.radix:
            raise ConfigurationError(
                f"rail {rail} needs {required_ports} OCS ports but "
                f"{self.technology.name} ({self.technology.vendor}) only has "
                f"radix {self.technology.radix}; use a larger-radix OCS or "
                f"fewer scale-up domains"
            )
        #: Installed circuits, in install order, each with the pair of
        #: unidirectional topology link ids realizing it.
        self.circuits: Dict[Circuit, Tuple[int, int]] = {}
        #: Installed circuit per OCS port: a crossbar uses each port at most
        #: once, so conflict checks are port lookups.
        self.port_owner: Dict[int, Circuit] = {}
        #: OCS ports taken out of service by fault injection.  A failed port
        #: is permanently conflicting, and it stays failed across
        #: :meth:`PhotonicRailFabric.clear_rail`: it is a hardware fault, not
        #: crossbar state.
        self.failed_ports: Set[int] = set()
        #: Topology node of the NIC port behind each OCS port, filled lazily.
        self._port_nodes: Dict[int, str] = {}

    # ------------------------------------------------------------------ #
    # Port mapping
    # ------------------------------------------------------------------ #

    def ocs_port(self, endpoint: RailEndpoint) -> int:
        """Return the OCS port wired to ``endpoint``."""
        if not 0 <= endpoint.domain < self.cluster.num_domains:
            raise ConfigurationError(f"domain {endpoint.domain} out of range")
        if not 0 <= endpoint.nic_port < self.ports_per_gpu:
            raise ConfigurationError(f"NIC port {endpoint.nic_port} out of range")
        return endpoint.domain * self.ports_per_gpu + endpoint.nic_port

    def endpoint_of(self, ocs_port: int) -> RailEndpoint:
        """Return the (domain, NIC-port) endpoint wired to ``ocs_port``."""
        if not 0 <= ocs_port < self.cluster.num_domains * self.ports_per_gpu:
            raise ConfigurationError(f"OCS port {ocs_port} is not cabled")
        return RailEndpoint(
            domain=ocs_port // self.ports_per_gpu,
            nic_port=ocs_port % self.ports_per_gpu,
        )

    def gpu_of(self, endpoint: RailEndpoint) -> int:
        """Return the global GPU id owning ``endpoint`` on this rail."""
        return self.cluster.gpu_id(endpoint.domain, self.rail)

    def port_node(self, ocs_port: int) -> str:
        """The topology node of the NIC port wired to ``ocs_port``."""
        name = self._port_nodes.get(ocs_port)
        if name is None:
            endpoint = self.endpoint_of(ocs_port)
            name = self._port_nodes[ocs_port] = nic_port_node_name(
                self.gpu_of(endpoint), endpoint.nic_port
            )
        return name

    # ------------------------------------------------------------------ #
    # Configuration builders
    # ------------------------------------------------------------------ #

    def circuit_between(
        self, a: RailEndpoint, b: RailEndpoint
    ) -> Circuit:
        """Build (but do not install) a circuit between two endpoints."""
        return Circuit(self.ocs_port(a), self.ocs_port(b))

    # ------------------------------------------------------------------ #
    # Circuit record
    # ------------------------------------------------------------------ #

    def conflicts_with(self, circuit: Circuit) -> List[Circuit]:
        """Installed circuits sharing a port with ``circuit`` (excluding itself)."""
        result = []
        for port in (circuit.port_a, circuit.port_b):
            owner = self.port_owner.get(port)
            if owner is not None and owner != circuit and owner not in result:
                result.append(owner)
        return result

    def check_port(self, port: int) -> None:
        """Raise :class:`CircuitError` if ``port`` is outside the OCS radix."""
        if not 0 <= port < self.technology.radix:
            raise CircuitError(
                f"rail {self.rail}: port {port} outside radix "
                f"{self.technology.radix}"
            )

    # ------------------------------------------------------------------ #
    # Port health (fault injection)
    # ------------------------------------------------------------------ #

    # Failed ports are permanently conflicting: the healthy-port helpers
    # below (and the circuit planner on top of them) route rings and pairs
    # through each domain's surviving NIC ports instead, and installs that
    # would touch a failed port raise.

    def healthy_nic_ports(self, domain: int) -> Tuple[int, ...]:
        """NIC ports of ``domain`` whose OCS ports are still in service."""
        return tuple(
            nic_port
            for nic_port in range(self.ports_per_gpu)
            if self.ocs_port(RailEndpoint(domain, nic_port))
            not in self.failed_ports
        )

    def healthy_port(self, domain: int, preferred: int) -> int:
        """``preferred`` if its OCS port is healthy, else the first survivor."""
        if (
            self.ocs_port(RailEndpoint(domain, preferred))
            not in self.failed_ports
        ):
            return preferred
        healthy = self.healthy_nic_ports(domain)
        if not healthy:
            raise CircuitError(
                f"rail {self.rail}: domain {domain} has no healthy NIC port "
                "left (fault injection)"
            )
        return healthy[0]

    def healthy_port_pair(self, domain: int, preferred: Tuple[int, ...]) -> Tuple[int, int]:
        """An (in, out) NIC-port pair for a ring member, avoiding failed ports."""
        healthy = self.healthy_nic_ports(domain)
        if len(healthy) >= 2:
            if preferred[0] in healthy and preferred[1] in healthy:
                return preferred[0], preferred[1]
            return healthy[0], healthy[1]
        raise CircuitError(
            f"rail {self.rail}: domain {domain} needs two healthy NIC ports "
            f"for a ring but has {len(healthy)} (fault injection)"
        )

    def pairwise_configuration(
        self, pairs: Iterable[Tuple[int, int]], nic_port: int = 0
    ) -> CircuitConfiguration:
        """Build point-to-point circuits between the given domain pairs."""
        circuits = [
            self.circuit_between(
                RailEndpoint(a, self.healthy_port(a, nic_port)),
                RailEndpoint(b, self.healthy_port(b, nic_port)),
            )
            for a, b in pairs
        ]
        return CircuitConfiguration(circuits)

    def __repr__(self) -> str:
        return (
            f"PhotonicRail(rail={self.rail}, ocs={self.technology.name!r}, "
            f"circuits={len(self.circuits)})"
        )


@dataclass
class PhotonicRailFabric:
    """The full photonic rail fabric: per-rail circuit records plus a topology view."""

    cluster: ClusterSpec
    topology: Topology
    rails: Dict[int, PhotonicRail]
    inventory: FabricInventory
    #: Callbacks notified on every circuit install / tear-down.
    _listeners: List[CircuitChangeListener] = field(default_factory=list)

    # ------------------------------------------------------------------ #
    # Circuit management
    # ------------------------------------------------------------------ #

    def add_circuit_listener(self, listener: CircuitChangeListener) -> None:
        """Subscribe to circuit install / tear-down events.

        Listeners fire synchronously from :meth:`install` and :meth:`tear`,
        after the topology links have been added or removed.
        """
        self._listeners.append(listener)

    def circuit_links(self, rail: int, circuit: Circuit) -> Tuple[int, int]:
        """Topology link ids currently realizing ``circuit`` on ``rail``."""
        link_ids = self.rail(rail).circuits.get(circuit)
        if link_ids is None:
            raise CircuitError(
                f"circuit {circuit} is not installed on rail {rail}"
            )
        return link_ids

    def rail(self, rail: int) -> PhotonicRail:
        """Return the :class:`PhotonicRail` for rail index ``rail``."""
        if rail not in self.rails:
            raise TopologyError(f"rail {rail} does not exist")
        return self.rails[rail]

    def install(self, rail: int, circuit: Circuit) -> Tuple[int, int]:
        """Install one circuit on ``rail`` and add its topology links.

        Returns the circuit's link ids.  Raises :class:`CircuitError` for a
        port outside the OCS radix or a failed port, and
        :class:`CircuitConflictError` when a port already carries a circuit.
        The *time* a switching event takes is not modelled here: the Opus
        controller accounts for it.
        """
        photonic_rail = self.rail(rail)
        for port in circuit.ports:
            photonic_rail.check_port(port)
            if port in photonic_rail.failed_ports:
                raise CircuitError(
                    f"rail {rail}: port {port} has failed and cannot carry "
                    f"circuit {circuit}"
                )
            owner = photonic_rail.port_owner.get(port)
            if owner is not None:
                raise CircuitConflictError(
                    f"rail {rail}: port {port} already carries circuit {owner}"
                )
        link_ids = self._add_circuit_links(photonic_rail, circuit)
        photonic_rail.circuits[circuit] = link_ids
        photonic_rail.port_owner[circuit.port_a] = circuit
        photonic_rail.port_owner[circuit.port_b] = circuit
        self._notify(CircuitChangeEvent(rail, circuit, link_ids, installed=True))
        return link_ids

    def tear(self, rail: int, circuit: Circuit) -> None:
        """Tear one installed circuit off ``rail`` and remove its topology links."""
        photonic_rail = self.rail(rail)
        link_ids = photonic_rail.circuits.pop(circuit, None)
        if link_ids is None:
            raise CircuitError(
                f"circuit {circuit} is not installed on rail {rail}"
            )
        del photonic_rail.port_owner[circuit.port_a]
        del photonic_rail.port_owner[circuit.port_b]
        for link_id in link_ids:
            self.topology.remove_link(link_id)
        self._notify(CircuitChangeEvent(rail, circuit, link_ids, installed=False))

    def fail_port(self, rail: int, port: int) -> Optional[Circuit]:
        """Take one OCS port on ``rail`` out of service (fault injection).

        The circuit the port carried, if any, is torn (its listeners fire
        before the port is marked failed) and returned.  Further installs
        touching the port raise :class:`CircuitError`.
        """
        photonic_rail = self.rail(rail)
        photonic_rail.check_port(port)
        victim = photonic_rail.port_owner.get(port)
        if victim is not None:
            self.tear(rail, victim)
        photonic_rail.failed_ports.add(port)
        return victim

    def clear_rail(self, rail: int) -> None:
        """Tear down every circuit on ``rail``; failed ports stay failed."""
        for circuit in list(self.rail(rail).circuits):
            self.tear(rail, circuit)

    # ------------------------------------------------------------------ #
    # Internal topology maintenance
    # ------------------------------------------------------------------ #

    def _add_circuit_links(
        self, photonic_rail: PhotonicRail, circuit: Circuit
    ) -> Tuple[int, int]:
        forward, backward = self.topology.add_bidirectional_link(
            photonic_rail.port_node(circuit.port_a),
            photonic_rail.port_node(circuit.port_b),
            bandwidth=self.cluster.nic_port_config.port_bandwidth,
            latency=_circuit_latency(),
            kind=LinkKind.OPTICAL_CIRCUIT,
        )
        return (forward.link_id, backward.link_id)

    def _notify(self, event: CircuitChangeEvent) -> None:
        for listener in self._listeners:
            listener(event)


class CircuitRoutes:
    """Direct-circuit routes of one photonic rail fabric, read from its rails.

    Two GPUs on one rail in different scale-up domains that exactly one
    installed circuit joins route GPU -> NIC port -> circuit -> NIC port ->
    GPU: the only minimum-hop path in the graph, so the same ``Link``
    objects :meth:`~repro.topology.base.Topology.shortest_path` returns.
    Every other pair answers ``None`` and goes to the search: same-domain
    and cross-rail pairs, pairs joined by two tied circuits or by none
    (forwarding through hosts, paper constraint C1), and every pair once a
    link other than a circuit failed, degraded or came back.
    """

    def __init__(self, fabric: "PhotonicRailFabric") -> None:
        self.topology = fabric.topology
        self.rails = fabric.rails
        #: The topology version this view vouches for: circuit installs and
        #: tears move it with the topology, any other link change leaves it
        #: behind for good.
        self.version = fabric.topology.version
        cluster = fabric.cluster
        self._per_domain = cluster.scaleup.gpus_per_domain
        self._ports = cluster.nic_port_config.num_ports
        #: (GPU, NIC port) -> its host links (up, down).
        self._legs: Dict[Tuple[int, int], Tuple[Link, Link]] = {}

    def on_circuit_change(self, event: CircuitChangeEvent) -> None:
        """Follow a circuit install or tear if nothing else moved the graph."""
        version = self.topology.version
        if self.version + len(event.link_ids) == version:
            self.version = version

    def _leg(self, gpu: int, nic_port: int) -> Tuple[Link, Link]:
        leg = self._legs.get((gpu, nic_port))
        if leg is None:
            gpu_name, port_name = gpu_node_name(gpu), nic_port_node_name(gpu, nic_port)
            link = self.topology.route_link
            leg = self._legs[(gpu, nic_port)] = (
                link(gpu_name, port_name),
                link(port_name, gpu_name),
            )
        return leg

    def path(self, src: int, dst: int) -> Optional[Tuple[Link, ...]]:
        """The route from GPU ``src`` to GPU ``dst`` over one circuit, or ``None``."""
        per_domain, ports = self._per_domain, self._ports
        rail = src % per_domain
        src_domain, dst_domain = src // per_domain, dst // per_domain
        if (
            self.topology.version != self.version
            or dst % per_domain != rail
            or src_domain == dst_domain
        ):
            return None
        photonic_rail = self.rails[rail]
        owners = photonic_rail.port_owner
        found = None
        for port in range(src_domain * ports, (src_domain + 1) * ports):
            circuit = owners.get(port)
            if circuit is None:
                continue
            far = circuit.port_b if circuit.port_a == port else circuit.port_a
            if far // ports == dst_domain:
                if found is not None:
                    return None  # tied circuits: the search breaks the tie
                found = (circuit, port, far)
        if found is None:
            return None
        circuit, port, far = found
        forward, backward = photonic_rail.circuits[circuit]
        return (
            self._leg(src, port % ports)[0],
            self.topology.link(forward if port == circuit.port_a else backward),
            self._leg(dst, far % ports)[1],
        )


def photonic_rail_inventory(cluster: ClusterSpec) -> FabricInventory:
    """Closed-form photonic-rail bill of materials for the Fig. 7 sweeps.

    Every NIC port is cabled to one OCS port; transceivers exist only at the
    host ends (the OCS is optically transparent), and the number of
    (potential) circuits is one per two ports.
    """
    ports_per_gpu = cluster.nic_port_config.num_ports
    nic_ports = cluster.num_gpus * ports_per_gpu
    return FabricInventory(
        electrical_switches=0,
        ocs_ports=nic_ports,
        transceivers=nic_ports,
        links=nic_ports // 2,
    )


def build_photonic_rail_fabric(
    cluster: ClusterSpec,
    technology: Optional[OCSTechnology] = None,
) -> PhotonicRailFabric:
    """Build the photonic rail fabric for ``cluster``.

    Parameters
    ----------
    cluster:
        Hardware description; ``cluster.ocs`` supplies the default OCS
        technology.
    technology:
        Override the OCS technology for every rail (e.g. to sweep Table 3).
    """
    topology = Topology(name=f"photonic-rail[{cluster.num_gpus}]")
    add_scaleup_domains(topology, cluster)
    add_host_ports(topology, cluster)

    rails: Dict[int, PhotonicRail] = {}
    for rail in range(cluster.num_rails):
        photonic_rail = PhotonicRail(rail, cluster, technology=technology)
        topology.add_node(
            ocs_node_name(rail),
            NodeKind.OCS,
            rail=rail,
            technology=photonic_rail.technology.name,
        )
        rails[rail] = photonic_rail

    fabric = PhotonicRailFabric(
        cluster=cluster,
        topology=topology,
        rails=rails,
        inventory=photonic_rail_inventory(cluster),
    )
    routes = CircuitRoutes(fabric)
    # First listener: the routes follow each circuit change before any
    # consumer reacting to it asks for one.
    fabric.add_circuit_listener(routes.on_circuit_change)
    topology.closed_form = routes
    return fabric
