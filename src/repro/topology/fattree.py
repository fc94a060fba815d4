"""Three-tier fat-tree (folded Clos) fabric builder — the second Fig. 7 baseline.

The fat-tree here is the classical full-bisection k-ary design [Al-Fares et
al.]: with k-port switches it supports ``k^3/4`` hosts using ``5k^2/4``
switches (``k^2/4`` core + ``k`` pods of ``k/2`` edge and ``k/2`` aggregation
switches each).  For clusters smaller than a full fat-tree the builder uses the
standard "sliced" construction: only as many pods (and the proportional share
of core switches) as needed are provisioned, while keeping full bisection for
the provisioned part.

The graph runs the packet-fabric baselines end to end; its
:class:`FatTreeRoutes` compute each GPU pair's route from pod and switch
coordinates, with no graph search.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from ..errors import TopologyError
from .base import (
    Link,
    LinkKind,
    NodeKind,
    Topology,
    gpu_node_name,
    nic_port_node_name,
    switch_node_name,
)
from .devices import ClusterSpec
from .railopt import FabricInventory, add_host_ports, _switch_latency
from .scaleup import add_scaleup_domains, nvswitch_node_name


@dataclass
class FatTreeFabric:
    """A fat-tree fabric: topology plus inventory and tier sizes."""

    cluster: ClusterSpec
    topology: Topology
    inventory: FabricInventory
    edge_switches: int
    aggregation_switches: int
    core_switches: int


class FatTreeRoutes:
    """Closed-form single-path routes of one fat-tree graph (Al-Fares et al.).

    GPUs of one scale-up domain meet at their NVSwitch.  Any other route
    climbs from the source GPU's lowest NIC port to the lowest switch both
    ends reach (their shared edge switch, their pod's first aggregation
    switch, or core 0 via their pods' first ones) and descends the same way:
    the tie-breaks of :meth:`~repro.topology.base.Topology.shortest_path` on
    the graph at :attr:`version`, as built; once a fault, degradation or
    restore moves the version, :meth:`path` answers ``None`` (search).  Each
    GPU's legs resolve lazily.
    """

    def __init__(self, topology: Topology, cluster: ClusterSpec, half: int) -> None:
        self.topology = topology
        #: Topology version of the graph as built.
        self.version = topology.version
        self._per_domain = cluster.scaleup.gpus_per_domain
        self._ports = cluster.nic_port_config.num_ports
        self._half = half
        #: GPU -> (its hops up: to its NVSwitch, then NIC, edge, agg[, core];
        #: the same hops down, in path order).
        self._legs: Dict[int, Tuple[Tuple[Link, ...], Tuple[Link, ...]]] = {}

    def _legs_of(self, gpu: int) -> Tuple[Tuple[Link, ...], Tuple[Link, ...]]:
        legs = self._legs.get(gpu)
        if legs is None:
            edge = gpu * self._ports // self._half
            names = [
                nvswitch_node_name(gpu // self._per_domain),
                gpu_node_name(gpu),
                nic_port_node_name(gpu, 0),
                switch_node_name("edge", edge),
                switch_node_name("agg", edge // self._half * self._half),
                switch_node_name("core", 0),
            ]
            if names[-1] not in self.topology:  # a single pod has no core
                names.pop()
            hops = [(names[1], names[0])] + list(zip(names[1:], names[2:]))
            link = self.topology.route_link
            legs = self._legs[gpu] = (
                tuple(link(src, dst) for src, dst in hops),
                tuple(link(dst, src) for src, dst in reversed(hops)),
            )
        return legs

    def path(self, src: int, dst: int) -> Optional[Tuple[Link, ...]]:
        """The route from GPU ``src`` to GPU ``dst``; ``None`` off the built graph."""
        if self.topology.version != self.version:
            return None
        if src == dst:
            return ()
        up, down = self._legs_of(src)[0], self._legs_of(dst)[1]
        if src // self._per_domain == dst // self._per_domain:
            return (up[0], down[-1])
        src_edge, dst_edge = src * self._ports // self._half, dst * self._ports // self._half
        # Switch tiers to climb: 1 to a shared edge switch, 2 to a shared
        # pod's aggregation switch, 3 to the core.
        tiers = 3 - (src_edge == dst_edge) - (src_edge // self._half == dst_edge // self._half)
        return up[1 : tiers + 2] + down[-tiers - 2 : -1]


def _routes_are_direct(cluster: ClusterSpec, half: int) -> bool:
    """Whether no shortest path detours through a domain mate's NIC.

    The detour ties or beats the direct route when the mate's edge switch
    is closer to the destination.  It cannot when each domain's ports share
    one edge switch, or fill whole edge switches in one pod or whole pods.
    """
    ports = cluster.nic_port_config.num_ports
    block = ports * cluster.scaleup.gpus_per_domain
    edges = block // half
    return half % block == 0 or (
        half % ports == 0
        and block % half == 0
        and (half % edges == 0 or edges % half == 0)
    )


def _fattree_counts(num_endpoints: int, radix: int) -> tuple:
    """Return (edge, agg, core, edge_agg_links, agg_core_links) switch counts.

    Uses the sliced full-bisection construction: hosts attach to edge switches
    at ``radix/2`` per switch; every edge switch has ``radix/2`` uplinks, and
    the aggregation and core tiers are sized to carry them at 1:1.
    """
    if num_endpoints <= 0:
        raise TopologyError("fat-tree needs at least one endpoint")
    half = radix // 2
    edge = max(1, math.ceil(num_endpoints / half))
    # Pods of `half` edge switches; partially-filled last pod allowed.
    pods = max(1, math.ceil(edge / half))
    agg = pods * half if pods > 1 else edge
    edge_agg_links = edge * half
    # Core sized for the aggregate uplink bandwidth of all aggregation switches.
    agg_core_links = agg * half if pods > 1 else 0
    core = max(0, math.ceil(agg_core_links / radix)) if pods > 1 else 0
    if pods == 1:
        # A single pod degenerates to a 2-tier leaf/spine.
        core = 0
        agg_core_links = 0
        agg = max(1, math.ceil(edge_agg_links / radix))
    return edge, agg, core, edge_agg_links, agg_core_links


def _fattree_bill_of_materials(
    num_endpoints: int, radix: int, oversubscription: float
) -> FabricInventory:
    """Shared inventory counting for the builder and the closed form.

    An oversubscribed tree provisions proportionally fewer uplink fibers
    (that is where the cost saving comes from).
    """
    if oversubscription < 1.0:
        raise TopologyError("oversubscription must be >= 1")
    uplink_scale = 1.0 / oversubscription
    edge, agg, core, edge_agg_links, agg_core_links = _fattree_counts(
        num_endpoints, radix
    )
    host_links = num_endpoints
    inter_switch_links = math.ceil(edge_agg_links * uplink_scale) + math.ceil(
        agg_core_links * uplink_scale
    )
    return FabricInventory(
        electrical_switches=edge + agg + core,
        ocs_ports=0,
        transceivers=2 * host_links + 2 * inter_switch_links,
        links=host_links + inter_switch_links,
    )


def fat_tree_inventory(
    cluster: ClusterSpec, oversubscription: float = 1.0
) -> FabricInventory:
    """Closed-form fat-tree bill of materials for the Fig. 7 sweeps."""
    return _fattree_bill_of_materials(
        cluster.num_gpus * cluster.nic_port_config.num_ports,
        cluster.electrical_switch.radix,
        oversubscription,
    )


def build_fat_tree_fabric(
    cluster: ClusterSpec, oversubscription: float = 1.0
) -> FatTreeFabric:
    """Build the fat-tree topology graph for ``cluster``.

    The graph aggregates parallel uplinks between a pair of switches into a
    single fat link (bandwidth scaled accordingly) to keep the multigraph
    small; the inventory still counts individual fibers and transceivers.

    ``oversubscription`` divides the inter-switch (edge–aggregation and
    aggregation–core) bandwidth, modeling the classic cost-reduced Clos where
    the host tier keeps its line rate but the upper tiers are provisioned at
    ``1:oversubscription`` — with proportionally fewer uplink fibers and
    transceivers in the inventory.  The default 1.0 keeps full bisection.
    """
    if oversubscription < 1.0:
        raise TopologyError("oversubscription must be >= 1")
    uplink_scale = 1.0 / oversubscription
    radix = cluster.electrical_switch.radix
    port_bandwidth = cluster.nic_port_config.port_bandwidth
    switch_port_bw = cluster.electrical_switch.port_bandwidth
    ports_per_gpu = cluster.nic_port_config.num_ports
    num_endpoints = cluster.num_gpus * ports_per_gpu
    edge, agg, core, edge_agg_links, agg_core_links = _fattree_counts(
        num_endpoints, radix
    )

    topology = Topology(name=f"fat-tree[{cluster.num_gpus}]")
    add_scaleup_domains(topology, cluster)
    add_host_ports(topology, cluster)

    half = radix // 2
    for index in range(edge):
        topology.add_node(
            switch_node_name("edge", index), NodeKind.ELECTRICAL_SWITCH, tier="edge"
        )
    for index in range(agg):
        topology.add_node(
            switch_node_name("agg", index), NodeKind.ELECTRICAL_SWITCH, tier="agg"
        )
    for index in range(core):
        topology.add_node(
            switch_node_name("core", index), NodeKind.ELECTRICAL_SWITCH, tier="core"
        )

    # Hosts to edge switches, round-robin in half-radix blocks.
    endpoint = 0
    for gpu_id in range(cluster.num_gpus):
        for port in range(ports_per_gpu):
            edge_index = endpoint // half
            topology.add_bidirectional_link(
                nic_port_node_name(gpu_id, port),
                switch_node_name("edge", edge_index),
                bandwidth=port_bandwidth,
                latency=_switch_latency(),
                kind=LinkKind.ELECTRICAL,
            )
            endpoint += 1

    # Edge to aggregation: connect each edge switch to every agg switch in its
    # pod (or all agg switches when there is a single pod).
    pods = max(1, math.ceil(edge / half))
    aggs_per_pod = agg // pods if pods > 1 else agg
    for edge_index in range(edge):
        pod = edge_index // half if pods > 1 else 0
        pod_aggs = (
            range(pod * aggs_per_pod, (pod + 1) * aggs_per_pod)
            if pods > 1
            else range(agg)
        )
        pod_aggs = list(pod_aggs)
        if not pod_aggs:
            continue
        per_agg_fibers = max(1, half // len(pod_aggs))
        for agg_index in pod_aggs:
            topology.add_bidirectional_link(
                switch_node_name("edge", edge_index),
                switch_node_name("agg", agg_index),
                bandwidth=switch_port_bw * per_agg_fibers * uplink_scale,
                latency=_switch_latency(),
                kind=LinkKind.ELECTRICAL,
            )

    # Aggregation to core.
    if core:
        per_core_fibers = max(1, (agg * half) // (agg * core)) if core else 1
        for agg_index in range(agg):
            for core_index in range(core):
                topology.add_bidirectional_link(
                    switch_node_name("agg", agg_index),
                    switch_node_name("core", core_index),
                    bandwidth=switch_port_bw * per_core_fibers * uplink_scale,
                    latency=_switch_latency(),
                    kind=LinkKind.ELECTRICAL,
                )

    if _routes_are_direct(cluster, half):
        topology.closed_form = FatTreeRoutes(topology, cluster, half)
    inventory = _fattree_bill_of_materials(num_endpoints, radix, oversubscription)
    return FatTreeFabric(
        cluster=cluster,
        topology=topology,
        inventory=inventory,
        edge_switches=edge,
        aggregation_switches=agg,
        core_switches=core,
    )
