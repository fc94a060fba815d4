"""Electrical rail-optimized fabric builder (the paper's baseline).

A rail-optimized fabric (paper §2.1, Fig. 1, [51, 71]) groups the GPUs with the
same local rank across all scale-up domains into a *rail* and gives every rail
its own packet-switched network.  Each rail is built from electrical leaf
switches; when one leaf switch cannot host every domain of the rail, a spine
tier interconnects the leaves (and, in the classical DGX SuperPOD deployment,
also interconnects rails for cross-rank traffic).

The builder produces:

* one NIC-port node per GPU, attached to the GPU by a host link;
* per-rail leaf switches with down-links to the NIC ports of that rail;
* a spine tier with full-bisection up-links from every leaf (omitted when a
  single leaf suffices and ``always_spine`` is False);
* an inventory (:class:`FabricInventory`) of switches and transceivers used by
  the Fig. 7 cost/power models.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .base import (
    LinkKind,
    NodeKind,
    Topology,
    gpu_node_name,
    nic_port_node_name,
    switch_node_name,
)
from .devices import ClusterSpec
from .scaleup import add_scaleup_domains


@dataclass(frozen=True)
class FabricInventory:
    """Bill-of-materials of a fabric, consumed by the cost/power models.

    Attributes
    ----------
    electrical_switches:
        Number of electrical packet switches (all tiers).
    ocs_ports:
        Number of OCS ports in use (photonic fabrics only).
    transceivers:
        Number of pluggable optical transceivers (one per fiber end that
        terminates on an electrical device: host NIC ports and electrical
        switch ports; OCS ports are transparent and need none).
    links:
        Number of bidirectional fiber links.
    """

    electrical_switches: int = 0
    ocs_ports: int = 0
    transceivers: int = 0
    links: int = 0


def _host_latency() -> float:
    """Fixed host link latency (NIC + PCIe serialization), seconds."""
    return 1e-6


def _switch_latency() -> float:
    """Per-hop latency of an electrical packet switch, seconds."""
    return 1e-6


def add_host_ports(topology: Topology, cluster: ClusterSpec) -> None:
    """Add one node per logical NIC port of every GPU with host links."""
    port_config = cluster.nic_port_config
    for gpu_id in range(cluster.num_gpus):
        gpu_name = gpu_node_name(gpu_id)
        for port in range(port_config.num_ports):
            port_name = nic_port_node_name(gpu_id, port)
            topology.add_node(
                port_name,
                NodeKind.NIC_PORT,
                gpu_id=gpu_id,
                port=port,
                rail=cluster.rail_of(gpu_id),
            )
            topology.add_bidirectional_link(
                gpu_name,
                port_name,
                bandwidth=port_config.port_bandwidth,
                latency=_host_latency(),
                kind=LinkKind.HOST,
            )


@dataclass
class RailOptimizedFabric:
    """An electrical rail-optimized fabric: topology plus inventory."""

    cluster: ClusterSpec
    topology: Topology
    inventory: FabricInventory
    leaf_switches_per_rail: int
    spine_switches: int


def build_rail_optimized_fabric(
    cluster: ClusterSpec, always_spine: bool = True
) -> RailOptimizedFabric:
    """Build the electrical rail-optimized fabric for ``cluster``.

    Parameters
    ----------
    cluster:
        Hardware description.  The NIC port configuration determines how many
        scale-out ports each GPU contributes to its rail.
    always_spine:
        When True (default, matching the DGX SuperPOD reference design in
        Fig. 1) a spine tier is built even if each rail fits in one leaf
        switch, providing cross-rail connectivity.  Set to False to model the
        "rail-only" variant [71].
    """
    switch_spec = cluster.electrical_switch
    port_config = cluster.nic_port_config
    ports_per_gpu = port_config.num_ports
    endpoints_per_rail = cluster.num_domains * ports_per_gpu

    topology = Topology(name=f"rail-optimized[{cluster.num_gpus}]")
    add_scaleup_domains(topology, cluster)
    add_host_ports(topology, cluster)

    half_radix = switch_spec.radix // 2
    leaves_per_rail = max(1, math.ceil(endpoints_per_rail / half_radix))
    single_leaf_per_rail = leaves_per_rail == 1 and not always_spine

    # Leaf (rail) switches and down-links.
    for rail in range(cluster.num_rails):
        for leaf in range(leaves_per_rail):
            name = switch_node_name(f"rail{rail}.leaf", leaf)
            topology.add_node(
                name, NodeKind.ELECTRICAL_SWITCH, rail=rail, tier="leaf"
            )
        rail_gpus = cluster.gpus_on_rail(rail)
        for index, gpu_id in enumerate(rail_gpus):
            for port in range(ports_per_gpu):
                endpoint_index = index * ports_per_gpu + port
                leaf = endpoint_index % leaves_per_rail
                leaf_name = switch_node_name(f"rail{rail}.leaf", leaf)
                topology.add_bidirectional_link(
                    nic_port_node_name(gpu_id, port),
                    leaf_name,
                    bandwidth=port_config.port_bandwidth,
                    latency=_switch_latency(),
                    kind=LinkKind.ELECTRICAL,
                )

    # Spine tier: full bisection over all leaves of all rails.
    total_leaves = leaves_per_rail * cluster.num_rails
    num_uplinks_per_leaf = half_radix if not single_leaf_per_rail else 0
    total_uplinks = total_leaves * num_uplinks_per_leaf
    spine_switches = (
        0 if single_leaf_per_rail else max(1, math.ceil(total_uplinks / switch_spec.radix))
    )
    for spine in range(spine_switches):
        topology.add_node(
            switch_node_name("spine", spine), NodeKind.ELECTRICAL_SWITCH, tier="spine"
        )
    if spine_switches:
        uplink_bandwidth = switch_spec.port_bandwidth
        per_leaf_per_spine = max(1, num_uplinks_per_leaf // spine_switches)
        for rail in range(cluster.num_rails):
            for leaf in range(leaves_per_rail):
                leaf_name = switch_node_name(f"rail{rail}.leaf", leaf)
                for spine in range(spine_switches):
                    topology.add_bidirectional_link(
                        leaf_name,
                        switch_node_name("spine", spine),
                        bandwidth=uplink_bandwidth * per_leaf_per_spine,
                        latency=_switch_latency(),
                        kind=LinkKind.ELECTRICAL,
                    )

    # Inventory for the cost / power model.
    num_leaves = total_leaves
    host_links = cluster.num_gpus * ports_per_gpu
    # Each host link has a transceiver at the NIC end and at the switch end;
    # each inter-switch link has one at each end.
    leaf_spine_fibers = total_uplinks
    transceivers = 2 * host_links + 2 * leaf_spine_fibers
    inventory = FabricInventory(
        electrical_switches=num_leaves + spine_switches,
        ocs_ports=0,
        transceivers=transceivers,
        links=host_links + leaf_spine_fibers,
    )
    return RailOptimizedFabric(
        cluster=cluster,
        topology=topology,
        inventory=inventory,
        leaf_switches_per_rail=leaves_per_rail,
        spine_switches=spine_switches,
    )


def rail_optimized_inventory(cluster: ClusterSpec, always_spine: bool = True) -> FabricInventory:
    """Compute the rail-optimized inventory without materializing the graph.

    The closed-form counting mirrors :func:`build_rail_optimized_fabric` and is
    used by the Fig. 7 sweeps, where building multigraphs for 8192 GPUs at
    every sweep point would be wasteful.
    """
    switch_spec = cluster.electrical_switch
    ports_per_gpu = cluster.nic_port_config.num_ports
    endpoints_per_rail = cluster.num_domains * ports_per_gpu
    half_radix = switch_spec.radix // 2
    leaves_per_rail = max(1, math.ceil(endpoints_per_rail / half_radix))
    single_leaf_per_rail = leaves_per_rail == 1 and not always_spine
    total_leaves = leaves_per_rail * cluster.num_rails
    num_uplinks_per_leaf = 0 if single_leaf_per_rail else half_radix
    total_uplinks = total_leaves * num_uplinks_per_leaf
    spine_switches = (
        0 if single_leaf_per_rail else max(1, math.ceil(total_uplinks / switch_spec.radix))
    )
    host_links = cluster.num_gpus * ports_per_gpu
    transceivers = 2 * host_links + 2 * total_uplinks
    return FabricInventory(
        electrical_switches=total_leaves + spine_switches,
        ocs_ports=0,
        transceivers=transceivers,
        links=host_links + total_uplinks,
    )
