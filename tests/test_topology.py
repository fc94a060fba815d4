"""Topology construction tests: fat-tree port counts, rail-opt inventory, OCS."""

import random
from dataclasses import replace

import pytest

from repro.errors import CircuitConflictError, CircuitError, TopologyError
from repro.topology.base import (
    LinkKind,
    NodeKind,
    Topology,
    gpu_node_name,
    nic_port_node_name,
)
from repro.topology.devices import dgx_h200_cluster, perlmutter_testbed
from repro.topology.fattree import build_fat_tree_fabric, fat_tree_inventory
from repro.topology.ocs import Circuit, CircuitConfiguration
from repro.topology.photonic import build_photonic_rail_fabric
from repro.topology.railopt import build_rail_optimized_fabric, rail_optimized_inventory


# --------------------------------------------------------------------------- #
# Fat tree
# --------------------------------------------------------------------------- #


def test_fat_tree_every_nic_port_attaches_to_one_edge_switch():
    cluster = perlmutter_testbed(num_nodes=2)
    fabric = build_fat_tree_fabric(cluster)
    topology = fabric.topology
    ports_per_gpu = cluster.nic_port_config.num_ports
    for gpu in range(cluster.num_gpus):
        for port in range(ports_per_gpu):
            name = nic_port_node_name(gpu, port)
            edge_links = [
                link
                for link in topology.out_links(name)
                if topology.node(link.dst).kind == NodeKind.ELECTRICAL_SWITCH
            ]
            assert len(edge_links) == 1, f"{name} must uplink to exactly one edge"


def test_fat_tree_edge_switch_port_counts_respect_radix():
    cluster = dgx_h200_cluster(num_gpus=64)
    fabric = build_fat_tree_fabric(cluster)
    topology = fabric.topology
    radix = cluster.electrical_switch.radix
    switches = topology.nodes(NodeKind.ELECTRICAL_SWITCH)
    assert len(switches) == fabric.edge_switches + fabric.aggregation_switches + (
        fabric.core_switches
    )
    for switch in switches:
        # Each bidirectional neighbor pair is one physical port (possibly a
        # fat aggregate); the un-aggregated host-facing side is exact.
        down = [
            link
            for link in topology.in_links(switch.name)
            if topology.node(link.src).kind == NodeKind.NIC_PORT
        ]
        assert len(down) <= radix


def test_fat_tree_inventory_matches_graph_construction():
    cluster = perlmutter_testbed(num_nodes=4)
    inventory = fat_tree_inventory(cluster)
    fabric = build_fat_tree_fabric(cluster)
    assert fabric.inventory == inventory
    assert inventory.electrical_switches > 0
    assert inventory.ocs_ports == 0


def test_fat_tree_is_fully_connected_across_domains():
    cluster = perlmutter_testbed(num_nodes=2)
    topology = build_fat_tree_fabric(cluster).topology
    # GPU 0 (domain 0) must reach GPU 4 (domain 1) through the packet fabric.
    path = topology.shortest_path("gpu0", "gpu4")
    assert path, "expected a multi-hop path between domains"
    assert topology.path_bottleneck_bandwidth(path) > 0


# --------------------------------------------------------------------------- #
# Rail-optimized
# --------------------------------------------------------------------------- #


def test_rail_optimized_inventory_matches_graph_construction():
    cluster = perlmutter_testbed(num_nodes=4)
    fabric = build_rail_optimized_fabric(cluster)
    assert fabric.inventory == rail_optimized_inventory(cluster)
    # One leaf per rail suffices for 4 endpoints against a 64-radix switch.
    assert fabric.leaf_switches_per_rail == 1
    assert fabric.spine_switches >= 1


# --------------------------------------------------------------------------- #
# Deterministic routing and equal-cost path enumeration
# --------------------------------------------------------------------------- #


def _diamond(order):
    """A two-tier diamond (s -> m<i> -> t) built in the given middle order."""
    topo = Topology("diamond")
    topo.add_node("s", NodeKind.ELECTRICAL_SWITCH)
    topo.add_node("t", NodeKind.ELECTRICAL_SWITCH)
    for middle in order:
        topo.add_node(middle, NodeKind.ELECTRICAL_SWITCH)
    for middle in order:
        topo.add_link("s", middle, bandwidth=1.0, latency=0.0, kind=LinkKind.ELECTRICAL)
        topo.add_link(middle, "t", bandwidth=1.0, latency=0.0, kind=LinkKind.ELECTRICAL)
    return topo


def test_shortest_path_ties_break_by_name_not_insertion_order():
    middles = ["m1", "m2", "m10", "m3"]
    forward = _diamond(middles)
    shuffled = _diamond(list(reversed(middles)))
    forward_names = [link.dst for link in forward.shortest_path("s", "t")]
    shuffled_names = [link.dst for link in shuffled.shortest_path("s", "t")]
    assert forward_names == shuffled_names
    # Natural order: the digit run compares as an int, so m2 < m10.
    assert forward_names[0] == "m1"


def test_equal_cost_paths_enumerates_all_minimum_hop_paths():
    topo = _diamond(["m1", "m2", "m3"])
    paths = topo.equal_cost_paths("s", "t")
    assert len(paths) == 3
    assert [path[0].dst for path in paths] == ["m1", "m2", "m3"]
    hop_count = len(topo.shortest_path("s", "t"))
    assert all(len(path) == hop_count for path in paths)
    # The single-path route is the first entry of the equal-cost set.
    assert list(paths[0]) == topo.shortest_path("s", "t")


def test_equal_cost_paths_insertion_order_invariant():
    middles = ["m1", "m2", "m10", "m3"]
    forward = _diamond(middles)
    shuffled = _diamond(list(reversed(middles)))
    forward_mids = [[link.dst for link in path] for path in forward.equal_cost_paths("s", "t")]
    shuffled_mids = [[link.dst for link in path] for path in shuffled.equal_cost_paths("s", "t")]
    assert forward_mids == shuffled_mids
    assert [mids[0] for mids in forward_mids] == ["m1", "m2", "m3", "m10"]


def test_equal_cost_paths_respects_max_paths_and_self_and_missing():
    topo = _diamond(["m1", "m2", "m3"])
    truncated = topo.equal_cost_paths("s", "t", max_paths=2)
    assert len(truncated) == 2
    assert truncated == topo.equal_cost_paths("s", "t")[:2]
    assert topo.equal_cost_paths("s", "s") == [()]
    topo.add_node("island", NodeKind.ELECTRICAL_SWITCH)
    with pytest.raises(TopologyError):
        topo.equal_cost_paths("s", "island")


def test_equal_cost_paths_excludes_longer_detours():
    topo = _diamond(["m1", "m2"])
    # A 3-hop detour must not appear in the 2-hop equal-cost set.
    topo.add_node("d1", NodeKind.ELECTRICAL_SWITCH)
    topo.add_node("d2", NodeKind.ELECTRICAL_SWITCH)
    topo.add_link("s", "d1", bandwidth=1.0, latency=0.0, kind=LinkKind.ELECTRICAL)
    topo.add_link("d1", "d2", bandwidth=1.0, latency=0.0, kind=LinkKind.ELECTRICAL)
    topo.add_link("d2", "t", bandwidth=1.0, latency=0.0, kind=LinkKind.ELECTRICAL)
    paths = topo.equal_cost_paths("s", "t")
    assert len(paths) == 2
    assert all(len(path) == 2 for path in paths)


def test_fat_tree_has_multiple_equal_cost_cross_domain_paths():
    # The tiny radix-4 switch forces cross-node routes through the redundant
    # aggregation tier; the default 64-radix switch would collapse four nodes
    # onto one edge switch and leave a single path.
    from repro.experiments.contention import mini_fat_tree_cluster

    topology = build_fat_tree_fabric(mini_fat_tree_cluster(num_nodes=4)).topology
    paths = topology.equal_cost_paths("gpu0", "gpu4")
    assert len(paths) >= 2
    assert list(paths[0]) == topology.shortest_path("gpu0", "gpu4")
    signatures = {tuple(link.link_id for link in path) for path in paths}
    assert len(signatures) == len(paths), "equal-cost paths must be distinct"


# --------------------------------------------------------------------------- #
# Closed-form fat-tree routes
# --------------------------------------------------------------------------- #


def _fat_tree_shapes():
    """Every fat-tree cluster shape the suite builds, by name."""
    from repro.experiments.contention import degraded_fabric_cluster, scale_cluster

    shapes = {f"scale-{n}": scale_cluster(n) for n in (40, 120, 200, 520, 1000, 2000)}
    shapes.update(
        {f"degraded-{n}": degraded_fabric_cluster(n) for n in (2, 4, 16, 64)}
    )
    shapes.update(
        {
            f"perlmutter-{ports}port": replace(
                perlmutter_testbed(num_nodes=4), nic_ports_per_gpu=ports
            )
            for ports in (1, 2)
        }
    )
    return shapes


def _gpu_pairs(num_gpus, seed, limit=256, samples=2000):
    """All ordered GPU pairs up to ``limit`` GPUs, a seeded sample above."""
    if num_gpus <= limit:
        return [(a, b) for a in range(num_gpus) for b in range(num_gpus) if a != b]
    rng = random.Random(seed)
    return [tuple(rng.sample(range(num_gpus), 2)) for _ in range(samples)]


def _assert_closed_form_is_the_search(topology, pairs):
    closed = topology.closed_form
    assert closed is not None and closed.version == topology.version
    for src, dst in pairs:
        expected = topology.shortest_path(gpu_node_name(src), gpu_node_name(dst))
        got = closed.path(src, dst)
        assert len(got) == len(expected), (src, dst)
        assert all(a is b for a, b in zip(got, expected)), (src, dst)


@pytest.mark.parametrize("oversubscription", (1.0, 4.0))
@pytest.mark.parametrize("shape", sorted(_fat_tree_shapes()))
def test_closed_form_fat_tree_routes_are_the_searched_routes(shape, oversubscription):
    """Same ``Link`` objects in the same order as the graph search."""
    cluster = _fat_tree_shapes()[shape]
    topology = build_fat_tree_fabric(cluster, oversubscription=oversubscription).topology
    _assert_closed_form_is_the_search(topology, _gpu_pairs(cluster.num_gpus, seed=7))


def test_fat_tree_with_straddling_domains_carries_no_closed_form():
    """Where a domain mate's NIC can tie the direct route, the search decides.

    Radix-6 switches host three single-port GPUs each, so a 4-GPU domain
    shares an edge switch with the next one, and the search takes GPU 4 to
    GPU 0 through GPU 0's mate GPU 3 and their NVSwitch.
    """
    from repro.experiments.contention import MINI_SWITCH

    six = replace(MINI_SWITCH, radix=6)
    cluster = replace(perlmutter_testbed(num_nodes=4), electrical_switch=six)
    topology = build_fat_tree_fabric(cluster).topology
    assert topology.closed_form is None
    hops = [link.dst for link in topology.shortest_path("gpu4", "gpu0")]
    assert hops[-3:] == ["gpu3", "domain0.nvswitch", "gpu0"]


# --------------------------------------------------------------------------- #
# OCS circuits
# --------------------------------------------------------------------------- #


def test_circuit_normalizes_port_order():
    assert Circuit(7, 3) == Circuit(3, 7)
    assert Circuit(7, 3).ports == (3, 7)


def test_circuit_rejects_self_loops_and_negative_ports():
    with pytest.raises(CircuitError):
        Circuit(4, 4)
    with pytest.raises(CircuitError):
        Circuit(-1, 2)


def test_configuration_rejects_port_conflicts():
    with pytest.raises(CircuitConflictError):
        CircuitConfiguration((Circuit(0, 1), Circuit(1, 2))).validate()


def test_switch_apply_reports_delta_and_preserves_shared_circuits():
    from repro.core.controller import OpusController

    fabric = build_photonic_rail_fabric(perlmutter_testbed(num_nodes=8))
    controller = OpusController(fabric, reconfiguration_delay=1e-3)
    rail = fabric.rail(0)
    group = frozenset({0})
    first = CircuitConfiguration((Circuit(0, 1), Circuit(2, 3)))
    _, record = controller.ensure(0, first, 0.0, group, "dp")
    assert record.num_circuits_changed == 2
    shared_links = fabric.circuit_links(0, Circuit(0, 1))
    # Keep 0<->1, replace 2<->3 with 2<->4: one tear plus one install.
    second = CircuitConfiguration((Circuit(0, 1), Circuit(2, 4)))
    _, record = controller.ensure(0, second, 1.0, group, "dp")
    assert record.num_circuits_changed == 2
    assert set(rail.circuits) == {Circuit(0, 1), Circuit(2, 4)}
    # The shared circuit was left untouched: same topology links.
    assert fabric.circuit_links(0, Circuit(0, 1)) == shared_links
    assert controller.rail_state(0).reconfigurations == 2
    # A request the installed circuits already serve is not a reconfiguration.
    _, record = controller.ensure(0, second, 2.0, group, "dp")
    assert record is None
    assert controller.rail_state(0).reconfigurations == 2


def test_switch_rejects_ports_outside_radix():
    fabric = build_photonic_rail_fabric(perlmutter_testbed(num_nodes=2))
    radix = fabric.rail(0).technology.radix
    with pytest.raises(CircuitError, match="outside radix"):
        fabric.install(0, Circuit(0, radix))
    assert not fabric.rail(0).circuits


def test_switch_install_conflict_raises():
    fabric = build_photonic_rail_fabric(perlmutter_testbed(num_nodes=4))
    fabric.install(0, Circuit(0, 1))
    with pytest.raises(CircuitConflictError):
        fabric.install(0, Circuit(1, 2))
    assert set(fabric.rail(0).circuits) == {Circuit(0, 1)}
    assert fabric.rail(0).port_owner == {0: Circuit(0, 1), 1: Circuit(0, 1)}
