"""Flow-level network mode: analytic agreement, contention divergence, stalls.

These are the acceptance tests of the flow network mode:

* on the bundled contention-free scenario the flow and analytic modes agree
  within 2% (tier-1 equivalence check);
* on the bundled shared-uplink incast scenario the flow mode is strictly
  slower — cross-collective contention the analytic mode cannot see;
* at the executor level, two concurrent transfers sharing one uplink slow
  each other down in flow mode while the analytic mode prices them
  independently.
"""

import pytest

from repro.collectives.primitives import CollectiveOp, CollectiveType
from repro.experiments.backends import create_network
from repro.experiments.contention import (
    compare_network_modes,
    contention_free_scenario,
    mini_fat_tree_cluster,
    shared_uplink_incast_scenario,
)
from repro.errors import ConfigurationError
from repro.parallelism.config import ParallelismConfig
from repro.parallelism.dag import IterationDAG
from repro.parallelism.mesh import DeviceMesh
from repro.simulator.executor import DAGExecutor
from repro.simulator.flow_network import FlowNetworkModel


# --------------------------------------------------------------------------- #
# Acceptance: bundled scenarios
# --------------------------------------------------------------------------- #


def test_flow_mode_matches_analytic_on_contention_free_scenario():
    comparison = compare_network_modes(contention_free_scenario())
    assert comparison.analytic_time > 0
    assert comparison.slowdown == pytest.approx(1.0, rel=0.02)


def test_flow_mode_is_strictly_slower_on_shared_uplink_incast():
    comparison = compare_network_modes(shared_uplink_incast_scenario())
    assert comparison.slowdown > 1.05, (
        "the flow mode must expose the shared-uplink contention the analytic "
        f"mode prices away, got slowdown {comparison.slowdown:.4f}"
    )


def test_incast_divergence_grows_with_oversubscription():
    mild = compare_network_modes(shared_uplink_incast_scenario(oversubscription=1.0))
    harsh = compare_network_modes(shared_uplink_incast_scenario(oversubscription=4.0))
    assert harsh.slowdown > mild.slowdown > 1.0


# --------------------------------------------------------------------------- #
# Executor-level contention micro-test
# --------------------------------------------------------------------------- #


def _send_recv_dag(workload, mesh, pairs, size_bytes):
    dag = IterationDAG(workload, mesh)
    for index, (src, dst) in enumerate(pairs):
        dag.add_comm(
            CollectiveOp(
                collective=CollectiveType.SEND_RECV,
                group=(src, dst),
                size_bytes=size_bytes,
                parallelism="pp",
                tag=f"xfer{index}",
            )
        )
    return dag


@pytest.fixture()
def mini_cluster_and_mesh():
    cluster = mini_fat_tree_cluster(num_nodes=4)
    mesh = DeviceMesh(ParallelismConfig(tp=4, dp=4), cluster)
    return cluster, mesh


def _comm_duration(trace):
    record = max(trace.iterations[0].comm_records, key=lambda r: r.end)
    return record.end - record.start


def test_concurrent_transfers_contend_in_flow_mode_only(
    tiny_workload, mini_cluster_and_mesh
):
    cluster, mesh = mini_cluster_and_mesh
    size = 64e6
    # Ranks 0 and 1 sit on the first edge switch; their transfers to nodes 1
    # and 2 both climb the same oversubscribed edge->aggregation uplink.
    alone = [(0, 4)]
    both = [(0, 4), (1, 5)]
    durations = {}
    for mode in ("analytic", "flow"):
        for label, pairs in (("alone", alone), ("both", both)):
            dag = _send_recv_dag(tiny_workload, mesh, pairs, size)
            network = create_network(
                "fattree", cluster, mesh, network_mode=mode, oversubscription=4.0
            )
            trace = DAGExecutor(dag, cluster, network).run_training(1)
            durations[(mode, label)] = _comm_duration(trace)

    # The analytic mode prices each transfer independently of its neighbors.
    assert durations[("analytic", "both")] == pytest.approx(
        durations[("analytic", "alone")]
    )
    # The flow mode shares the uplink: two concurrent transfers each get half
    # the capacity, so the last one takes about twice as long.
    assert durations[("flow", "both")] == pytest.approx(
        2.0 * durations[("flow", "alone")], rel=0.05
    )


def test_flow_mode_agrees_with_analytic_for_a_lone_routed_transfer(
    tiny_workload, mini_cluster_and_mesh
):
    cluster, mesh = mini_cluster_and_mesh
    durations = {}
    for mode in ("analytic", "flow"):
        dag = _send_recv_dag(tiny_workload, mesh, [(0, 4)], 64e6)
        network = create_network("fattree", cluster, mesh, network_mode=mode)
        trace = DAGExecutor(dag, cluster, network).run_training(1)
        durations[mode] = _comm_duration(trace)
    assert durations["flow"] == pytest.approx(durations["analytic"], rel=0.02)


# --------------------------------------------------------------------------- #
# Electrical flow topology routing
# --------------------------------------------------------------------------- #


def test_electrical_flow_topology_routes_never_transit_a_gpu(tiny_cluster):
    from repro.topology.base import NodeKind, gpu_node_name
    from repro.topology.electrical import build_fully_connected_rail_topology

    topology = build_fully_connected_rail_topology(tiny_cluster)
    for src in range(tiny_cluster.num_gpus):
        for dst in range(tiny_cluster.num_gpus):
            if src == dst:
                continue
            path = topology.shortest_path(gpu_node_name(src), gpu_node_name(dst))
            transit_nodes = [link.dst for link in path[:-1]]
            # A min-hop route must never shortcut through another GPU's NIC
            # and NVLink: that would charge a bystander's injection capacity.
            assert not any(
                topology.node(name).kind == NodeKind.GPU for name in transit_nodes
            ), (src, dst, transit_nodes)
            if tiny_cluster.domain_of(src) != tiny_cluster.domain_of(dst):
                # Fabric paths carry the analytic model's 2 microsecond latency.
                assert topology.path_latency(path) == pytest.approx(2e-6)


# --------------------------------------------------------------------------- #
# Backend knob plumbing
# --------------------------------------------------------------------------- #


def test_flow_model_is_reusable_across_training_runs(
    tiny_workload, mini_cluster_and_mesh
):
    cluster, mesh = mini_cluster_and_mesh
    dag = _send_recv_dag(tiny_workload, mesh, [(0, 4)], 64e6)
    network = create_network("fattree", cluster, mesh, network_mode="flow")
    executor = DAGExecutor(dag, cluster, network)
    first = executor.run_training(2)
    # A second run restarts simulated time at 0; the model must rewind its
    # clock instead of rejecting the injection, exactly like analytic models.
    second = executor.run_training(2)
    assert [i.end for i in second.iterations] == [i.end for i in first.iterations]


def test_network_mode_knob_selects_the_flow_model(tiny_workload, tiny_cluster):
    mesh = DeviceMesh(tiny_workload.parallelism, tiny_cluster)
    for backend in ("electrical", "fattree", "railopt"):
        analytic = create_network(backend, tiny_cluster, mesh)
        flow = create_network(backend, tiny_cluster, mesh, network_mode="flow")
        assert not isinstance(analytic, FlowNetworkModel)
        assert isinstance(flow, FlowNetworkModel)


def test_invalid_network_mode_is_rejected(tiny_workload, tiny_cluster):
    mesh = DeviceMesh(tiny_workload.parallelism, tiny_cluster)
    with pytest.raises(ConfigurationError):
        create_network("electrical", tiny_cluster, mesh, network_mode="quantum")
    with pytest.raises(ConfigurationError):
        create_network(
            "electrical",
            tiny_cluster,
            mesh,
            network_mode="flow",
            use_tree_collectives=True,
        )
