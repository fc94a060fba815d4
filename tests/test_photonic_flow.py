"""Circuit-switched flow mode: photonic/OCS fabrics in the flow simulator.

Acceptance tests of the circuit-switched flow mode:

* the bundled provisioned contention-free scenario agrees with the analytic
  photonic model within 5% (tier-1 equivalence check);
* the bundled circuit-thrash scenario (alternating DP/EP axes defeating
  coalescing) is strictly slower at flow level — reconfiguration stalls and
  circuit contention the analytic model underprices;
* ``repro-sim run --backend photonic --network-mode flow`` works end to end;

plus unit coverage of the machinery underneath: topology versioning, the
version-keyed route cache, circuit install/tear hooks, deferred path
resolution, and torn-circuit rejection.
"""

import json

import pytest

from repro.core.network import PhotonicFlowNetworkModel
from repro.errors import SimulationError
from repro.experiments.backends import create_network
from repro.experiments.cli import main
from repro.experiments.contention import (
    circuit_thrash_cluster,
    circuit_thrash_scenario,
    compare_network_modes,
    provisioned_photonic_scenario,
    tiny_moe_workload,
)
from repro.experiments.runner import Scenario, run_scenario
from repro.parallelism.config import ParallelismConfig
from repro.parallelism.mesh import DeviceMesh
from repro.parallelism.workloads import paper_trace_cluster, paper_trace_workload
from repro.simulator.flow_network import FlowNetworkModel
from repro.simulator.flows import FlowSimulator
from repro.topology.base import LinkKind, NodeKind, Topology
from repro.topology.devices import perlmutter_testbed
from repro.topology.photonic import RailEndpoint, build_photonic_rail_fabric


# --------------------------------------------------------------------------- #
# Acceptance: bundled scenarios
# --------------------------------------------------------------------------- #


def test_photonic_flow_matches_analytic_on_provisioned_scenario():
    comparison = compare_network_modes(provisioned_photonic_scenario())
    assert comparison.analytic_time > 0
    assert comparison.slowdown == pytest.approx(1.0, rel=0.05)


def test_circuit_thrash_flow_mode_is_strictly_slower():
    comparison = compare_network_modes(circuit_thrash_scenario())
    assert comparison.slowdown > 1.05, (
        "flow mode must expose the circuit contention and drain-coupled "
        "reconfiguration stalls the analytic model underprices, got slowdown "
        f"{comparison.slowdown:.4f}"
    )
    # The thrash is real: both modes keep reconfiguring in steady state
    # (the DP and EP configurations conflict on every rail).
    for result in (comparison.analytic, comparison.flow):
        assert all(count > 0 for count in result.reconfigurations[1:]), result


def test_cli_runs_photonic_flow_end_to_end(capsys):
    exit_code = main(
        [
            "run",
            "--backend",
            "photonic",
            "--network-mode",
            "flow",
            "--workload",
            "tiny",
            "--cluster",
            "perlmutter:2",
            "--iterations",
            "2",
        ]
    )
    assert exit_code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["knobs"]["network_mode"] == "flow"
    assert all(value > 0 for value in payload["iteration_times"])
    assert sum(payload["reconfigurations"]) > 0


def test_bare_ocs_flow_backend_reconfigures_on_demand(tiny_workload, tiny_cluster):
    from repro.experiments import ExperimentRunner, Scenario

    runner = ExperimentRunner(executor="serial")
    result = runner.run(
        Scenario(
            workload=tiny_workload,
            cluster=tiny_cluster,
            backend="ocs",
            knobs={"network_mode": "flow"},
            num_iterations=2,
            name="ocs-flow",
        )
    )
    assert all(value > 0 for value in result.iteration_times)
    # No profiling iteration on bare OCS: the cold-start switching events
    # land in iteration 0 and the same circuits serve iteration 1.
    assert result.reconfigurations[0] > 0


@pytest.mark.parametrize("delay", [1e-3, 15e-3])
@pytest.mark.parametrize(
    "workload,cluster",
    [
        (paper_trace_workload, paper_trace_cluster),
        (tiny_moe_workload, circuit_thrash_cluster),
    ],
    ids=["paper-trace", "tiny-moe"],
)
def test_bare_ocs_modes_perform_the_same_reconfigurations(workload, cluster, delay):
    # Both modes run the same control plane with provisioning off, so they
    # switch the same circuits; flow mode only adds contention on top.
    results = {
        mode: run_scenario(
            Scenario(
                workload=workload(),
                cluster=cluster(),
                backend="ocs",
                knobs={"reconfiguration_delay": delay, "network_mode": mode},
                num_iterations=3,
            )
        )
        for mode in ("analytic", "flow")
    }
    analytic, flow = results["analytic"], results["flow"]
    assert flow.reconfigurations == analytic.reconfigurations
    assert all(count > 0 for count in analytic.reconfigurations)
    assert flow.iteration_times[-1] >= analytic.iteration_times[-1]


def test_network_mode_knob_selects_the_photonic_flow_model(tiny_workload, tiny_cluster):
    mesh = DeviceMesh(tiny_workload.parallelism, tiny_cluster)
    for backend in ("photonic", "ocs"):
        analytic = create_network(backend, tiny_cluster, mesh)
        flow = create_network(backend, tiny_cluster, mesh, network_mode="flow")
        assert not isinstance(analytic, FlowNetworkModel)
        assert isinstance(flow, PhotonicFlowNetworkModel)


def test_photonic_flow_model_is_reusable_across_training_runs(
    tiny_workload, tiny_cluster
):
    from repro.parallelism.dag import build_iteration_dag
    from repro.simulator.executor import DAGExecutor

    dag = build_iteration_dag(tiny_workload, tiny_cluster)
    network = create_network("photonic", tiny_cluster, dag.mesh, network_mode="flow")
    executor = DAGExecutor(dag, tiny_cluster, network)
    first = executor.run_training(2)
    # A second run rewinds simulated time to 0: the model must reset the
    # control plane (circuits, profiles, clocks) and reproduce the first run.
    second = executor.run_training(2)
    assert [i.end for i in second.iterations] == [i.end for i in first.iterations]


def test_analytic_fallback_refuses_to_tear_live_circuits():
    from repro.collectives.primitives import CollectiveOp, CollectiveType
    from repro.parallelism.dag import OpKind, Operation

    cluster = perlmutter_testbed(num_nodes=4)
    mesh = DeviceMesh(ParallelismConfig(tp=4, dp=4), cluster)
    network = create_network("photonic", cluster, mesh, network_mode="flow")

    def _op(op_id, collective, group):
        return Operation(
            op_id=op_id,
            kind=OpKind.COMMUNICATION,
            ranks=group,
            deps=(),
            collective=CollectiveOp(
                collective=collective, group=group, size_bytes=1e6, parallelism="dp"
            ),
        )

    # An expanded collective holds the (domain 0, domain 1) circuit on rail 0
    # while its flows are on the wire...
    network.begin_comm(_op(0, CollectiveType.ALL_GATHER, (0, 4)), 0.0, lambda end: None)
    # ...so an analytically-priced scale-out collective needing the
    # conflicting (domain 0, domain 2) circuit cannot be served: timing()
    # answers synchronously and must not tear live circuits.
    with pytest.raises(SimulationError, match="conflict with live flows"):
        network.timing(_op(1, CollectiveType.BROADCAST, (0, 8)), 0.0)


# --------------------------------------------------------------------------- #
# Topology versioning and the route cache
# --------------------------------------------------------------------------- #


def test_topology_version_bumps_on_link_changes():
    topology = Topology(name="versioned")
    topology.add_node("a", NodeKind.GPU)
    topology.add_node("b", NodeKind.GPU)
    before = topology.version
    link = topology.add_link("a", "b", bandwidth=1e9, latency=0.0, kind=LinkKind.HOST)
    assert topology.version == before + 1
    assert topology.has_link(link.link_id)
    topology.remove_link(link.link_id)
    assert topology.version == before + 2
    assert not topology.has_link(link.link_id)


def test_path_cache_invalidates_on_topology_version_bump(tiny_cluster):
    mesh = DeviceMesh(ParallelismConfig(tp=4, dp=2), tiny_cluster)
    network = create_network("photonic", tiny_cluster, mesh, network_mode="flow")
    fabric = network.fabric
    (circuit,) = fabric.rail(0).pairwise_configuration([(0, 1)]).circuits
    fabric.install(0, circuit)
    searches = []
    search = fabric.topology.shortest_path
    fabric.topology.shortest_path = lambda src, dst: searches.append((src, dst)) or search(
        src, dst
    )
    path = network.path_between(0, 4)
    assert any(link.kind == LinkKind.OPTICAL_CIRCUIT for link in path)
    assert network.path_between(0, 4) == path
    assert searches == []  # read from the rail's circuit ledger
    fabric.clear_rail(0)
    with pytest.raises(SimulationError):
        network.path_between(0, 4)
    assert searches == [("gpu0", "gpu4")]  # no circuit: the search decides
    fabric.install(0, circuit)
    fresh = network.path_between(0, 4)
    assert fresh[1] is not path[1]
    assert all(fabric.topology.has_link(link.link_id) for link in fresh)
    assert len(searches) == 1


def test_circuit_change_listeners_fire_on_install_and_tear(tiny_cluster):
    from repro.errors import CircuitError

    fabric = build_photonic_rail_fabric(tiny_cluster)
    events = []
    fabric.add_circuit_listener(events.append)
    (circuit,) = fabric.rail(0).pairwise_configuration([(0, 1)]).circuits
    assert fabric.install(0, circuit) == events[0].link_ids
    assert fabric.circuit_links(0, circuit) == events[0].link_ids
    fabric.tear(0, circuit)
    assert [event.installed for event in events] == [True, False]
    assert events[0].rail == 0
    assert events[0].link_ids == events[1].link_ids
    assert not any(
        fabric.topology.has_link(link_id) for link_id in events[1].link_ids
    )
    with pytest.raises(CircuitError):
        fabric.circuit_links(0, circuit)
    with pytest.raises(CircuitError, match="not installed"):
        fabric.tear(0, circuit)


# --------------------------------------------------------------------------- #
# Flow simulator: deferred routes and torn circuits
# --------------------------------------------------------------------------- #


def _two_node_topology():
    topology = Topology(name="pair")
    topology.add_node("a", NodeKind.GPU)
    topology.add_node("b", NodeKind.GPU)
    link = topology.add_link(
        "a", "b", bandwidth=100.0, latency=0.0, kind=LinkKind.OPTICAL_CIRCUIT
    )
    return topology, link


def test_deferred_path_resolution_resolves_at_flow_start():
    topology, link = _two_node_topology()
    simulator = FlowSimulator(topology=topology)
    resolutions = []

    def resolver():
        resolutions.append(simulator.engine.now)
        return (link,)

    flow = simulator.add_flow(resolver, size_bytes=100.0, start_time=2.0)
    assert flow.path == ()  # not resolved at scheduling time
    assert resolutions == []
    end = simulator.run()
    assert resolutions == [2.0]
    assert flow.path == (link,)
    assert end == pytest.approx(3.0)  # 100 B at 100 B/s from t=2


def test_flows_over_torn_links_raise_a_clear_error():
    topology, link = _two_node_topology()
    simulator = FlowSimulator(topology=topology)
    simulator.add_flow((link,), size_bytes=100.0, start_time=0.0)
    topology.remove_link(link.link_id)
    with pytest.raises(SimulationError, match="torn-down link"):
        simulator.run()


def test_deferred_flows_see_circuits_installed_after_scheduling(tiny_cluster):
    fabric = build_photonic_rail_fabric(tiny_cluster)
    simulator = FlowSimulator(topology=fabric.topology)
    rail = fabric.rail(0)

    def resolver():
        return fabric.topology.shortest_path("gpu0.nic0", "gpu4.nic0")

    flow = simulator.add_flow(resolver, size_bytes=1e6, start_time=1.0)
    # The circuit is installed between scheduling and flow start — exactly
    # what a switching event completing before the launch looks like.
    fabric.install(
        0, rail.circuit_between(RailEndpoint(0, 0), RailEndpoint(1, 0))
    )
    simulator.run()
    assert flow.finish_time is not None
    assert any(link.kind == LinkKind.OPTICAL_CIRCUIT for link in flow.path)


# --------------------------------------------------------------------------- #
# Reconfiguration records flow into the trace
# --------------------------------------------------------------------------- #


def test_flow_mode_reconfigurations_land_in_the_trace():
    from repro.experiments import ExperimentRunner

    runner = ExperimentRunner(executor="serial")
    scenario = provisioned_photonic_scenario(num_iterations=2)
    result = runner.run(scenario.with_knobs(network_mode="flow"))
    # Profiling iteration installs the DP circuits (one event per rail used);
    # the steady iteration reuses them.
    assert result.reconfigurations[0] == 4
    assert result.reconfigurations[1] == 0
