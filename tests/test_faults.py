"""Fault injection: plans, topology primitives, flow reaction, end-to-end.

Covers the fault subsystem layer by layer:

* :class:`FaultPlan` / :class:`FaultEvent` — validation, JSON round trips,
  knob coercion;
* :class:`Topology` — fail / degrade / restore semantics and version bumps;
* :class:`FlowSimulator` — mid-flight re-rating on degradation, the typed
  :class:`LinkFailedError` with the fail / re-route policy, restore;
* the Opus control plane — failed OCS ports are permanently conflicting and
  circuits route around them;
* end-to-end — the ``faults=`` backend knob, capability validation, the
  fault-free-plan bitwise-equivalence guarantee, OCS port failures through
  the photonic backend in both network modes, compute slowdowns, trace
  records, and the degraded-fabric scenario family's severity ordering
  (healthy < degraded < failed on all three fabrics).
"""

import json
from dataclasses import replace

import pytest

from repro.errors import (
    CircuitError,
    ConfigurationError,
    ControlPlaneError,
    FaultError,
    LinkFailedError,
)
from repro.experiments.contention import (
    DEGRADED_BACKENDS,
    degraded_fabric_scenario,
)
from repro.experiments.runner import Scenario, run_scenario
from repro.parallelism.workloads import small_test_workload
from repro.simulator.faults import (
    FaultEvent,
    FaultInjector,
    FaultKind,
    FaultPlan,
    as_fault_plan,
)
from repro.simulator.flows import FlowSimulator
from repro.topology.base import LinkKind, NodeKind, Topology
from repro.topology.devices import perlmutter_testbed
from repro.topology.ocs import Circuit
from repro.topology.photonic import build_photonic_rail_fabric


# --------------------------------------------------------------------------- #
# FaultPlan / FaultEvent
# --------------------------------------------------------------------------- #


def test_fault_plan_json_round_trip(tmp_path):
    plan = FaultPlan(
        events=(
            FaultEvent(
                time=1.5,
                kind=FaultKind.LINK_DEGRADE,
                src="edge.*",
                dst="agg.*",
                fraction=0.5,
            ),
            FaultEvent(time=2.0, kind=FaultKind.LINK_FAIL, link_kind="host"),
            FaultEvent(time=3.0, kind=FaultKind.OCS_PORT_FAIL, rail=0, port=2),
            FaultEvent(
                time=4.0, kind=FaultKind.COMPUTE_SLOWDOWN, rank=3, factor=2.0
            ),
        ),
        on_link_fail="fail",
    )
    path = tmp_path / "faults.json"
    plan.to_file(path)
    assert FaultPlan.from_file(path) == plan
    assert FaultPlan.from_dict(json.loads(path.read_text())) == plan


def test_fault_event_validation():
    with pytest.raises(ConfigurationError):
        FaultEvent(time=-1.0, kind=FaultKind.LINK_FAIL, src="a")
    with pytest.raises(ConfigurationError):
        FaultEvent(time=0.0, kind=FaultKind.LINK_FAIL)  # no target
    with pytest.raises(ConfigurationError):
        FaultEvent(time=0.0, kind=FaultKind.LINK_DEGRADE, src="a", fraction=0.0)
    with pytest.raises(ConfigurationError):
        FaultEvent(time=0.0, kind=FaultKind.LINK_FAIL, src="a", fraction=0.5)
    with pytest.raises(ConfigurationError):
        FaultEvent(time=0.0, kind=FaultKind.OCS_PORT_FAIL, rail=0)  # no port
    with pytest.raises(ConfigurationError):
        FaultEvent(time=0.0, kind=FaultKind.COMPUTE_SLOWDOWN, factor=0.5)
    with pytest.raises(ConfigurationError):
        FaultEvent.from_dict({"time": 0.0, "kind": "link_fail", "oops": 1})
    with pytest.raises(ConfigurationError):
        FaultPlan(on_link_fail="explode")


def test_as_fault_plan_coercions():
    plan = as_fault_plan(
        [{"time": 0.0, "kind": "compute_slowdown", "factor": 2.0}]
    )
    assert plan.events[0].kind == FaultKind.COMPUTE_SLOWDOWN
    assert as_fault_plan(plan) is plan
    assert as_fault_plan(plan.to_dict()) == plan
    with pytest.raises(ConfigurationError):
        as_fault_plan("faults.json")


def test_require_supported_names_the_offenders():
    plan = as_fault_plan([{"time": 0.0, "kind": "link_fail", "src": "a"}])
    with pytest.raises(ConfigurationError, match="link_fail"):
        plan.require_supported({FaultKind.COMPUTE_SLOWDOWN}, context="test")


# --------------------------------------------------------------------------- #
# Topology primitives
# --------------------------------------------------------------------------- #


def _line_topology(bandwidths=(100.0, 100.0)):
    topology = Topology(name="line")
    names = [f"n{i}" for i in range(len(bandwidths) + 1)]
    for name in names:
        topology.add_node(name, NodeKind.GPU)
    links = [
        topology.add_link(
            names[i], names[i + 1], bandwidth=bw, latency=0.0,
            kind=LinkKind.ELECTRICAL,
        )
        for i, bw in enumerate(bandwidths)
    ]
    return topology, links


def test_fail_and_restore_link_round_trip():
    topology, (first, second) = _line_topology()
    version = topology.version
    failed = topology.fail_link(first.link_id)
    assert failed is first
    assert topology.version == version + 1
    assert not topology.has_link(first.link_id)
    assert topology.link_failed(first.link_id)
    assert topology.failed_links() == [first]
    with pytest.raises(Exception):
        topology.shortest_path("n0", "n1")
    restored = topology.restore_link(first.link_id)
    assert restored is first
    assert topology.has_link(first.link_id)
    assert not topology.link_failed(first.link_id)
    assert [link.link_id for link in topology.shortest_path("n0", "n1")] == [
        first.link_id
    ]


def test_degrade_link_composes_against_original_capacity():
    topology, (first, _second) = _line_topology()
    topology.degrade_link(first.link_id, 0.5)
    assert first.bandwidth == pytest.approx(50.0)
    assert topology.link_degradation(first.link_id) == pytest.approx(0.5)
    # A second degradation is relative to the original 100, not the 50.
    topology.degrade_link(first.link_id, 0.25)
    assert first.bandwidth == pytest.approx(25.0)
    assert topology.degraded_links() == [first]
    topology.degrade_link(first.link_id, 1.0)
    assert first.bandwidth == pytest.approx(100.0)
    assert topology.degraded_links() == []
    with pytest.raises(Exception):
        topology.degrade_link(first.link_id, 0.0)


def test_injector_matches_patterns_and_records():
    topology, (first, second) = _line_topology()
    plan = FaultPlan(
        events=(
            FaultEvent(
                time=1.0, kind=FaultKind.LINK_DEGRADE, src="n0", dst="n1",
                fraction=0.5,
            ),
            FaultEvent(time=2.0, kind=FaultKind.LINK_RESTORE, src="n0", dst="n1"),
        )
    )
    injector = FaultInjector(plan, topology=topology)
    injector.advance_to(0.5)
    assert injector.pending == 2
    injector.advance_to(1.0)
    assert first.bandwidth == pytest.approx(50.0)
    assert second.bandwidth == pytest.approx(100.0)
    injector.advance_to(10.0)
    assert first.bandwidth == pytest.approx(100.0)
    records = injector.pop_records()
    assert [record.kind for record in records] == ["link_degrade", "link_restore"]
    assert all(record.num_links == 1 for record in records)
    assert injector.pop_records() == []


def test_injector_rejects_matchless_events():
    topology, _links = _line_topology()
    plan = FaultPlan(
        events=(FaultEvent(time=0.0, kind=FaultKind.LINK_FAIL, src="nope"),)
    )
    injector = FaultInjector(plan, topology=topology)
    with pytest.raises(FaultError, match="matched no installed link"):
        injector.advance_to(0.0)


def test_restore_after_degrade_then_fail_does_not_crash():
    """A degraded link that later fails must not poison restore events.

    Regression: ``fail_link`` removes the link from the installed table but
    its degradation record survives; ``degraded_links()`` used to KeyError on
    it, aborting any later ``link_restore`` event (even one targeting a
    different link).  Restoring the link brings it back at its degraded
    capacity, and a matching restore event heals it fully.
    """
    topology, (first, second) = _line_topology()
    topology.degrade_link(first.link_id, 0.5)
    topology.fail_link(first.link_id)
    assert topology.link_degradation(first.link_id) == pytest.approx(0.5)
    # Restoring an unrelated degraded link must not trip over the failed one.
    topology.degrade_link(second.link_id, 0.5)
    plan = FaultPlan(
        events=(FaultEvent(time=1.0, kind=FaultKind.LINK_RESTORE, src="n1", dst="n2"),)
    )
    FaultInjector(plan, topology=topology).advance_to(1.0)
    assert second.bandwidth == pytest.approx(100.0)
    # A restore matching the failed+degraded link reinstalls it at full health.
    plan = FaultPlan(
        events=(FaultEvent(time=2.0, kind=FaultKind.LINK_RESTORE, src="n0", dst="n1"),)
    )
    FaultInjector(plan, topology=topology).advance_to(2.0)
    assert topology.has_link(first.link_id)
    assert first.bandwidth == pytest.approx(100.0)


def test_fault_plan_rejects_unknown_top_level_keys():
    with pytest.raises(ConfigurationError, match="on_linkfail"):
        FaultPlan.from_dict({"on_linkfail": "fail", "events": []})


def test_empty_plan_binds_no_injector():
    """faults=FaultPlan() must leave the model exactly as with no knob —
    no injector, no failure-policy flip, no rewind restriction."""
    from repro.experiments.backends import create_network
    from repro.parallelism.config import ParallelismConfig
    from repro.parallelism.mesh import DeviceMesh

    cluster = perlmutter_testbed(num_nodes=2)
    mesh = DeviceMesh(ParallelismConfig(tp=4, dp=2), cluster)
    model = create_network(
        "fattree", cluster, mesh, network_mode="flow", faults=FaultPlan()
    )
    assert model.fault_injector is None
    assert model.simulator.link_failure_policy == "fail"


def test_compute_factor_latest_event_wins():
    plan = FaultPlan(
        events=(
            FaultEvent(time=1.0, kind=FaultKind.COMPUTE_SLOWDOWN, factor=3.0),
            FaultEvent(
                time=2.0, kind=FaultKind.COMPUTE_SLOWDOWN, rank=1, factor=1.5
            ),
            FaultEvent(time=3.0, kind=FaultKind.COMPUTE_SLOWDOWN, factor=1.0),
        )
    )
    injector = FaultInjector(plan)
    assert injector.compute_factor((0, 1), 0.5) == 1.0
    assert injector.compute_factor((0, 1), 1.0) == 3.0
    # The later rank-1 event overrides the global slowdown for rank 1 only.
    assert injector.compute_factor((1,), 2.5) == 1.5
    assert injector.compute_factor((0,), 2.5) == 3.0
    # The t=3 global reset clears both.
    assert injector.compute_factor((0, 1), 3.5) == 1.0


# --------------------------------------------------------------------------- #
# FlowSimulator reaction
# --------------------------------------------------------------------------- #


def _sim_with_plan(topology, plan):
    sim = FlowSimulator(topology=topology)
    sim.link_failure_policy = plan.on_link_fail
    injector = FaultInjector(plan, topology=topology)
    injector.on_links_failed = sim.fail_links
    injector.on_links_changed = sim.apply_link_change
    injector.schedule_on(sim.engine)
    return sim, injector


def test_mid_flight_degradation_rerates_the_flow():
    topology, (first, _second) = _line_topology()
    plan = FaultPlan(
        events=(
            FaultEvent(
                time=5.0, kind=FaultKind.LINK_DEGRADE, src="n0", dst="n1",
                fraction=0.5,
            ),
        )
    )
    sim, _ = _sim_with_plan(topology, plan)
    flow = sim.add_flow((first,), 1000.0, start_time=0.0)
    sim.run()
    # 500 B drain in the first 5 s at 100 B/s; the rest at 50 B/s.
    assert flow.finish_time == pytest.approx(15.0)


def test_mid_flight_restore_rerates_back():
    topology, (first, _second) = _line_topology()
    plan = FaultPlan(
        events=(
            FaultEvent(
                time=5.0, kind=FaultKind.LINK_DEGRADE, src="n0", dst="n1",
                fraction=0.5,
            ),
            FaultEvent(time=10.0, kind=FaultKind.LINK_RESTORE, src="n0", dst="n1"),
        )
    )
    sim, _ = _sim_with_plan(topology, plan)
    flow = sim.add_flow((first,), 1000.0, start_time=0.0)
    sim.run()
    # 0-5 s: 500 B at 100; 5-10 s: 250 B at 50; remaining 250 B at 100.
    assert flow.finish_time == pytest.approx(12.5)


def _detour_topology(detour_bandwidth=50.0):
    """a->b direct plus an a->c->b detour at ``detour_bandwidth``."""
    topology = Topology(name="detour")
    for name in ("a", "b", "c"):
        topology.add_node(name, NodeKind.GPU)
    direct = topology.add_link(
        "a", "b", bandwidth=100.0, latency=0.0, kind=LinkKind.ELECTRICAL
    )
    topology.add_link(
        "a", "c", bandwidth=detour_bandwidth, latency=0.0, kind=LinkKind.ELECTRICAL
    )
    topology.add_link(
        "c", "b", bandwidth=detour_bandwidth, latency=0.0, kind=LinkKind.ELECTRICAL
    )
    return topology, direct


def test_mid_flight_failure_default_policy_raises_typed_error():
    topology, direct = _detour_topology()
    plan = FaultPlan(
        events=(FaultEvent(time=5.0, kind=FaultKind.LINK_FAIL, src="a", dst="b"),),
        on_link_fail="fail",
    )
    sim, _ = _sim_with_plan(topology, plan)
    flow = sim.add_flow((direct,), 1000.0, start_time=0.0)
    with pytest.raises(LinkFailedError) as excinfo:
        sim.run()
    assert excinfo.value.flow_id == flow.flow_id
    assert excinfo.value.link_key == direct.key


def test_mid_flight_failure_reroute_policy_moves_the_flow():
    topology, direct = _detour_topology(detour_bandwidth=50.0)
    plan = FaultPlan(
        events=(FaultEvent(time=5.0, kind=FaultKind.LINK_FAIL, src="a", dst="b"),),
    )
    sim, injector = _sim_with_plan(topology, plan)
    flow = sim.add_flow((direct,), 1000.0, start_time=0.0)
    sim.run()
    # 500 B drain before the failure; the detour carries the rest at 50 B/s.
    assert flow.finish_time == pytest.approx(15.0)
    assert [link.dst for link in flow.path] == ["c", "b"]
    assert [record.kind for record in injector.pop_records()] == ["link_fail"]


def test_mid_flight_failure_without_surviving_route_raises():
    topology, (first, _second) = _line_topology()
    plan = FaultPlan(
        events=(FaultEvent(time=5.0, kind=FaultKind.LINK_FAIL, src="n0", dst="n1"),),
    )
    sim, _ = _sim_with_plan(topology, plan)
    sim.add_flow((first,), 1000.0, start_time=0.0)
    with pytest.raises(LinkFailedError, match="no surviving route"):
        sim.run()


def test_pending_flow_over_failed_link_is_rerouted_or_rejected():
    # The flow starts after the failure: 1000 B over the 50 B/s detour.
    for policy, expectation in (("reroute", 2.0 + 1000.0 / 50.0), ("fail", None)):
        topology, direct = _detour_topology(detour_bandwidth=50.0)
        plan = FaultPlan(
            events=(
                FaultEvent(time=1.0, kind=FaultKind.LINK_FAIL, src="a", dst="b"),
            ),
            on_link_fail=policy,
        )
        sim, _ = _sim_with_plan(topology, plan)
        flow = sim.add_flow((direct,), 1000.0, start_time=2.0)
        if expectation is None:
            with pytest.raises(LinkFailedError):
                sim.run()
        else:
            sim.run()
            assert flow.finish_time == pytest.approx(expectation)


def test_failure_rerates_the_survivors_on_shared_links():
    # Two flows share the detour after the direct link dies: both at 25 B/s.
    topology, direct = _detour_topology(detour_bandwidth=50.0)
    hop_ac = topology.shortest_path("a", "c")
    hop_cb = topology.shortest_path("c", "b")
    detour = tuple(hop_ac + hop_cb)
    plan = FaultPlan(
        events=(FaultEvent(time=10.0, kind=FaultKind.LINK_FAIL, src="a", dst="b"),),
    )
    sim, _ = _sim_with_plan(topology, plan)
    bystander = sim.add_flow(detour, 1000.0, start_time=0.0)
    victim = sim.add_flow((direct,), 2000.0, start_time=0.0)
    sim.run()
    # Bystander alone on the detour until t=10 (500 B done), then shares it:
    # 25 B/s each for the remaining 500 B -> t=30.  The victim drained
    # 1000 B by t=10, then moves 1000 B at 25 B/s -> t=50 (alone after 30:
    # the last 500 B run at 50 B/s, so 30 + 10 = 40... computed: at t=30,
    # victim has 1000 - 25*20 = 500 B left, alone at 50 B/s -> t=40).
    assert bystander.finish_time == pytest.approx(30.0)
    assert victim.finish_time == pytest.approx(40.0)


# --------------------------------------------------------------------------- #
# OCS port failures through the control plane
# --------------------------------------------------------------------------- #


def test_ocs_fail_port_tears_and_blocks_installs():
    fabric = build_photonic_rail_fabric(perlmutter_testbed(num_nodes=4))
    rail = fabric.rail(0)
    link_ids = fabric.install(0, Circuit(0, 1))
    victim = fabric.fail_port(0, 0)
    assert victim == Circuit(0, 1)
    assert rail.port_owner.get(1) is None
    assert not any(fabric.topology.has_link(link_id) for link_id in link_ids)
    assert 0 in rail.failed_ports
    with pytest.raises(CircuitError, match="failed"):
        fabric.install(0, Circuit(0, 2))
    fabric.install(0, Circuit(1, 2))
    fabric.clear_rail(0)
    assert not rail.circuits
    assert 0 in rail.failed_ports  # hardware faults survive crossbar clears


def test_photonic_rail_routes_pairs_around_failed_ports():
    cluster = perlmutter_testbed(num_nodes=2)
    fabric = build_photonic_rail_fabric(cluster)
    rail = fabric.rail(0)
    # Domain 0's preferred (only cabled, single-port NIC) port is port 0.
    healthy = rail.pairwise_configuration([(0, 1)])
    assert healthy.circuits == frozenset({Circuit(0, 1)})
    # With 2-port NICs a failed preferred port falls back to the survivor.
    from dataclasses import replace

    cluster2 = replace(perlmutter_testbed(num_nodes=2), nic_ports_per_gpu=2)
    fabric2 = build_photonic_rail_fabric(cluster2)
    rail2 = fabric2.rail(0)
    fabric2.fail_port(0, 0)  # domain 0, nic 0
    rerouted = rail2.pairwise_configuration([(0, 1)])
    assert rerouted.circuits == frozenset({Circuit(1, 2)})
    assert rail2.healthy_nic_ports(0) == (1,)
    # A ring needs two healthy ports per member: domain 0 has only one left.
    with pytest.raises(CircuitError, match="two healthy NIC ports"):
        rail2.healthy_port_pair(0, (0, 1))


def test_controller_fail_port_tears_topology_links_and_guards_ensure():
    from repro.core.controller import OpusController

    cluster = perlmutter_testbed(num_nodes=2)
    fabric = build_photonic_rail_fabric(cluster)
    controller = OpusController(fabric, reconfiguration_delay=1e-3)
    rail = fabric.rail(0)
    target = rail.pairwise_configuration([(0, 1)])
    group = frozenset({0})

    ready, record = controller.ensure(0, target, 0.0, group, "dp")
    assert record is not None
    (circuit,) = target.circuits
    link_ids = fabric.circuit_links(0, circuit)
    assert all(fabric.topology.has_link(link_id) for link_id in link_ids)

    victim = controller.fail_port(0, circuit.port_a)
    assert victim == circuit
    assert circuit not in fabric.rail(0).circuits
    assert circuit not in controller.rail_state(0).usable_at
    assert all(not fabric.topology.has_link(link_id) for link_id in link_ids)
    # Re-ensuring the stale configuration hits the failed port loudly.
    with pytest.raises(FaultError, match="has failed"):
        controller.ensure(0, target, 1.0, group, "dp")


def test_planner_routes_around_failed_ports():
    from dataclasses import replace

    from repro.core.circuits import CircuitPlanner
    from repro.parallelism.config import ParallelismConfig
    from repro.parallelism.mesh import DeviceMesh

    cluster = replace(perlmutter_testbed(num_nodes=2), nic_ports_per_gpu=2)
    fabric = build_photonic_rail_fabric(cluster)
    mesh = DeviceMesh(ParallelismConfig(tp=4, dp=2), cluster)
    planner = CircuitPlanner(fabric, mesh)
    healthy = planner.configuration_for_group((0, 4))[0]
    assert healthy.circuits == frozenset({Circuit(0, 2)})

    fabric.fail_port(0, 0)
    planner.clear_cache()
    rerouted = planner.configuration_for_group((0, 4))[0]
    assert rerouted.circuits == frozenset({Circuit(1, 2)})

    fabric.fail_port(0, 1)
    planner.clear_cache()
    with pytest.raises(ControlPlaneError, match="failed OCS ports"):
        planner.configuration_for_group((0, 4))


def test_planner_target_memo_drops_on_clear_cache_after_a_port_failure():
    """A memoized coalesced target must not outlive an OCS port failure."""
    from dataclasses import replace

    from repro.collectives.primitives import CollectiveOp, CollectiveType
    from repro.core.circuits import CircuitPlanner
    from repro.parallelism.config import ParallelismConfig
    from repro.parallelism.mesh import DeviceMesh

    cluster = replace(perlmutter_testbed(num_nodes=2), nic_ports_per_gpu=2)
    fabric = build_photonic_rail_fabric(cluster)
    mesh = DeviceMesh(ParallelismConfig(tp=4, dp=2), cluster)
    planner = CircuitPlanner(fabric, mesh)
    op = CollectiveOp(
        collective=CollectiveType.ALL_REDUCE,
        group=(0, 4),
        size_bytes=1e6,
        parallelism="dp",
    )
    target = planner.target_for_op(op)
    assert planner.target_for_op(op) is target
    assert target[0].circuits == frozenset({Circuit(0, 2)})

    fabric.fail_port(0, 0)
    planner.clear_cache()
    rerouted = planner.target_for_op(op)
    assert rerouted is not target
    assert rerouted[0].circuits == frozenset({Circuit(1, 2)})


# --------------------------------------------------------------------------- #
# End-to-end: knob, capabilities, equivalence, ordering
# --------------------------------------------------------------------------- #


def _tiny_scenario(backend, knobs, num_iterations=2):
    return Scenario(
        workload=small_test_workload(pp=1, dp=2, tp=4),
        cluster=perlmutter_testbed(num_nodes=2),
        backend=backend,
        knobs=knobs,
        num_iterations=num_iterations,
        name=f"faults-{backend}",
    )


def test_backend_capability_validation():
    link_fault = as_fault_plan([{"time": 0.0, "kind": "link_fail", "src": "x"}])
    with pytest.raises(ConfigurationError, match="does not support fault kinds"):
        run_scenario(_tiny_scenario("electrical", {"faults": link_fault}))
    port_fault = as_fault_plan(
        [{"time": 0.0, "kind": "ocs_port_fail", "rail": 0, "port": 0}]
    )
    with pytest.raises(ConfigurationError, match="does not support fault kinds"):
        run_scenario(_tiny_scenario("fattree", {"faults": port_fault}))


@pytest.mark.parametrize(
    "backend,knobs",
    [
        ("electrical", {"network_mode": "analytic"}),
        ("fattree", {"network_mode": "flow"}),
        ("photonic", {"network_mode": "analytic"}),
        ("photonic", {"network_mode": "flow"}),
        ("ocs", {"network_mode": "analytic"}),
        ("ocs", {"network_mode": "flow"}),
    ],
)
def test_fault_free_plan_is_bit_for_bit_identical(backend, knobs):
    baseline = run_scenario(_tiny_scenario(backend, dict(knobs)))
    empty = run_scenario(
        _tiny_scenario(backend, {**knobs, "faults": FaultPlan()})
    )
    assert empty.iteration_times == baseline.iteration_times
    assert empty.metrics == baseline.metrics


@pytest.mark.parametrize("mode", ["analytic", "flow"])
def test_ocs_port_failure_runs_end_to_end_through_the_photonic_backend(mode):
    # A port dies mid-run on rail 0: with a spare NIC port per GPU the
    # planner re-routes the rail's circuits through it, which costs one
    # extra switching event; with a single port per GPU the domain is cut
    # off and the run stops with the typed control-plane error.
    port_fault = as_fault_plan(
        [{"time": 1e-3, "kind": "ocs_port_fail", "rail": 0, "port": 0}]
    )

    def scenario(cluster, faults):
        knobs = {"network_mode": mode, **faults}
        return replace(_tiny_scenario("photonic", knobs), cluster=cluster)

    two_ports = replace(perlmutter_testbed(num_nodes=2), nic_ports_per_gpu=2)
    healthy = run_scenario(scenario(two_ports, {}))
    faulted = run_scenario(scenario(two_ports, {"faults": port_fault}))
    assert len(faulted.iteration_times) == 2
    assert sum(faulted.reconfigurations) > sum(healthy.reconfigurations)

    # The bare-OCS backend runs on the same control plane, so it stops with
    # the same typed error in both modes.
    single_port = perlmutter_testbed(num_nodes=2)
    for backend in ("photonic", "ocs"):
        with pytest.raises(ControlPlaneError, match="no healthy NIC port"):
            run_scenario(
                replace(
                    scenario(single_port, {"faults": port_fault}), backend=backend
                )
            )


def test_compute_slowdown_stretches_iterations_and_lands_in_trace():
    slow = as_fault_plan(
        [{"time": 0.0, "kind": "compute_slowdown", "factor": 2.0}]
    )
    baseline = run_scenario(_tiny_scenario("ideal", {}))
    slowed = run_scenario(_tiny_scenario("ideal", {"faults": slow}))
    assert (
        slowed.metrics["steady_iteration_time"]
        > 1.5 * baseline.metrics["steady_iteration_time"]
    )


def test_fault_records_reach_the_iteration_trace():
    from repro.experiments.backends import create_network
    from repro.parallelism.dag import build_iteration_dag
    from repro.simulator.executor import DAGExecutor

    scenario = degraded_fabric_scenario("fattree", "degraded")
    dag = build_iteration_dag(scenario.workload, scenario.cluster, scenario.per_layer_fsdp)
    network = create_network(
        scenario.backend, scenario.cluster, dag.mesh, **dict(scenario.knobs)
    )
    executor = DAGExecutor(dag, scenario.cluster, network)
    training = executor.run_training(2)
    first, second = training.iterations
    assert [record.kind for record in first.fault_records] == ["link_degrade"]
    assert first.fault_records[0].num_links > 0
    assert second.fault_records == []
    # Round trip through the JSON schema.
    from repro.parallelism.trace import IterationTrace

    rebuilt = IterationTrace.from_dict(first.to_dict())
    assert rebuilt.fault_records == first.fault_records
    assert rebuilt.num_faults() == 1


def test_mid_run_fault_slows_only_later_iterations():
    # Strike after iteration 1 finishes: iteration 1 matches the healthy
    # run, later iterations pay for the degraded fabric.
    healthy = run_scenario(
        _tiny_scenario("fattree", {"network_mode": "flow"}, num_iterations=3)
    )
    strike_at = healthy.iteration_times[0] + healthy.iteration_times[1] / 2
    plan = FaultPlan(
        events=(
            FaultEvent(
                time=strike_at,
                kind=FaultKind.LINK_DEGRADE,
                link_kind="electrical",
                fraction=0.25,
            ),
        )
    )
    faulted = run_scenario(
        _tiny_scenario(
            "fattree", {"network_mode": "flow", "faults": plan}, num_iterations=3
        )
    )
    assert faulted.iteration_times[0] == pytest.approx(
        healthy.iteration_times[0], rel=1e-12
    )
    assert faulted.iteration_times[1] > healthy.iteration_times[1]
    assert faulted.iteration_times[2] > healthy.iteration_times[2]


@pytest.mark.parametrize("backend", DEGRADED_BACKENDS)
def test_degraded_family_orders_severity(backend):
    times = {}
    for condition in ("healthy", "degraded", "failed"):
        result = run_scenario(degraded_fabric_scenario(backend, condition))
        times[condition] = result.metrics["steady_iteration_time"]
    assert times["healthy"] < times["degraded"] < times["failed"], times


def test_degraded_family_rejects_unknown_points():
    with pytest.raises(ConfigurationError):
        degraded_fabric_scenario("fattree", "melted")
    with pytest.raises(ConfigurationError):
        degraded_fabric_scenario("electrical", "degraded")


@pytest.mark.slow
def test_degraded_family_smoke_at_1k_endpoints():
    """1k-endpoint faulted smoke: the family survives and stays ordered."""
    times = {}
    for condition in ("healthy", "degraded", "failed"):
        scenario = degraded_fabric_scenario(
            "fattree", condition, num_nodes=250, num_iterations=1
        )
        times[condition] = run_scenario(scenario).metrics["mean_iteration_time"]
    assert times["healthy"] < times["degraded"] < times["failed"], times
