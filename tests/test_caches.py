"""Cache coverage: route tables, collective-expansion memo, bulk flow batches.

The scaling work leans on three caches, each of which can silently corrupt a
simulation if it over-lives its inputs:

* the per-pair route table and per-schedule flow-item lists, keyed on the
  topology ``version`` (circuit fabrics mutate connectivity mid-run);
* the collective-expansion memo, keyed on ``(collective, group, size)`` so
  same-shape collectives share one schedule and different groups never
  collide;
* the allocator dispatch (python / numpy / component decomposition), which
  must agree with the reference progressive-filling algorithm bit-for-bit.
"""

import math
import random

import pytest

from repro.collectives.primitives import CollectiveOp, CollectiveType
from repro.collectives.schedule import (
    expand,
    expand_cached,
    expansion_cache_clear,
)
from repro.errors import SimulationError
from repro.parallelism.config import ParallelismConfig
from repro.parallelism.mesh import DeviceMesh
from repro.simulator.flow_network import FlowNetworkModel
from repro.simulator.flows import (
    FlowSimulator,
    _max_min_fair_rates_numpy,
    _max_min_fair_rates_python,
    max_min_fair_rates,
)
from repro.topology.base import Link, LinkKind, NodeKind, Topology, gpu_node_name
from repro.topology.photonic import build_photonic_rail_fabric


def _install_pair(fabric):
    """Install rail 0's circuit between scale-up domains 0 and 1."""
    (circuit,) = fabric.rail(0).pairwise_configuration([(0, 1)]).circuits
    fabric.install(0, circuit)


# --------------------------------------------------------------------------- #
# Route table
# --------------------------------------------------------------------------- #


def test_route_table_and_step_items_invalidate_on_version_bump(tiny_cluster):
    """Mutating a circuit mid-run must refresh routes *and* flow-item lists."""
    fabric = build_photonic_rail_fabric(tiny_cluster)
    mesh = DeviceMesh(ParallelismConfig(tp=4, dp=2), tiny_cluster)
    model = FlowNetworkModel(tiny_cluster, mesh, fabric.topology)

    _install_pair(fabric)
    op = CollectiveOp(
        collective=CollectiveType.SEND_RECV,
        group=(0, 4),
        size_bytes=1e6,
        parallelism="pp",
    )
    steps = expand(op)
    searches = _counted_searches(fabric.topology)
    items = model.step_items(steps)
    path = model.path_between(0, 4)
    assert any(link.kind == LinkKind.OPTICAL_CIRCUIT for link in path)
    # Same version: the step items come back as the same object, and the
    # route is read from the rail's circuit ledger, not searched.
    assert model.step_items(steps) is items
    assert _same_links(model.path_between(0, 4), path)
    assert searches == []

    # Tear the circuit down and install it again: the version advances, the
    # stale routes (which embed torn Link objects) must all be dropped.
    fabric.clear_rail(0)
    _install_pair(fabric)
    fresh_items = model.step_items(steps)
    fresh_path = model.path_between(0, 4)
    assert fresh_items is not items
    assert fresh_path[1] is not path[1]
    assert all(fabric.topology.has_link(link.link_id) for link in fresh_path)
    assert searches == []


def _fat_tree_model(tiny_cluster, routing_policy="single"):
    from repro.topology.fattree import build_fat_tree_fabric

    fabric = build_fat_tree_fabric(tiny_cluster)
    mesh = DeviceMesh(ParallelismConfig(tp=4, dp=2), tiny_cluster)
    return FlowNetworkModel(
        tiny_cluster, mesh, fabric.topology, routing_policy=routing_policy
    )


def _step_pairs(step):
    return tuple((transfer.src, transfer.dst) for transfer in step.transfers)


def test_eager_ring_steps_share_one_routes_bundle_per_step_content(tiny_cluster):
    """Identical ring steps share one bundle; every path is the BFS route."""
    model = _fat_tree_model(tiny_cluster)
    topology = model.topology
    op = CollectiveOp(
        collective=CollectiveType.ALL_REDUCE,
        group=(0, 4, 1, 5),
        size_bytes=1e6,
        parallelism="dp",
    )
    steps = expand(op)
    items = model.step_items(steps)
    assert len(items) == len(steps) > 1
    by_content = {}
    for step, item in zip(steps, items):
        by_content.setdefault(_step_pairs(step), set()).add(id(item.routes))
    # A ring step's pairs are the same every step: one bundle for them all.
    assert len(by_content) == 1
    assert all(len(bundles) == 1 for bundles in by_content.values())
    for step, item in zip(steps, items):
        for (src, dst), path in zip(_step_pairs(step), item.routes.paths):
            expected = topology.shortest_path(
                gpu_node_name(model.mesh.gpu_of(src)),
                gpu_node_name(model.mesh.gpu_of(dst)),
            )
            assert path == tuple(expected)
    # Steps of different content keep different bundles.
    alltoall = expand(
        CollectiveOp(
            collective=CollectiveType.ALL_TO_ALL,
            group=(0, 4, 1, 5),
            size_bytes=1e6,
            parallelism="ep",
        )
    )
    bundles = {id(item.routes) for item in model.step_items(alltoall)}
    assert len(bundles) == len({_step_pairs(step) for step in alltoall})


def _single_op(group=(0, 4)):
    return CollectiveOp(
        collective=CollectiveType.ALL_REDUCE,
        group=group,
        size_bytes=1e6,
        parallelism="dp",
    )


def test_one_version_bump_drops_every_route_memo_together(tiny_cluster):
    """After a bump, the first read of *any* memo drops all of them.

    Checked on a single-path eager model, a deferred model and an ECMP
    model: reading one pair path first must not use up the version change
    that the equal-cost, step and eager step-item memos also depend on.
    """
    fabric = build_photonic_rail_fabric(tiny_cluster)
    _install_pair(fabric)
    mesh = DeviceMesh(ParallelismConfig(tp=4, dp=2), tiny_cluster)
    deferred = FlowNetworkModel(tiny_cluster, mesh, fabric.topology)
    deferred.deferred_routes = True
    models = {
        "single": _fat_tree_model(tiny_cluster),
        "deferred": deferred,
        "ecmp": _fat_tree_model(tiny_cluster, routing_policy="ecmp"),
    }
    for kind, model in models.items():
        table = model.route_table
        steps = expand(_single_op())
        items = model.step_items(steps)
        path = model.path_between(0, 4)
        nodes = (gpu_node_name(mesh.gpu_of(0)), gpu_node_name(mesh.gpu_of(4)))
        sets = table.equal_cost(*nodes)
        routes = items[0].routes() if kind == "deferred" else items[0].routes
        assert model.step_items(steps) is items
        assert table.equal_cost(*nodes) is sets

        # Degrade one link of the route and heal it: the version moves.
        link = next(link for link in path if link.kind != LinkKind.OPTICAL_CIRCUIT)
        model.topology.degrade_link(link.link_id, 0.5)
        model.topology.degrade_link(link.link_id, 1.0)
        fresh_path = model.path_between(0, 4)  # the first read after the bump
        assert fresh_path is not path and fresh_path == path, kind
        assert table.equal_cost(*nodes) is not sets, kind
        fresh_items = model.step_items(steps)
        if kind == "deferred":
            # Deferred items hold no route, so they outlive the bump; the
            # routes they resolve to are fresh.
            assert fresh_items is items
            fresh_routes = fresh_items[0].routes()
        else:
            assert fresh_items is not items, kind
            fresh_routes = fresh_items[0].routes
        assert fresh_routes is not routes, kind
        assert fresh_routes.version == model.topology.version, kind


def test_analytic_ring_hop_without_a_route_names_both_ranks(tiny_cluster):
    from repro.simulator.fabric_network import TopologyNetworkModel
    from repro.topology.fattree import build_fat_tree_fabric

    fabric = build_fat_tree_fabric(tiny_cluster)
    mesh = DeviceMesh(ParallelismConfig(tp=4, dp=2), tiny_cluster)
    model = TopologyNetworkModel(tiny_cluster, mesh, fabric.topology)
    source = gpu_node_name(mesh.gpu_of(0))
    for link in fabric.topology.out_links(source):
        fabric.topology.fail_link(link.link_id)
    with pytest.raises(SimulationError, match=r"rank 0 to rank 4"):
        model.group_link_parameters((0, 4))


def test_forked_deferred_items_resolve_against_the_fork(tiny_cluster):
    """A fork's cached deferred items must resolve on the fork's topology.

    Tearing a circuit in the parent must not reach the child: a resolver
    that captured the parent (a closure) would either fail to pickle or
    resolve against the parent's torn fabric.
    """
    import pickle

    from repro.experiments.backends import create_network

    mesh = DeviceMesh(ParallelismConfig(tp=4, dp=2), tiny_cluster)
    parent = create_network("photonic", tiny_cluster, mesh, network_mode="flow")
    fabric = parent.fabric
    _install_pair(fabric)
    steps = expand(_single_op())
    items = parent.step_items(steps)
    circuit_ids = {
        link.link_id
        for link in items[0].routes().paths[0]
        if link.kind == LinkKind.OPTICAL_CIRCUIT
    }
    assert circuit_ids

    child, child_steps = pickle.loads(pickle.dumps((parent, steps)))
    child_items = child.step_items(child_steps)
    assert child.step_items(child_steps) is child_items  # the cached items
    fabric.clear_rail(0)  # tear the circuit in the parent only
    with pytest.raises(SimulationError):
        items[0].routes()

    routes = child_items[0].routes()
    assert routes.version == child.topology.version
    assert circuit_ids <= set(routes.flat)
    assert all(child.topology.has_link(link_id) for link_id in routes.flat)
    assert not any(parent.topology.has_link(link_id) for link_id in circuit_ids)


def _counted_searches(topology):
    """Record every graph search on ``topology`` from now on."""
    searches = []
    search = topology.shortest_path

    def counted(src, dst):
        searches.append((src, dst))
        return search(src, dst)

    topology.shortest_path = counted
    return searches


def _same_links(path, other):
    return len(path) == len(other) and all(a is b for a, b in zip(path, other))


def _mini_fat_tree_model():
    """A flow model on the 3-tier radix-4 fat tree of 16 two-port GPUs."""
    from repro.experiments.contention import degraded_fabric_cluster
    from repro.topology.fattree import build_fat_tree_fabric

    cluster = degraded_fabric_cluster(num_nodes=4)
    mesh = DeviceMesh(ParallelismConfig(tp=4, dp=4), cluster)
    return FlowNetworkModel(cluster, mesh, build_fat_tree_fabric(cluster).topology)


def test_fat_tree_routes_leave_the_closed_form_when_a_link_fails():
    """A failed link sends the table to the search, which avoids the link."""
    model = _mini_fat_tree_model()
    topology = model.topology
    searches = _counted_searches(topology)
    path = model.path_between(0, 4)
    assert searches == [] and model.route_table._paths == {}
    assert [link.src for link in path][2:5] == ["edge.sw0", "agg.sw0", "core.sw0"]

    uplink = path[2]
    topology.fail_link(uplink.link_id)
    rerouted = model.path_between(0, 4)
    assert searches == [("gpu0", "gpu4")]
    assert uplink.link_id not in {link.link_id for link in rerouted}
    assert all(topology.has_link(link.link_id) for link in rerouted)
    assert _same_links(rerouted, topology.shortest_path("gpu0", "gpu4"))
    # The single-path fault reroute reads the same table.
    assert model.simulator.route_policy("gpu0", "gpu4") is rerouted
    assert len(searches) == 2  # the direct comparison above, nothing more


def test_a_degrade_and_the_restore_after_it_keep_the_table_on_the_search():
    model = _mini_fat_tree_model()
    topology = model.topology
    healthy = topology.snapshot()
    path = model.path_between(0, 4)
    searches = _counted_searches(topology)

    topology.degrade_link(path[3].link_id, 0.5)
    assert _same_links(model.path_between(0, 4), path)
    topology.restore(healthy)
    assert topology.link_degradation(path[3].link_id) == 1.0
    assert _same_links(model.path_between(0, 4), path)
    assert searches == [("gpu0", "gpu4")] * 2


def test_forked_and_resumed_fat_tree_sessions_route_on_their_own_links(tmp_path):
    from dataclasses import replace

    from repro.experiments.contention import shared_uplink_incast_scenario
    from repro.experiments.session import SimulationSession

    base = shared_uplink_incast_scenario(num_iterations=2)
    scenario = replace(base, knobs={**base.knobs, "network_mode": "flow"})
    parent = SimulationSession.start(scenario)
    parent.run_to(1)
    path = parent.network.path_between(0, 4)  # the legs are filled before the copies
    parent.save(tmp_path / "ckpt.bin")

    for child in (parent.fork(), SimulationSession.load(tmp_path / "ckpt.bin")):
        topology = child.network.topology
        assert topology is not parent.network.topology
        assert topology.closed_form.topology is topology
        assert topology.closed_form.version == topology.version
        routed = child.network.path_between(0, 4)
        assert [link.link_id for link in routed] == [link.link_id for link in path]
        assert all(topology.link(link.link_id) is link for link in routed)
        child.run_to(2)


def test_searched_pair_and_equal_cost_memos_start_over_at_the_bound(
    tiny_cluster, monkeypatch
):
    from repro.simulator import routing

    monkeypatch.setattr(routing, "MEMO_BOUND", 2)
    table = _fat_tree_model(tiny_cluster).route_table
    for dst in ("gpu4", "gpu5", "gpu6"):
        table.node_path("gpu0", dst)
        table.equal_cost("gpu0", dst)
    assert list(table._paths) == [("gpu0", "gpu6")]
    assert list(table._sets) == [("gpu0", "gpu6")]


# --------------------------------------------------------------------------- #
# Collective-expansion memo
# --------------------------------------------------------------------------- #


def test_deferred_step_routes_resolve_once_per_step_content_and_version(
    tiny_cluster,
):
    """A deferred step resolves its routes at its start, once per distinct
    (src, dst) content and topology version — not once per flow."""
    fabric = build_photonic_rail_fabric(tiny_cluster)
    mesh = DeviceMesh(ParallelismConfig(tp=4, dp=2), tiny_cluster)
    model = FlowNetworkModel(tiny_cluster, mesh, fabric.topology)
    model.deferred_routes = True
    _install_pair(fabric)
    op = CollectiveOp(
        collective=CollectiveType.ALL_REDUCE,
        group=(0, 4),
        size_bytes=1e6,
        parallelism="dp",
    )
    items = model.step_items(expand(op))
    assert len(items) > 1
    lookups = []
    path_between = model.path_between

    def counted(src, dst):
        lookups.append((src, dst))
        return path_between(src, dst)

    model.path_between = counted
    routes = [step.routes() for step in items]
    # Every ring step carries the same (src, dst) pairs: one bundle, one
    # lookup per distinct pair.
    assert all(bundle is routes[0] for bundle in routes)
    assert sorted(lookups) == sorted(set(lookups))
    assert routes[0].version == fabric.topology.version

    fabric.clear_rail(0)
    _install_pair(fabric)
    fresh = items[0].routes()
    assert fresh is not routes[0]
    assert fresh.version == fabric.topology.version
    assert all(fabric.topology.has_link(link_id) for link_id in fresh.flat)


def _collective(collective, group, size, tag=""):
    return CollectiveOp(
        collective=collective,
        group=group,
        size_bytes=size,
        parallelism="dp",
        tag=tag,
    )


def test_expansion_cache_matches_uncached_and_is_shared():
    expansion_cache_clear()
    op = _collective(CollectiveType.ALL_REDUCE, (0, 1, 2, 3), 4096.0)
    cached = expand_cached(op)
    assert cached == expand(op)
    # A same-shape collective with a different tag / object identity shares
    # the schedule object outright.
    twin = _collective(CollectiveType.ALL_REDUCE, (0, 1, 2, 3), 4096.0, tag="other")
    assert expand_cached(twin) is cached


def test_expansion_cache_does_not_collide_across_groups_sizes_or_types():
    expansion_cache_clear()
    base = _collective(CollectiveType.ALL_GATHER, (0, 1, 2), 1024.0)
    other_group = _collective(CollectiveType.ALL_GATHER, (4, 5, 6), 1024.0)
    other_size = _collective(CollectiveType.ALL_GATHER, (0, 1, 2), 2048.0)
    other_type = _collective(CollectiveType.REDUCE_SCATTER, (0, 1, 2), 1024.0)
    schedules = [expand_cached(op) for op in (base, other_group, other_size, other_type)]
    assert len({id(schedule) for schedule in schedules}) == 4
    for op, schedule in zip((base, other_group, other_size, other_type), schedules):
        assert schedule == expand(op)


# --------------------------------------------------------------------------- #
# Allocator dispatch: python / numpy / decomposition agreement
# --------------------------------------------------------------------------- #


def _random_flows(rng, num_links, num_flows):
    from repro.simulator.flows import Flow

    links = [
        Link(
            src=f"n{i}",
            dst=f"n{i + 1}",
            bandwidth=rng.choice([10.0, 40.0, 100.0, 400.0]),
            latency=0.0,
            kind=LinkKind.ELECTRICAL,
            link_id=i,
        )
        for i in range(num_links)
    ]
    return [
        Flow(
            flow_id=i,
            path=tuple(rng.sample(links, rng.randint(1, min(4, num_links)))),
            size_bytes=1.0,
            start_time=0.0,
        )
        for i in range(num_flows)
    ]


def test_vectorized_allocator_agrees_with_python_on_large_random_networks():
    rng = random.Random(11)
    for _ in range(10):
        flows = _random_flows(rng, num_links=rng.randint(4, 40), num_flows=200)
        reference = _max_min_fair_rates_python(flows, None)
        vectorized = _max_min_fair_rates_numpy(flows, None)
        dispatched = max_min_fair_rates(flows)
        assert reference.keys() == vectorized.keys() == dispatched.keys()
        for flow_id in reference:
            assert vectorized[flow_id] == pytest.approx(reference[flow_id])
            assert dispatched[flow_id] == pytest.approx(reference[flow_id])


def test_component_decomposition_handles_disjoint_fan_workloads():
    # 8 independent single-link components with distinct fair shares: the
    # decomposed solve must equal the joint progressive filling.
    from repro.simulator.flows import Flow

    flows = []
    for component in range(8):
        link = Link(
            src=f"c{component}",
            dst=f"c{component}x",
            bandwidth=100.0 * (component + 1),
            latency=0.0,
            kind=LinkKind.ELECTRICAL,
            link_id=component,
        )
        for member in range(12):
            flows.append(
                Flow(
                    flow_id=component * 12 + member,
                    path=(link,),
                    size_bytes=1.0,
                    start_time=0.0,
                )
            )
    rates = max_min_fair_rates(flows)
    for component in range(8):
        expected = 100.0 * (component + 1) / 12
        for member in range(12):
            assert rates[component * 12 + member] == pytest.approx(expected)


# --------------------------------------------------------------------------- #
# Bulk flow batches (add_flows)
# --------------------------------------------------------------------------- #


def _link(link_id, bandwidth=100.0, latency=0.0):
    return Link(
        src=f"s{link_id}",
        dst=f"d{link_id}",
        bandwidth=bandwidth,
        latency=latency,
        kind=LinkKind.ELECTRICAL,
        link_id=link_id,
    )


def test_add_flows_fires_one_callback_with_the_last_finish_time():
    sim = FlowSimulator()
    ends = []
    sim.add_flows(
        [
            ((_link(0),), 1000.0),  # drains at t=10
            ((_link(1),), 500.0),  # drains at t=5
        ],
        start_time=0.0,
        on_complete=ends.append,
    )
    sim.run()
    assert ends == [pytest.approx(10.0)]


def test_add_flows_batch_members_share_links_fairly():
    sim = FlowSimulator()
    shared = _link(0)
    ends = []
    flows = sim.add_flows(
        [((shared,), 500.0), ((shared,), 500.0)],
        start_time=0.0,
        on_complete=ends.append,
    )
    sim.run()
    # Both flows split the 100 B/s link: 50 B/s each, done at t=10.
    assert ends == [pytest.approx(10.0)]
    assert all(flow.finish_time == pytest.approx(10.0) for flow in flows)


def test_add_flows_interacts_with_later_external_arrivals():
    # A solo batch's flow must still be visible to a flow arriving later on
    # the same link (the registry survives the batch fast paths).
    sim = FlowSimulator()
    shared = _link(0)
    batch = sim.add_flows([((shared,), 1000.0)], start_time=0.0, on_complete=lambda end: None)
    late = sim.add_flow((shared,), 500.0, start_time=5.0)
    sim.run()
    assert batch[0].finish_time == pytest.approx(15.0)
    assert late.finish_time == pytest.approx(15.0)


def test_repeated_identical_batches_replay_the_same_rates():
    # The self-contained batch memo (the shape memo) must serve, not
    # corrupt, repeated injections of the same (cached) routes — the
    # per-step pattern of a collective.
    sim = FlowSimulator()
    shared = _link(0, bandwidth=100.0)
    items = [((shared,), 300.0), ((shared,), 300.0)]
    ends = []
    sim.add_flows(items, start_time=0.0, on_complete=ends.append)
    sim.run()
    sim.add_flows(items, start_time=ends[0], on_complete=ends.append)
    sim.run()
    # Each batch: two flows at 50 B/s drain 300 B in 6 s.
    assert ends == [pytest.approx(6.0), pytest.approx(12.0)]


def test_negative_size_in_bulk_items_is_rejected():
    sim = FlowSimulator()
    with pytest.raises(SimulationError):
        sim.add_flows([((_link(0),), -1.0)], 0.0, on_complete=lambda end: None)


def test_zero_size_members_complete_without_stalling_the_group():
    sim = FlowSimulator()
    ends = []
    sim.add_flows(
        [((_link(0, latency=0.25),), 0.0), ((_link(1),), 100.0)],
        start_time=1.0,
        on_complete=ends.append,
    )
    sim.run()
    # Zero-size member contributes its latency-only finish (1.25); the real
    # transfer finishes at t=2; the group reports the max.
    assert ends == [pytest.approx(2.0)]


def test_infinite_component_rates_do_not_break_the_heap():
    # Empty-path member (infinite rate) inside a batch with a constrained
    # member: both complete, callback carries the constrained finish.
    sim = FlowSimulator()
    ends = []
    sim.add_flows(
        [((), 64.0), ((_link(0),), 100.0)], start_time=0.0, on_complete=ends.append
    )
    sim.run()
    assert ends == [pytest.approx(1.0)]


def test_allocator_rejects_nan_free_masked_infinities():
    # All-unconstrained flow sets (infinite capacity) must allocate inf
    # without emitting NaNs through the numpy path.
    from repro.simulator.flows import Flow

    flows = [
        Flow(flow_id=i, path=(), size_bytes=1.0, start_time=0.0) for i in range(64)
    ]
    rates = max_min_fair_rates(flows)
    assert all(math.isinf(rate) for rate in rates.values())


# --------------------------------------------------------------------------- #
# Cache invalidation under fault events
# --------------------------------------------------------------------------- #


def test_fault_events_invalidate_route_tables_and_group_parameters(tiny_cluster):
    """Degrading a link must drop routes, step items, and analytic params."""
    from repro.simulator.fabric_network import TopologyNetworkModel
    from repro.topology.fattree import build_fat_tree_fabric

    fabric = build_fat_tree_fabric(tiny_cluster)
    mesh = DeviceMesh(ParallelismConfig(tp=4, dp=2), tiny_cluster)
    analytic = TopologyNetworkModel(tiny_cluster, mesh, fabric.topology)
    flow_model = FlowNetworkModel(tiny_cluster, mesh, fabric.topology)

    group = (0, 4)
    healthy_params = analytic.group_link_parameters(group)
    assert analytic.group_link_parameters(group) is healthy_params  # cache hit

    op = CollectiveOp(
        collective=CollectiveType.SEND_RECV,
        group=group,
        size_bytes=1e6,
        parallelism="pp",
    )
    steps = expand(op)
    items = flow_model.step_items(steps)
    path = flow_model.path_between(0, 4)

    # A fault degrades every link of the route to half capacity.
    for link in path:
        fabric.topology.degrade_link(link.link_id, 0.5)

    degraded_params = analytic.group_link_parameters(group)
    assert degraded_params is not healthy_params
    assert degraded_params.bandwidth == pytest.approx(
        healthy_params.bandwidth * 0.5
    )
    assert flow_model.step_items(steps) is not items
    assert flow_model.path_between(0, 4) is not path


def test_shape_memo_and_bottlenecks_follow_a_link_change():
    """Re-injecting a cached item list after a degrade uses the new capacity.

    The shape memo keys self-contained batch allocations on the routes'
    link ids, and a batch's bottlenecks are read when it starts, so a
    capacity change must reach both — otherwise the same routes would reuse
    rates computed against the healthy fabric.
    """
    from repro.topology.base import NodeKind, Topology

    topology = Topology(name="memo")
    topology.add_node("a", NodeKind.GPU)
    topology.add_node("b", NodeKind.GPU)
    link = topology.add_link(
        "a", "b", bandwidth=100.0, latency=0.0, kind=LinkKind.ELECTRICAL
    )
    sim = FlowSimulator(topology=topology)
    shared_path = (link,)
    items = [(shared_path, 300.0), (shared_path, 300.0)]
    ends = []
    sim.add_flows(items, start_time=0.0, on_complete=ends.append)
    sim.run()
    assert ends == [pytest.approx(6.0)]  # two flows at 50 B/s each

    topology.degrade_link(link.link_id, 0.5)
    sim.apply_link_change([link.key])
    sim.add_flows(items, start_time=ends[0], on_complete=ends.append)
    sim.run()
    # Same item list object, half the capacity: 25 B/s each -> 12 s more.
    assert ends[1] == pytest.approx(18.0)

    # Solo fast path: one flow on the degraded link must run at 50, not 100.
    solo = sim.add_flow(shared_path, 500.0, start_time=ends[1])
    sim.run()
    assert solo.finish_time == pytest.approx(18.0 + 10.0)


def test_expansion_memo_is_topology_independent():
    """Collective expansions are rank-level; fault events must not perturb
    them (and therefore need not invalidate the memo)."""
    from repro.topology.base import NodeKind, Topology

    expansion_cache_clear()
    op = _collective(CollectiveType.ALL_REDUCE, (0, 1, 2, 3), 4096.0)
    before = expand_cached(op)
    topology = Topology(name="scratch")
    topology.add_node("a", NodeKind.GPU)
    topology.add_node("b", NodeKind.GPU)
    link = topology.add_link(
        "a", "b", bandwidth=100.0, latency=0.0, kind=LinkKind.ELECTRICAL
    )
    topology.degrade_link(link.link_id, 0.5)
    topology.fail_link(link.link_id)
    assert expand_cached(op) is before
