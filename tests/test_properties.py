"""Property-based differential harness: seeded random fabrics and flow mixes.

Each case builds a small random topology (a connected line plus random chords,
random per-link capacities) and a random mix of point-to-point transfers
routed over it, then asserts invariants that must hold for *any* such input:

* **flow >= analytic** — the flow-level completion of every transfer is never
  earlier than its analytic lower bound (size / path bottleneck + latency);
  max–min fair sharing can only slow a flow down, never speed it up;
* **equality when contention-free** — when the sampled paths are pairwise
  link-disjoint, the two models agree exactly;
* **capacity feasibility** — max–min fair allocations never oversubscribe any
  link, including on degraded capacity sets;
* **degradation monotonicity** — degrading a random subset of links never
  *decreases* the makespan of the same flow mix;
* **allocator agreement** — the numpy water-filling and the pure-Python
  progressive filling agree bit-for-bit, including on faulted (links removed)
  and degraded (capacities scaled) variants of the sharing graph;
* **solver independence** — a whole simulation gives bit-identical finish
  times whether shared components go through the numpy or the pure-Python
  water-filling.

Everything is seeded (25 cases per invariant in tier-1) so the suite is
deterministic — no flakes, no hypothesis dependency.
"""

import math
import random

import pytest

from repro.simulator.flows import (
    FlowSimulator,
    _max_min_fair_rates_numpy,
    _max_min_fair_rates_python,
    max_min_fair_rates,
)
from repro.topology.base import LinkKind, NodeKind, Topology

SEEDS = range(25)

_CAPACITIES = (50.0, 100.0, 200.0, 400.0)


def _random_topology(rng):
    """A connected random digraph: a bidirectional line plus random chords."""
    num_nodes = rng.randint(4, 9)
    topology = Topology(name="random")
    names = [f"n{i}" for i in range(num_nodes)]
    for name in names:
        topology.add_node(name, NodeKind.GPU)
    for i in range(num_nodes - 1):
        topology.add_bidirectional_link(
            names[i],
            names[i + 1],
            bandwidth=rng.choice(_CAPACITIES),
            latency=rng.choice([0.0, 1e-6]),
            kind=LinkKind.ELECTRICAL,
        )
    for _ in range(rng.randint(0, num_nodes)):
        a, b = rng.sample(names, 2)
        topology.add_bidirectional_link(
            a,
            b,
            bandwidth=rng.choice(_CAPACITIES),
            latency=rng.choice([0.0, 1e-6]),
            kind=LinkKind.ELECTRICAL,
        )
    return topology, names


def _random_transfers(rng, topology, names):
    """Random (path, size) transfers routed over the topology."""
    transfers = []
    for _ in range(rng.randint(2, 8)):
        src, dst = rng.sample(names, 2)
        path = tuple(topology.shortest_path(src, dst))
        size = rng.choice([1e3, 1e4, 1e5]) * rng.randint(1, 9)
        transfers.append((path, size))
    return transfers


def _analytic_time(path, size):
    """The alpha-beta lower bound: bottleneck-rate drain plus path latency."""
    bottleneck = min(link.bandwidth for link in path)
    latency = sum(link.latency for link in path)
    return size / bottleneck + latency


def _run_flow(transfers):
    """Simulate the transfers together from t=0; returns per-flow finishes."""
    sim = FlowSimulator()
    flows = [
        sim.add_flow(path, size, start_time=0.0) for path, size in transfers
    ]
    sim.run()
    return [flow.finish_time for flow in flows]


@pytest.mark.parametrize("seed", SEEDS)
def test_flow_time_never_beats_the_analytic_bound(seed):
    rng = random.Random(seed)
    topology, names = _random_topology(rng)
    transfers = _random_transfers(rng, topology, names)
    finishes = _run_flow(transfers)
    for (path, size), finish in zip(transfers, finishes):
        bound = _analytic_time(path, size)
        assert finish >= bound * (1 - 1e-9), (path, size, finish, bound)


@pytest.mark.parametrize("seed", SEEDS)
def test_flow_equals_analytic_when_paths_are_disjoint(seed):
    rng = random.Random(seed)
    topology, names = _random_topology(rng)
    transfers = _random_transfers(rng, topology, names)
    # Keep only transfers that share no link with an earlier-kept one.
    used = set()
    disjoint = []
    for path, size in transfers:
        keys = {link.key for link in path}
        if keys & used:
            continue
        used |= keys
        disjoint.append((path, size))
    finishes = _run_flow(disjoint)
    for (path, size), finish in zip(disjoint, finishes):
        assert finish == pytest.approx(_analytic_time(path, size), rel=1e-9)


def _per_link_load(transfers, rates):
    load = {}
    capacity = {}
    for index, (path, _size) in enumerate(transfers):
        rate = rates[index]
        if math.isinf(rate):
            continue
        for link in path:
            load[link.key] = load.get(link.key, 0.0) + rate
            capacity[link.key] = link.bandwidth
    return load, capacity


@pytest.mark.parametrize("seed", SEEDS)
def test_max_min_allocation_never_oversubscribes_a_link(seed):
    rng = random.Random(seed)
    topology, names = _random_topology(rng)
    transfers = _random_transfers(rng, topology, names)
    # Degrade a random subset of links first: feasibility must hold against
    # whatever capacities the fabric currently has.
    for link in topology.links():
        if rng.random() < 0.3:
            topology.degrade_link(link.link_id, rng.choice([0.1, 0.5, 0.9]))
    sim = FlowSimulator()
    flows = [
        sim.add_flow(path, size, start_time=0.0) for path, size in transfers
    ]
    sim.engine.run(until=0.0)  # start the flows, allocating rates
    rates = [flow.rate for flow in flows]
    load, capacity = _per_link_load(transfers, rates)
    for key, total in load.items():
        assert total <= capacity[key] * (1 + 1e-9), (key, total, capacity[key])


@pytest.mark.parametrize("seed", SEEDS)
def test_degrading_links_never_decreases_the_makespan(seed):
    rng = random.Random(seed)
    topology, names = _random_topology(rng)
    transfers = _random_transfers(rng, topology, names)
    healthy_makespan = max(_run_flow(transfers))
    degraded_any = False
    for link in topology.links():
        if rng.random() < 0.4:
            topology.degrade_link(link.link_id, rng.choice([0.1, 0.5, 0.9]))
            degraded_any = True
    if not degraded_any:
        first = topology.links()[0]
        topology.degrade_link(first.link_id, 0.5)
    degraded_makespan = max(_run_flow(transfers))
    assert degraded_makespan >= healthy_makespan * (1 - 1e-9)


@pytest.mark.parametrize("seed", SEEDS)
def test_allocators_agree_on_faulted_and_degraded_link_sets(seed):
    from repro.simulator.flows import Flow

    rng = random.Random(seed)
    topology, names = _random_topology(rng)
    transfers = _random_transfers(rng, topology, names)
    # Degrade some capacities in place (mutates link.bandwidth)...
    for link in topology.links():
        if rng.random() < 0.3:
            topology.degrade_link(link.link_id, rng.choice([0.1, 0.5]))
    # ...and model failures of non-path links by a capacities override that
    # zeroes a random *unused* link (failed links under live flows raise in
    # the simulator; the allocators themselves only see capacity sets).
    used = {link.key for path, _size in transfers for link in path}
    overrides = {}
    for link in topology.links():
        if link.key not in used and rng.random() < 0.2:
            overrides[link.key] = 0.0
    flows = [
        Flow(flow_id=i, path=path, size_bytes=size, start_time=0.0)
        for i, (path, size) in enumerate(transfers)
    ]
    reference = _max_min_fair_rates_python(flows, overrides or None)
    vectorized = _max_min_fair_rates_numpy(flows, overrides or None)
    dispatched = max_min_fair_rates(flows, overrides or None)
    assert reference.keys() == vectorized.keys() == dispatched.keys()
    for flow_id, expected in reference.items():
        assert vectorized[flow_id] == pytest.approx(expected, rel=1e-9)
        assert dispatched[flow_id] == pytest.approx(expected, rel=1e-9)


@pytest.mark.parametrize("seed", SEEDS)
def test_parallel_water_filling_is_bit_identical_to_serial(seed, monkeypatch):
    # The simulator picks its solver by component size: the numpy fill
    # (every sharing component at once, one bottleneck per component per
    # round) or the pure-Python fill (one bottleneck per round).  Forcing
    # each in turn must not move a single finish time.
    import repro.simulator.flows as flows_module

    rng = random.Random(seed)
    topology, names = _random_topology(rng)
    transfers = _random_transfers(rng, topology, names)
    monkeypatch.setattr(flows_module, "_VECTORIZE_MIN_FLOWS", 1)
    parallel = _run_flow(transfers)
    monkeypatch.setattr(flows_module, "_VECTORIZE_MIN_FLOWS", 10**9)
    serial = _run_flow(transfers)
    assert parallel == serial  # bitwise, not approx


# --------------------------------------------------------------------------- #
# Routing policies: single bit-identity, multipath feasibility, spray sums
# --------------------------------------------------------------------------- #


def _policy_model(policy):
    """A mini fat-tree flow model (4 nodes, radix-4 switches) under a policy."""
    from repro.experiments.contention import mini_fat_tree_cluster
    from repro.parallelism.config import ParallelismConfig
    from repro.parallelism.mesh import DeviceMesh
    from repro.simulator.flow_network import fat_tree_flow_network

    cluster = mini_fat_tree_cluster(num_nodes=4)
    mesh = DeviceMesh(ParallelismConfig(tp=4, dp=4), cluster)
    return fat_tree_flow_network(cluster, mesh, routing_policy=policy)


def _random_rank_transfers(rng, num_ranks=16):
    transfers = []
    for _ in range(rng.randint(2, 8)):
        src, dst = rng.sample(range(num_ranks), 2)
        size = rng.choice([1e5, 1e6, 1e7]) * rng.randint(1, 9)
        transfers.append((src, dst, size))
    return transfers


@pytest.mark.parametrize("seed", SEEDS)
def test_single_policy_trace_is_bit_identical_to_default(seed):
    """routing_policy='single' must not perturb a single event time.

    The policy knob's default lane is load-bearing for every committed golden
    trace: an explicit 'single' takes the identical code path (no router is
    even instantiated), so seeded random send/recv mixes must replay
    bit-for-bit — equality on floats, not approx.
    """
    from repro.experiments.backends import create_network
    from repro.experiments.contention import mini_fat_tree_cluster
    from repro.parallelism.config import ParallelismConfig
    from repro.parallelism.mesh import DeviceMesh
    from repro.parallelism.workloads import small_test_workload
    from repro.simulator.executor import DAGExecutor

    rng = random.Random(seed)
    cluster = mini_fat_tree_cluster(num_nodes=4)
    mesh = DeviceMesh(ParallelismConfig(tp=4, dp=4), cluster)
    workload = small_test_workload(pp=1, dp=4, tp=4)
    pairs = [(src, dst) for src, dst, _ in _random_rank_transfers(rng)]
    size = rng.choice([1e6, 1e7])

    def _trace(**knobs):
        from tests.test_flow_network import _send_recv_dag

        dag = _send_recv_dag(workload, mesh, pairs, size)
        network = create_network(
            "fattree", cluster, mesh, network_mode="flow", **knobs
        )
        return DAGExecutor(dag, cluster, network).run_training(1)

    default = _trace()
    explicit = _trace(routing_policy="single")
    default_records = [
        (r.tag, r.start, r.end) for r in default.iterations[0].comm_records
    ]
    explicit_records = [
        (r.tag, r.start, r.end) for r in explicit.iterations[0].comm_records
    ]
    assert default_records == explicit_records  # bitwise, not approx


@pytest.mark.parametrize("policy", ("ecmp", "adaptive"))
@pytest.mark.parametrize("seed", SEEDS)
def test_multipath_allocations_never_oversubscribe_a_link(seed, policy):
    """Policy-chosen paths must stay feasible under max-min fair sharing."""
    rng = random.Random(seed)
    model = _policy_model(policy)
    router = model._router
    sim = model.simulator
    transfers = _random_rank_transfers(rng)
    flows = []
    paths = []
    for index, (src, dst, size) in enumerate(transfers):
        path = router.resolve(src, dst, salt=index)
        paths.append(path)
        flows.append(sim.add_flow(path, size, start_time=0.0))
    sim.engine.run(until=0.0)  # start the flows, allocating rates
    load, capacity = _per_link_load(
        [(path, size) for path, (_, _, size) in zip(paths, transfers)],
        [flow.rate for flow in flows],
    )
    for key, total in load.items():
        assert total <= capacity[key] * (1 + 1e-9), (key, total, capacity[key])


@pytest.mark.parametrize("seed", SEEDS)
def test_ecmp_resolution_is_deterministic_and_equal_cost(seed):
    rng = random.Random(seed)
    model = _policy_model("ecmp")
    router = model._router
    for index, (src, dst, _size) in enumerate(_random_rank_transfers(rng)):
        path_set = router.path_set(src, dst)
        chosen = router.resolve(src, dst, salt=index)
        again = router.resolve(src, dst, salt=index)
        assert chosen is again, "same coordinates must share the path tuple"
        assert chosen in path_set
        hops = {len(path) for path in path_set}
        assert hops == {len(chosen)}, "every candidate must be minimum-hop"


@pytest.mark.parametrize("seed", SEEDS)
def test_spray_subflow_sizes_sum_exactly_to_the_transfer_size(seed):
    from repro.collectives.schedule import Transfer

    rng = random.Random(seed)
    model = _policy_model("spray")
    router = model._router
    for index, (src, dst, size) in enumerate(_random_rank_transfers(rng)):
        items = router.transfer_items(
            Transfer(src=src, dst=dst, size_bytes=size),
            step_index=index,
            position=0,
            deferred=False,
        )
        assert sum(share for _path, share in items) == size  # bitwise
        assert all(share > 0.0 for _path, share in items)
        if len(router.path_set(src, dst)) > 1:
            assert len(items) > 1, "multipath pairs must actually spray"
            routes = {tuple(link.link_id for link in path) for path, _ in items}
            assert len(routes) == len(items), "sub-flows must take distinct paths"


# --------------------------------------------------------------------------- #
# Fork-sweeps vs independent straight runs
# --------------------------------------------------------------------------- #

#: (backend, network mode, fault kinds that combination supports) — the three
#: network-model families, with seeded random fault schedules drawn from each
#: family's supported kinds.
_FORK_FAMILIES = None  # populated lazily; the imports are heavier than flows'


def _fork_families():
    global _FORK_FAMILIES
    if _FORK_FAMILIES is None:
        from repro.simulator.faults import FaultKind

        _FORK_FAMILIES = (
            ("fattree", "analytic", (FaultKind.COMPUTE_SLOWDOWN,)),
            (
                "fattree",
                "flow",
                (
                    FaultKind.COMPUTE_SLOWDOWN,
                    FaultKind.LINK_DEGRADE,
                    FaultKind.LINK_FAIL,
                ),
            ),
            (
                "photonic",
                "flow",
                (
                    FaultKind.COMPUTE_SLOWDOWN,
                    FaultKind.LINK_DEGRADE,
                    FaultKind.LINK_FAIL,
                ),
            ),
        )
    return _FORK_FAMILIES


def _random_fault_event(rng, backend, kinds, time):
    from repro.simulator.faults import FaultEvent, FaultKind

    kind = rng.choice(kinds)
    if kind is FaultKind.COMPUTE_SLOWDOWN:
        return FaultEvent(
            time=time,
            kind=kind,
            rank=rng.choice((None, 0, 1)),
            factor=round(rng.uniform(1.1, 2.0), 3),
        )
    if kind is FaultKind.LINK_DEGRADE:
        return FaultEvent(
            time=time,
            kind=kind,
            link_kind="host" if backend == "photonic" else "electrical",
            fraction=round(rng.uniform(0.6, 0.95), 3),
        )
    # LINK_FAIL: the degraded-fabric family's NIC-attachment failure — the
    # one link whose loss genuinely shrinks the bottleneck cut on every
    # backend (parallel fabric links are absorbed by single-path routing).
    return FaultEvent(time=time, kind=kind, src="gpu0", dst="gpu0.nic*")


def _random_fork_grid(rng, seed):
    """Three scenarios differing only in seeded random fault schedules.

    Some seeds produce no fault plans at all (members then differ in
    iteration count: the divergence-free fast path), some share a leading
    event (a non-empty common prefix), and members may coincide entirely
    (exercising memoization around the fork path).
    """
    from dataclasses import replace

    from repro.experiments.contention import degraded_fabric_scenario
    from repro.simulator.faults import FaultPlan

    backend, mode, kinds = _fork_families()[seed % len(_fork_families())]
    base = lambda n: degraded_fabric_scenario(
        backend=backend,
        condition="healthy",
        network_mode=mode,
        num_iterations=n,
    )
    if rng.random() < 0.25:  # no faults anywhere: members differ in length
        return [
            replace(base(n), name=f"fork-{backend}-{mode}-n{n}")
            for n in (1, 2, 3)
        ]
    iterations = rng.choice((2, 3))
    shared_event = (
        _random_fault_event(rng, backend, kinds, 0.1)
        if rng.random() < 0.5
        else None
    )
    from repro.simulator.faults import FaultKind

    scenarios = []
    for member in range(3):
        events = [] if shared_event is None else [shared_event]
        for _ in range(rng.randint(0, 2)):
            # The NIC-attachment LINK_FAIL kills every matching link at
            # once, so a second one would find nothing to fail — keep at
            # most one per plan.
            available = tuple(
                kind
                for kind in kinds
                if kind is not FaultKind.LINK_FAIL
                or not any(e.kind is FaultKind.LINK_FAIL for e in events)
            )
            events.append(
                _random_fault_event(
                    rng, backend, available, round(rng.uniform(0.15, 0.35), 3)
                )
            )
        scenario = base(iterations)
        knobs = dict(scenario.knobs)
        if events:
            knobs["faults"] = FaultPlan(
                events=tuple(sorted(events, key=lambda event: event.time))
            )
        scenarios.append(
            replace(
                scenario,
                knobs=knobs,
                name=f"fork-{backend}-{mode}-m{member}",
            )
        )
    return scenarios


@pytest.mark.parametrize("seed", SEEDS)
def test_fork_sweeps_equal_independent_straight_runs(seed):
    """``run_many(fork=True)`` is bit-for-bit ``run_many()`` on any grid.

    Shared-prefix forking is a pure execution strategy: for seeded random
    grids over all three network-model families — analytic, flow, and
    photonic flow, with and without fault plans — every member's iteration
    times *and* every metric (including allocator work counters, the most
    fragile state across a fork) must equal an independent straight run's.
    """
    from repro.experiments.runner import ExperimentRunner

    rng = random.Random(seed)
    scenarios = _random_fork_grid(rng, seed)
    straight = ExperimentRunner().run_many(scenarios)
    forked = ExperimentRunner().run_many(scenarios, fork=True)
    for scenario, one, other in zip(scenarios, straight, forked):
        assert list(one.iteration_times) == list(other.iteration_times), (
            scenario.name
        )
        assert dict(one.metrics) == dict(other.metrics), scenario.name
