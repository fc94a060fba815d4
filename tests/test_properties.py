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
  and degraded (capacities scaled) variants of the sharing graph, and so
  does the simulator's per-component fill on every sharing component;
* **solver independence** — a whole simulation gives bit-identical finish
  times whether shared components go through the numpy or the pure-Python
  water-filling.
* **engine vs naive reference** — every batch completes when a naive
  simulator says it does: one that re-solves all active flows globally at
  every arrival and completion, with no memo and no component locality.

Everything is seeded (25 cases per invariant in tier-1) so the suite is
deterministic — no flakes, no hypothesis dependency.
"""

import math
import random

import pytest

from repro.simulator.flows import (
    Flow,
    FlowSimulator,
    _max_min_fair_rates_numpy,
    _max_min_fair_rates_python,
    _walk_component,
    max_min_fair_rates,
)
from repro.simulator.waterfill import _fill_component, _sharing_components
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


def _fill_cases(seed):
    """The sharing components of one random, degraded flow set.

    Repeated transfers make all-shared components.  A few links drop to zero
    capacity, which ``Topology.degrade_link`` cannot express, so their
    bandwidth is overridden on the link itself.  A gadget adds a near tie:
    three flows cross one link of capacity ``c`` (fair share ``c / 3``), and
    one of them also a link of capacity ``c * (1 / 3)``, an ulp below it.
    """
    rng = random.Random(seed)
    topology, names = _random_topology(rng)
    transfers = _random_transfers(rng, topology, names)
    transfers += [rng.choice(transfers) for _ in range(rng.randint(0, 3))]
    for link in topology.links():
        draw = rng.random()
        if draw < 0.3:
            topology.degrade_link(link.link_id, rng.choice([0.1, 0.5, 0.9]))
        elif draw < 0.4:
            link.bandwidth = 0.0
    capacity = rng.choice(_CAPACITIES)
    for name in ("tie_a", "tie_b"):
        topology.add_node(name, NodeKind.GPU)
    shared = topology.add_link("tie_a", "tie_b", capacity, 0.0, LinkKind.ELECTRICAL)
    private = topology.add_link("tie_b", names[0], capacity, 0.0, LinkKind.ELECTRICAL)
    topology.degrade_link(private.link_id, 1 / 3)
    transfers += [((shared,), 1e3), ((shared,), 1e3), ((shared, private), 1e3)]
    flows = [
        Flow(flow_id=i, path=path, size_bytes=size, start_time=0.0)
        for i, (path, size) in enumerate(transfers)
    ]
    return _sharing_components(flows)


def _registry(flows):
    """Link id -> lone user or set of users, as ``FlowSimulator`` keeps it."""
    users = {}
    for flow in flows:
        for link in flow.path:
            riders = users.get(link.link_id)
            if riders is None:
                users[link.link_id] = flow
            elif type(riders) is set:
                riders.add(flow)
            else:
                users[link.link_id] = {riders, flow}
    return users


@pytest.mark.parametrize("seed", SEEDS)
def test_component_fill_is_bit_identical_to_the_reference_fill(seed):
    # The simulator's re-rates walk each component off the link registry,
    # fold unshared links into private capacities and fill the rest.
    for component in _fill_cases(seed):
        reference = _max_min_fair_rates_python(component)
        walked = [component[-1]]
        private, crossing, capacity = _walk_component(
            walked, _registry(component), set(walked)
        )
        assert sorted(walked, key=id) == sorted(component, key=id)
        rates = _fill_component(private, crossing, capacity) if capacity else private
        assert rates == [reference[flow.flow_id] for flow in walked]


def test_component_fill_cases_cover_every_kind_of_component():
    kinds = set()
    for seed in SEEDS:
        for component in _fill_cases(seed):
            walked = [component[0]]
            private, _, capacity = _walk_component(
                walked, _registry(component), set(walked)
            )
            if not capacity:
                kinds.add("no shared link")
            elif all(math.isinf(bottleneck) for bottleneck in private):
                kinds.add("all shared")
            else:
                kinds.add("mixed")
    assert kinds == {"no shared link", "all shared", "mixed"}


@pytest.mark.parametrize("seed", SEEDS)
def test_parallel_water_filling_is_bit_identical_to_serial(seed, monkeypatch):
    # The simulator fills each re-rated component with the per-component
    # Python fill, or — at or above _VECTORIZE_MIN_FLOWS flows — with the
    # numpy fill (every such component of an event at once, one bottleneck
    # per component per round).  Forcing each in turn must not move a
    # single finish time, and each run must really take its solver.
    import repro.simulator.flows as flows_module

    filled = {"numpy": 0, "python": 0}  # components with a shared link
    numpy_fill = flows_module._max_min_fair_rates_numpy
    component_fill = flows_module._fill_component

    def counted_numpy(flows, capacities=None):
        filled["numpy"] += len(_sharing_components(flows))
        return numpy_fill(flows, capacities)

    def counted_component(private, crossing, capacity):
        filled["python"] += 1
        return component_fill(private, crossing, capacity)

    monkeypatch.setattr(flows_module, "_max_min_fair_rates_numpy", counted_numpy)
    monkeypatch.setattr(flows_module, "_fill_component", counted_component)
    rng = random.Random(seed)
    topology, names = _random_topology(rng)
    transfers = _random_transfers(rng, topology, names)
    monkeypatch.setattr(flows_module, "_VECTORIZE_MIN_FLOWS", 1)
    parallel = _run_flow(transfers)
    assert filled["python"] == 0
    vectorized, filled["numpy"] = filled["numpy"], 0
    monkeypatch.setattr(flows_module, "_VECTORIZE_MIN_FLOWS", 10**9)
    serial = _run_flow(transfers)
    assert filled["numpy"] == 0
    assert vectorized == filled["python"]
    assert parallel == serial  # bitwise, not approx


# --------------------------------------------------------------------------- #
# The engine against a naive reference simulator
# --------------------------------------------------------------------------- #


def _naive_batch_ends(batches, degrade):
    """Each batch's completion time, by global re-solving at every event.

    ``batches`` are ``(start, [(path, size), ...])``; ``degrade`` is
    ``(time, topology, link, fraction)``.  At every arrival, completion and
    the degrade instant all active flows are re-rated together by the
    pure-Python progressive filling and advanced in lockstep: no shape memo,
    no component locality, no lazy progress, no batch-level anything.
    """
    ends = [0.0] * len(batches)
    order = sorted(range(len(batches)), key=lambda index: batches[index][0])
    active = []  # [flow, remaining bytes, batch index]
    now, next_id = 0.0, 0
    while order or active or degrade:
        rates = _max_min_fair_rates_python([entry[0] for entry in active])
        times = [now + entry[1] / rates[entry[0].flow_id] for entry in active]
        if order:
            times.append(batches[order[0]][0])
        if degrade:
            times.append(degrade[0])
        at = min(times)
        for entry in active:
            entry[1] -= rates[entry[0].flow_id] * (at - now)
        now = at
        for entry in [entry for entry in active if entry[1] <= 1e-6]:
            active.remove(entry)
            ends[entry[2]] = max(ends[entry[2]], now + entry[0].latency)
        if degrade and degrade[0] == now:
            _time, topology, link, fraction = degrade
            topology.degrade_link(link.link_id, fraction)
            degrade = None
        while order and batches[order[0]][0] == now:
            index = order.pop(0)
            for path, size in batches[index][1]:
                flow = Flow(flow_id=next_id, path=path, size_bytes=size, start_time=now)
                next_id += 1
                if size == 0.0 or not path:
                    ends[index] = max(ends[index], now + flow.latency)
                else:
                    active.append([flow, size, index])
    return ends


def _random_batches(rng, topology, names):
    """Random batches: tied and distinct starts, shared links, degenerate
    members, and one large batch injected twice, so the shape memo replays
    it when its drain allows; a straggler joins a one-group replay."""
    starts = [0.0, 0.0, 0.5, 1.25, 3.0]
    batches = []
    for _ in range(rng.randint(3, 7)):
        items = []
        for path, size in _random_transfers(rng, topology, names):
            roll = rng.random()
            if roll < 0.1:
                size = 0.0
            elif roll < 0.2:
                path = ()
            items.append((path, size))
        batches.append((rng.choice(starts), items))
    pool = _random_transfers(rng, topology, names)
    if rng.random() < 0.5:
        big = [pool[0]] * 36  # one drain group: a replay is exact
        batches.append((1e7 + 1.0, [big[0]]))
    else:
        big = [rng.choice(pool) for _ in range(36)]
    batches.append((2e6, big))
    batches.append((1e7, big))
    return batches


@pytest.mark.parametrize("seed", SEEDS)
def test_engine_matches_the_naive_reference_simulator(seed):
    ends = []
    for engine in (True, False):
        rng = random.Random(seed)
        topology, names = _random_topology(rng)
        batches = _random_batches(rng, topology, names)
        link = rng.choice(list(topology.links()))
        when, fraction = rng.uniform(0.1, 50.0), rng.choice([0.25, 0.5, 0.9])
        if not engine:
            ends.append(_naive_batch_ends(batches, (when, topology, link, fraction)))
            continue
        sim = FlowSimulator(topology=topology)
        done = [None] * len(batches)

        def admit(_engine, index):
            start, items = batches[index]
            sim.add_flows(items, start, lambda end: done.__setitem__(index, end))

        def degrade(_engine, _payload):
            topology.degrade_link(link.link_id, fraction)
            sim.apply_link_change([link.key])

        for index, (start, _items) in enumerate(batches):
            # The large batches are admitted after the degrade, the way a
            # collective's next step is, so their routes are current.
            sim.engine.schedule(0.0 if start < 1e6 else start - 1.0, admit, index)
        sim.engine.schedule(when, degrade)
        sim.run()
        ends.append(done)
    engine_ends, naive_ends = ends
    assert engine_ends == pytest.approx(naive_ends, rel=1e-9)


# --------------------------------------------------------------------------- #
# Routing policies: single bit-identity, multipath feasibility, spray sums
# --------------------------------------------------------------------------- #


def _policy_model(policy):
    """A mini fat-tree flow model (4 nodes, radix-4 switches) under a policy."""
    from repro.experiments.contention import mini_fat_tree_cluster
    from repro.parallelism.config import ParallelismConfig
    from repro.parallelism.mesh import DeviceMesh
    from repro.simulator.flow_network import FlowNetworkModel
    from repro.topology.fattree import build_fat_tree_fabric

    cluster = mini_fat_tree_cluster(num_nodes=4)
    mesh = DeviceMesh(ParallelismConfig(tp=4, dp=4), cluster)
    topology = build_fat_tree_fabric(cluster).topology
    return FlowNetworkModel(cluster, mesh, topology, routing_policy=policy)


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
        )
        assert sum(share for _flow, share in items) == size  # bitwise
        assert all(share > 0.0 for _flow, share in items)
        if len(router.path_set(src, dst)) > 1:
            assert len(items) > 1, "multipath pairs must actually spray"
            paths = [router.resolve(*flow) for flow, _share in items]
            routes = {tuple(link.link_id for link in path) for path in paths}
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


# --------------------------------------------------------------------------- #
# Analytic list scheduling: lazy ready heap against the full rescan
# --------------------------------------------------------------------------- #


def _rescan_executor_class():
    from repro.parallelism.dag import OpKind
    from repro.simulator.executor import DAGExecutor

    class RescanExecutor(DAGExecutor):
        """The O(|ready|) rescan per commit, kept as an oracle for the heap.

        Valid against analytic models only: they expand no collective, so
        every commit finalizes at once.  ``rescans`` counts the passes that
        took this loop, so a test can tell the oracle actually ran.
        """

        rescans = 0

        def _schedule(self, state, trace):
            RescanExecutor.rescans += 1
            completed = 0
            while state.ready:
                best_start, best_id = min(
                    (self._earliest_start(self.dag.operation(op_id), state), op_id)
                    for op_id in state.ready
                )
                state.ready.discard(best_id)
                operation = self.dag.operation(best_id)
                if operation.kind == OpKind.COMPUTE:
                    end = self._execute_compute(
                        operation, best_start, state.gpu_free, trace
                    )
                else:
                    end = self._execute_comm(operation, best_start, state, trace)
                state.finish(best_id, end)
                completed += 1
            return completed

    return RescanExecutor


#: ``(backend, knobs)`` of the analytic models the scheduler runs against.
_ANALYTIC_MODELS = (
    ("electrical", {}),
    ("ideal", {}),
    ("photonic", {"reconfiguration_delay": 1e-3, "provisioning": True}),
    ("photonic", {"reconfiguration_delay": 1e-3, "provisioning": False}),
)


@pytest.mark.parametrize("seed", SEEDS)
def test_analytic_heap_schedule_equals_the_full_rescan(seed):
    """The lazy ready heap commits exactly what a full rescan would.

    Under compute jitter the earliest-start order shifts from seed to seed;
    for every analytic model (photonic with and without provisioning, so
    circuit waits and speculative installs move resource free times too)
    the compute, comm and reconfiguration records must be equal, floats
    compared exactly.
    """
    from repro.experiments.backends import create_network
    from repro.parallelism.dag import build_iteration_dag
    from repro.parallelism.workloads import small_test_workload
    from repro.simulator.executor import DAGExecutor, SimulationConfig
    from repro.topology.devices import perlmutter_testbed

    workload = small_test_workload(pp=2, dp=2, tp=4)
    cluster = perlmutter_testbed(num_nodes=4)
    config = SimulationConfig(compute_jitter=0.02, seed=seed)
    rescan_class = _rescan_executor_class()

    def _run(executor_class, backend, knobs):
        dag = build_iteration_dag(workload, cluster)
        network = create_network(backend, cluster, dag.mesh, **knobs)
        rescans = rescan_class.rescans
        training = executor_class(dag, cluster, network, config=config).run_training(2)
        # The override must be the loop the oracle's passes go through.
        ran = rescan_class.rescans - rescans
        assert ran == (2 if executor_class is rescan_class else 0)
        return training

    for backend, knobs in _ANALYTIC_MODELS:
        heap = _run(DAGExecutor, backend, knobs)
        rescan = _run(rescan_class, backend, knobs)
        for fast, slow in zip(heap.iterations, rescan.iterations):
            assert fast.compute_records == slow.compute_records, backend
            assert fast.comm_records == slow.comm_records, backend
            assert fast.reconfig_records == slow.reconfig_records, backend
        if backend == "photonic":
            assert any(trace.reconfig_records for trace in heap.iterations)
