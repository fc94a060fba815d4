"""Per-collective Opus work that does not scale with the axis configuration.

Three fast paths sit under every photonic-rail collective, and each is held
to the slow computation it replaces:

* :class:`~repro.topology.photonic.CircuitRoutes` reads a route over one
  direct circuit from the rail's ledger; it must return the same ``Link``
  objects, in the same order, as :meth:`Topology.shortest_path`, and hand
  every other pair to the search;
* :meth:`~repro.core.controller.OpusController.notify_traffic` keeps one
  pending latest end per configuration and applies it when the rail's ledger
  next changes; busy times and drain times must equal marking every
  installed circuit at once;
* the photonic flow model counts holds per configuration; its maps stay as
  small as the set of configurations, and runs forked or resumed with
  pending marks continue bit for bit.
"""

import random
from dataclasses import replace

import pytest

from repro.core.controller import OpusController
from repro.core.network import PhotonicFlowNetworkModel
from repro.errors import FaultError
from repro.experiments.contention import (
    circuit_thrash_scenario,
    provisioned_photonic_scenario,
)
from repro.experiments.runner import run_scenario
from repro.experiments.session import SimulationSession
from repro.topology.base import Topology, gpu_node_name, nic_port_node_name
from repro.topology.devices import perlmutter_testbed
from repro.topology.ocs import Circuit, CircuitConfiguration
from repro.topology.photonic import RailEndpoint, build_photonic_rail_fabric

# --------------------------------------------------------------------------- #
# Circuit routes from the rail ledger
# --------------------------------------------------------------------------- #


def _cluster(ports):
    return replace(perlmutter_testbed(num_nodes=4), nic_ports_per_gpu=ports)


def _random_circuits(rail, rng):
    """A seeded ring or pairwise circuit set over the rail's domains."""
    domains = list(range(rail.cluster.num_domains))
    rng.shuffle(domains)
    ports = rail.ports_per_gpu
    if ports >= 2 and rng.random() < 0.5:
        # Ring: each domain's "out" port to the next domain's "in" port.
        size = rng.randint(2, len(domains))
        ring = domains[:size]
        out_port, in_port = rng.sample(range(ports), 2)
        pairs = list(zip(ring, ring[1:] + ring[:1]))[: size if size > 2 else 1]
        return [
            rail.circuit_between(RailEndpoint(a, out_port), RailEndpoint(b, in_port))
            for a, b in pairs
        ]
    # Pairwise: disjoint domain pairs, each on a random NIC port.
    return [
        rail.circuit_between(
            RailEndpoint(a, rng.randrange(ports)), RailEndpoint(b, rng.randrange(ports))
        )
        for a, b in zip(domains[0::2], domains[1::2])
    ]


def _compare_with_search(fabric):
    """Every ordered GPU pair: the resolver is the search or defers to it.

    Returns how many pairs the resolver answered.
    """
    topology = fabric.topology
    routes = topology.closed_form
    answered = 0
    num_gpus = fabric.cluster.num_gpus
    for src in range(num_gpus):
        for dst in range(num_gpus):
            if src == dst:
                continue
            got = routes.path(src, dst)
            if got is None:
                continue
            answered += 1
            expected = topology.shortest_path(gpu_node_name(src), gpu_node_name(dst))
            assert len(got) == len(expected) == 3, (src, dst)
            assert all(a is b for a, b in zip(got, expected)), (src, dst)
    return answered


@pytest.mark.parametrize("ports", (1, 2))
@pytest.mark.parametrize("seed", range(6))
def test_circuit_routes_are_the_searched_routes(ports, seed):
    rng = random.Random(seed)
    fabric = build_photonic_rail_fabric(_cluster(ports))
    answered = 0
    for _round in range(3):
        for rail_index, rail in fabric.rails.items():
            fabric.clear_rail(rail_index)
            for circuit in _random_circuits(rail, rng):
                fabric.install(rail_index, circuit)
        answered += _compare_with_search(fabric)
    assert answered > 0


def test_tied_circuits_go_to_the_search():
    fabric = build_photonic_rail_fabric(_cluster(2))
    rail = fabric.rail(0)
    for port in (0, 1):
        fabric.install(0, rail.circuit_between(RailEndpoint(0, port), RailEndpoint(1, port)))
    # GPU 0 (domain 0) and GPU 4 (domain 1) share rail 0 over two circuits.
    assert fabric.topology.closed_form.path(0, 4) is None
    assert len(fabric.topology.shortest_path("gpu0", "gpu4")) == 3
    fabric.tear(0, rail.circuit_between(RailEndpoint(0, 1), RailEndpoint(1, 1)))
    assert _compare_with_search(fabric) == 2


def test_a_failed_ocs_port_leaves_the_resolver_on_the_ledger():
    fabric = build_photonic_rail_fabric(_cluster(2))
    controller = OpusController(fabric, reconfiguration_delay=0.0)
    rail = fabric.rail(0)
    ring = [
        rail.circuit_between(RailEndpoint(a, 1), RailEndpoint((a + 1) % 4, 0))
        for a in range(4)
    ]
    controller.ensure(0, CircuitConfiguration(ring), 0.0, frozenset({0}), "dp")
    assert _compare_with_search(fabric) == 8
    controller.fail_port(0, ring[0].port_a)
    # The torn circuit's pair now forwards through hosts: searched.
    assert fabric.topology.closed_form.path(0, 4) is None
    assert _compare_with_search(fabric) == 6


def test_a_failed_host_link_sends_every_pair_to_the_search():
    fabric = build_photonic_rail_fabric(_cluster(2))
    topology = fabric.topology
    rail = fabric.rail(0)
    fabric.install(0, rail.circuit_between(RailEndpoint(0, 0), RailEndpoint(1, 0)))
    fabric.install(0, rail.circuit_between(RailEndpoint(2, 1), RailEndpoint(3, 1)))
    assert _compare_with_search(fabric) == 4
    topology.fail_link(topology.route_link("gpu0", nic_port_node_name(0, 1)).link_id)
    assert _compare_with_search(fabric) == 0
    # Circuit changes after the failure do not bring the resolver back.
    fabric.install(1, fabric.rail(1).circuit_between(RailEndpoint(0, 0), RailEndpoint(1, 0)))
    assert _compare_with_search(fabric) == 0


def test_a_degrade_and_its_restore_send_every_pair_to_the_search():
    fabric = build_photonic_rail_fabric(_cluster(1))
    topology = fabric.topology
    rail = fabric.rail(0)
    fabric.install(0, rail.circuit_between(RailEndpoint(0), RailEndpoint(1)))
    assert _compare_with_search(fabric) == 2
    host = topology.route_link("gpu0", nic_port_node_name(0, 0))
    topology.degrade_link(host.link_id, 0.5)
    assert _compare_with_search(fabric) == 0
    topology.degrade_link(host.link_id, 1.0)
    assert _compare_with_search(fabric) == 0
    assert topology.shortest_path("gpu0", "gpu4")[0] is host


def _counted_searches(monkeypatch):
    searches = []
    search = Topology.shortest_path

    def counted(self, src, dst):
        searches.append((src, dst))
        return search(self, src, dst)

    monkeypatch.setattr(Topology, "shortest_path", counted)
    return searches


def _flow(scenario):
    return replace(scenario, knobs={**scenario.knobs, "network_mode": "flow"})


def test_an_all_direct_photonic_flow_run_never_searches(monkeypatch):
    searches = _counted_searches(monkeypatch)
    result = run_scenario(_flow(provisioned_photonic_scenario()))
    assert result.iteration_times and searches == []


def test_circuit_thrash_still_searches_its_forwarded_routes(monkeypatch):
    searches = _counted_searches(monkeypatch)
    run_scenario(_flow(circuit_thrash_scenario(num_iterations=1)))
    assert searches


# --------------------------------------------------------------------------- #
# Deferred traffic marks
# --------------------------------------------------------------------------- #


class _EagerMarks(OpusController):
    """Reference: every mark lands on the installed circuits at once."""

    def notify_traffic(self, rail, configuration, busy_until):
        state = self._rails[rail]
        installed = self.fabric.rails[rail].circuits
        for circuit in configuration.circuits:
            if circuit in installed:
                state.busy_until[circuit] = max(state.busy_until.get(circuit, 0.0), busy_until)


def _random_configuration(fabric, rail, rng):
    """Random disjoint circuits over the rail's healthy ports."""
    photonic_rail = fabric.rail(rail)
    ports = [
        port
        for port in range(fabric.cluster.num_domains * photonic_rail.ports_per_gpu)
        if port not in photonic_rail.failed_ports or rng.random() < 0.1
    ]
    rng.shuffle(ports)
    count = rng.randint(1, len(ports) // 2)
    return CircuitConfiguration(
        Circuit(ports[2 * i], ports[2 * i + 1]) for i in range(count)
    )


@pytest.mark.parametrize("seed", range(25))
def test_deferred_traffic_marks_equal_eager_marks(seed):
    rng = random.Random(seed)
    cluster = _cluster(2)
    deferred = OpusController(build_photonic_rail_fabric(cluster), reconfiguration_delay=0.01)
    eager = _EagerMarks(build_photonic_rail_fabric(cluster), reconfiguration_delay=0.01)
    rails = sorted(deferred.fabric.rails)
    configurations = {rail: [] for rail in rails}
    now = 0.0
    reconfigurations = 0

    def same_timing(rail):
        mine, theirs = deferred._rails[rail], eager._rails[rail]
        assert mine.busy_until == theirs.busy_until
        assert mine.usable_at == theirs.usable_at
        every = list(deferred.fabric.rails[rail].circuits) + list(mine.busy_until)
        sample = rng.sample(every, min(3, len(every)))
        assert mine.drain_time(sample) == theirs.drain_time(sample)

    for _step in range(120):
        now += rng.random() * 0.01
        rail = rng.choice(rails)
        roll = rng.random()
        if roll < 0.35:
            if not configurations[rail] or rng.random() < 0.4:
                configurations[rail].append(_random_configuration(deferred.fabric, rail, rng))
            target = rng.choice(configurations[rail])
            outcomes = []
            for controller in (deferred, eager):
                try:
                    outcomes.append(controller.ensure(rail, target, now, frozenset({rail}), "dp"))
                except FaultError:
                    outcomes.append("fault")
            assert outcomes[0] == outcomes[1]
            if outcomes[0] != "fault" and outcomes[0][1] is not None:
                reconfigurations += 1
                same_timing(rail)
        elif roll < 0.9:
            if configurations[rail]:
                target = rng.choice(configurations[rail])
                end = now + rng.random() * 0.05
                deferred.notify_traffic(rail, target, end)
                eager.notify_traffic(rail, target, end)
        elif roll < 0.97:
            port = rng.randrange(cluster.num_domains * 2)
            assert deferred.fail_port(rail, port) == eager.fail_port(rail, port)
            same_timing(rail)
        else:
            deferred.reset()
            eager.reset()
            configurations = {rail: [] for rail in rails}
            now = 0.0
            for each in rails:
                same_timing(each)
    assert reconfigurations > 0
    for rail in rails:
        assert deferred.rail_state(rail).busy_until == eager.rail_state(rail).busy_until


# --------------------------------------------------------------------------- #
# Bounded state, forks and resumes
# --------------------------------------------------------------------------- #


def _distinct_configurations(planner):
    """Every configuration value the planner handed out, per rail."""
    per_rail = {}
    targets = [target for target in planner._axis_cache.values() if target]
    targets += list(planner._group_cache.values())
    for target in targets:
        for rail, configuration in target.items():
            per_rail.setdefault(rail, set()).add(configuration)
    return per_rail


def test_pending_marks_and_holds_stay_bounded_by_the_configurations():
    scenario = _flow(circuit_thrash_scenario(num_iterations=20))
    session = SimulationSession.start(scenario)
    network = session.network
    assert isinstance(network, PhotonicFlowNetworkModel)
    most_held = {}
    hold = network._hold

    def counted_hold(target):
        hold(target)
        for rail, configurations in network._circuit_load.items():
            most_held[rail] = max(most_held.get(rail, 0), len(configurations))

    network._hold = counted_hold
    for iteration in range(1, 21):
        session.run_to(iteration)
        distinct = _distinct_configurations(network.shim.planner)
        for rail, state in network.controller._rails.items():
            assert len(state.pending) <= len(distinct.get(rail, ()))
    assert most_held
    for rail, count in most_held.items():
        assert count <= len(distinct[rail])
    assert network._circuit_load == {} and network._waiters == {}


def _comparable(result):
    return (list(result.iteration_times), dict(result.metrics), result.config_hash)


def test_forks_and_resumes_with_pending_marks_continue_bit_for_bit(tmp_path):
    scenario = _flow(circuit_thrash_scenario(num_iterations=4))
    expected = _comparable(run_scenario(scenario))

    session = SimulationSession.start(scenario)
    session.run_to(2)
    assert any(state.pending for state in session.network.controller._rails.values())
    path = tmp_path / "pending.bin"
    session.save(path)

    for child in (session.fork(), SimulationSession.load(path)):
        child.run_to(scenario.num_iterations)
        assert _comparable(child.result()) == expected
    session.run_to(scenario.num_iterations)
    assert _comparable(session.result()) == expected


def test_an_unknown_rail_still_raises_on_a_traffic_mark():
    from repro.errors import ControlPlaneError

    controller = OpusController(build_photonic_rail_fabric(_cluster(1)))
    with pytest.raises(ControlPlaneError):
        controller.notify_traffic(99, CircuitConfiguration(), 1.0)
