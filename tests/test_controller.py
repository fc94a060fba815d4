"""OpusController.ensure: on-demand vs provisioned, drains, serialization.

The controller's single entry point answers "when will these circuits be
usable?".  These tests pin its time arithmetic directly (it was previously
exercised only through the end-to-end system):

* circuits already installed are granted without a switching event;
* missing circuits charge the switching delay from the issue time;
* a reconfiguration tearing a busy circuit waits for the traffic to drain
  (Objective 3);
* switching events on one rail serialize through ``switch_free_at`` while
  rails stay independent;
* the provisioned flag of the request lands on the reconfiguration record;
* requests of one communication group are admitted in issue order (FC-FS);
* under random request, port-failure and reset sequences, each rail's
  circuit record and the topology's circuit links agree.
"""

import random
from collections import Counter
from dataclasses import replace

import pytest

from repro.core.controller import OpusController
from repro.errors import FaultError, SchedulingError
from repro.topology.base import LinkKind, nic_port_node_name
from repro.topology.ocs import Circuit, CircuitConfiguration
from repro.topology.photonic import build_photonic_rail_fabric
from repro.topology.devices import perlmutter_testbed

DELAY = 0.01


@pytest.fixture()
def controller():
    cluster = perlmutter_testbed(num_nodes=4)
    fabric = build_photonic_rail_fabric(cluster)
    return OpusController(fabric, reconfiguration_delay=DELAY)


#: The communication group most requests below are issued for.
GROUP = frozenset({0, 1})


def _config(*port_pairs):
    return CircuitConfiguration(tuple(Circuit(a, b) for a, b in port_pairs))


def test_ensure_installs_missing_circuits_and_charges_the_delay(controller):
    ready, record = controller.ensure(0, _config((0, 1)), 2.0, GROUP, "dp")
    assert ready == pytest.approx(2.0 + DELAY)
    assert record is not None
    assert record.start == pytest.approx(2.0)
    assert record.end == pytest.approx(2.0 + DELAY)
    assert record.num_circuits_changed == 1
    assert not record.provisioned
    # The decision is applied through the fabric: the rail records the
    # circuit and the topology view gained the circuit links.
    assert Circuit(0, 1) in controller.fabric.rail(0).circuits
    assert controller.fabric.topology.links_between("gpu0.nic0", "gpu4.nic0")


def test_ensure_grants_installed_circuits_without_a_switching_event(controller):
    controller.ensure(0, _config((0, 1)), 0.0, GROUP, "dp")
    ready, record = controller.ensure(0, _config((0, 1)), 5.0, GROUP, "dp")
    assert record is None
    assert ready == pytest.approx(5.0)
    assert controller.rail_state(0).reconfigurations == 1


def test_ensure_waits_for_an_installed_circuit_to_become_usable(controller):
    # Second request arrives while the switching event is still in progress:
    # the circuits exist but only become usable when the event finishes.
    controller.ensure(0, _config((0, 1)), 1.0, GROUP, "dp")
    ready, record = controller.ensure(0, _config((0, 1)), 1.001, GROUP, "dp")
    assert record is None
    assert ready == pytest.approx(1.0 + DELAY)


def test_reconfiguration_waits_for_busy_circuits_to_drain(controller):
    controller.ensure(0, _config((0, 1)), 0.0, GROUP, "dp")
    controller.notify_traffic(0, _config((0, 1)), busy_until=5.0)
    assert controller.rail_state(0).drain_time([Circuit(0, 1)]) == pytest.approx(5.0)
    # (0, 2) conflicts with the busy (0, 1) on port 0: the switching event
    # cannot start before the traffic drains at t=5 (Objective 3).
    ready, record = controller.ensure(0, _config((0, 2)), 1.0, frozenset({0, 2}), "dp")
    assert record is not None
    assert record.start == pytest.approx(5.0)
    assert ready == pytest.approx(5.0 + DELAY)
    assert Circuit(0, 1) not in controller.fabric.rail(0).circuits


def test_switching_events_serialize_per_rail(controller):
    controller.ensure(0, _config((0, 1)), 0.0, GROUP, "dp")
    # (2, 3) conflicts with nothing, but the rail's OCS is still switching
    # until t=DELAY, so the second event starts only then.
    ready, record = controller.ensure(0, _config((2, 3)), 0.0, frozenset({2, 3}), "dp")
    assert record is not None
    assert record.start == pytest.approx(DELAY)
    assert ready == pytest.approx(2 * DELAY)


def test_rails_switch_independently(controller):
    controller.ensure(0, _config((0, 1)), 0.0, GROUP, "dp")
    ready, _record = controller.ensure(1, _config((0, 1)), 0.0, GROUP, "dp")
    assert ready == pytest.approx(DELAY)


def test_provisioned_requests_are_flagged_on_the_record(controller):
    _, record = controller.ensure(
        0, _config((0, 1)), 0.0, GROUP, "dp", provisioned=True
    )
    assert record is not None
    assert record.provisioned


def test_notify_traffic_marks_only_installed_circuits(controller):
    # A port failure can tear a circuit under its flows: the traffic mark of
    # the configuration then lands on the circuits still installed.
    controller.ensure(0, _config((0, 1)), 0.0, GROUP, "dp")
    controller.notify_traffic(0, _config((0, 1), (2, 3)), busy_until=4.0)
    controller.notify_traffic(0, _config((6, 7)), busy_until=9.0)
    assert controller.rail_state(0).busy_until == {Circuit(0, 1): 4.0}


def test_reset_clears_circuits_and_timing_state(controller):
    controller.ensure(0, _config((0, 1)), 0.0, GROUP, "dp")
    controller.notify_traffic(0, _config((0, 1)), busy_until=9.0)
    controller.reset()
    state = controller.rail_state(0)
    assert not state.usable_at
    assert not state.busy_until
    assert state.switch_free_at == 0.0
    assert controller.total_reconfigurations() == 0
    assert not controller.fabric.rail(0).circuits


def test_out_of_order_request_for_the_same_group_is_rejected(controller):
    controller.ensure(0, _config((0, 1)), 2.0, GROUP, "dp")
    with pytest.raises(SchedulingError, match="FC-FS"):
        controller.ensure(0, _config((2, 3)), 1.0, GROUP, "dp")
    # Rejected before any switching: only the first request reconfigured.
    assert controller.total_reconfigurations() == 1
    # Issue order is per group: the same request for another group is served.
    ready, record = controller.ensure(0, _config((2, 3)), 1.0, frozenset({2, 3}), "dp")
    assert record is not None
    assert ready >= 1.0 + DELAY
    # A new job starts a fresh order.
    controller.reset()
    controller.ensure(0, _config((0, 1)), 1.0, GROUP, "dp")


def _assert_ledger_matches_topology(controller):
    """Each rail's record, its port owners, its failed ports, the controller's
    timing and the topology's circuit links all describe the same circuits."""
    fabric = controller.fabric
    recorded = set()
    for rail_id, rail in fabric.rails.items():
        ports = Counter(port for circuit in rail.circuits for port in circuit.ports)
        # No port carries two circuits, and no failed port carries one.
        assert all(count == 1 for count in ports.values())
        assert not set(ports) & rail.failed_ports
        assert rail.port_owner == {
            port: circuit for circuit in rail.circuits for port in circuit.ports
        }
        assert set(controller.rail_state(rail_id).usable_at) == set(rail.circuits)
        for circuit, link_ids in rail.circuits.items():
            ends = set()
            for port in circuit.ports:
                endpoint = rail.endpoint_of(port)
                ends.add(nic_port_node_name(rail.gpu_of(endpoint), endpoint.nic_port))
            for link_id in link_ids:
                link = fabric.topology.link(link_id)
                assert link.kind == LinkKind.OPTICAL_CIRCUIT
                assert {link.src, link.dst} == ends
                assert link_id not in recorded
                recorded.add(link_id)
    # The topology holds exactly the recorded circuits' links.
    assert {
        link.link_id for link in fabric.topology.links(LinkKind.OPTICAL_CIRCUIT)
    } == recorded


@pytest.mark.parametrize("seed", range(10))
def test_rail_ledger_and_topology_agree_under_random_requests(seed):
    rng = random.Random(seed)
    cluster = replace(perlmutter_testbed(num_nodes=4), nic_ports_per_gpu=2)
    fabric = build_photonic_rail_fabric(cluster)
    controller = OpusController(fabric, reconfiguration_delay=DELAY)
    cabled = cluster.num_domains * cluster.nic_ports_per_gpu
    targets = []
    now = 0.0
    for _ in range(80):
        now += rng.random() * DELAY
        rail = rng.randrange(cluster.num_rails)
        roll = rng.random()
        if roll < 0.1:
            controller.fail_port(rail, rng.randrange(cabled))
        elif roll < 0.15:
            controller.reset()
        else:
            if targets and roll < 0.4:
                target = rng.choice(targets)
            else:
                ports = rng.sample(range(cabled), 2 * rng.randint(1, cabled // 2))
                target = CircuitConfiguration(
                    Circuit(ports[i], ports[i + 1]) for i in range(0, len(ports), 2)
                ).validate()
                targets.append(target)
            before = dict(fabric.rail(rail).circuits)
            try:
                controller.ensure(rail, target, now, frozenset({rail}), "dp")
            except FaultError:
                # Refused before any switching: the rail is unchanged.
                assert fabric.rail(rail).circuits == before
            else:
                assert target.circuits <= set(fabric.rail(rail).circuits)
        _assert_ledger_matches_topology(controller)

