"""Snapshot/restore/fork across every stateful layer.

Each layer — the event engine, the flow simulator, the topology, the
simulation session — must capture its state with ``snapshot()`` (or a
checkpoint file) and continue bit-for-bit identically after ``restore()``
or ``fork()``.  These tests exercise each layer in isolation plus the
end-to-end checkpoint file format; cross-layer equality over many seeds
lives in ``tests/test_properties.py``.
"""

from dataclasses import replace

import pytest

from repro.errors import SnapshotError
from repro.experiments.contention import (
    degraded_fabric_scenario,
    shared_uplink_incast_scenario,
)
from repro.experiments.runner import run_scenario
from repro.experiments.session import SimulationSession
from repro.simulator.engine import SimulationEngine
from repro.simulator.flows import FlowSimulator
from repro.simulator.snapshot import (
    SNAPSHOT_FORMAT_VERSION,
    SimState,
    encode_callback,
    register_continuation,
)
from repro.topology.base import LinkKind, NodeKind, Topology

# --------------------------------------------------------------------------- #
# Engine
# --------------------------------------------------------------------------- #

#: Event log of the registered test continuation (cleared per test).
_LOG = []


@register_continuation("tests.snapshot.log")
def _log_event(engine, payload):
    _LOG.append((engine.now, payload))
    if payload == "chain":
        engine.schedule_in(0.5, _log_event, "tail")


def test_engine_snapshot_restore_continues_identically():
    engine = SimulationEngine()
    engine.schedule(1.0, _log_event, "a")
    engine.schedule(2.0, _log_event, "chain")
    engine.run(until=1.5)
    assert _LOG == [(1.0, "a")]

    state = engine.snapshot()
    engine.run()
    expected_tail = _LOG[1:]
    expected_now = engine.now
    assert expected_tail == [(2.0, "chain"), (2.5, "tail")]

    _LOG.clear()
    fresh = SimulationEngine()
    fresh.restore(state)
    assert fresh.now == 1.5
    fresh.run()
    assert _LOG == expected_tail
    assert fresh.now == expected_now
    _LOG.clear()


def test_engine_snapshot_rejects_closure_callbacks():
    engine = SimulationEngine()
    engine.schedule(1.0, lambda _e, _p: None)
    with pytest.raises(SnapshotError, match="not snapshot-safe"):
        engine.snapshot()


def test_encode_callback_rejects_unregistered_functions():
    def local(_engine, _payload):
        pass

    with pytest.raises(SnapshotError, match="not snapshot-safe"):
        encode_callback(local)


def test_continuation_names_are_unique():
    with pytest.raises(SnapshotError, match="already registered"):

        @register_continuation("tests.snapshot.log")
        def _different(_engine, _payload):
            pass


def test_snapshot_kind_and_version_are_checked():
    engine = SimulationEngine()
    state = engine.snapshot()
    with pytest.raises(SnapshotError, match="cannot restore"):
        Topology(name="t").restore(state)
    # Version 8 payloads pickle the photonic flow model's per-circuit holds
    # and a controller without pending traffic marks.
    assert SNAPSHOT_FORMAT_VERSION == 9
    for version in (8, SNAPSHOT_FORMAT_VERSION + 1):
        stale = SimState(
            kind=state.kind,
            payload=state.payload,
            format_version=version,
        )
        with pytest.raises(SnapshotError, match="format version"):
            SimulationEngine().restore(stale)


# --------------------------------------------------------------------------- #
# Flow simulator
# --------------------------------------------------------------------------- #


def _incast_sim():
    """Two flows sharing one bottleneck link, one arriving later."""
    topology = Topology(name="incast")
    for name in ("a", "b", "sink"):
        topology.add_node(name, NodeKind.ELECTRICAL_SWITCH)
    shared = topology.add_link(
        "b", "sink", bandwidth=1e9, latency=0.0, kind=LinkKind.ELECTRICAL
    )
    feed = topology.add_link(
        "a", "b", bandwidth=2e9, latency=0.0, kind=LinkKind.ELECTRICAL
    )
    sim = FlowSimulator()
    flows = [
        sim.add_flow((feed, shared), 1e9, start_time=0.0),
        sim.add_flow((shared,), 1e9, start_time=0.3),
    ]
    return sim, flows


def test_flow_simulator_forks_mid_transfer():
    straight_sim, straight_flows = _incast_sim()
    straight_sim.run()
    expected = [flow.finish_time for flow in straight_flows]

    sim, flows = _incast_sim()
    sim.run(until=0.5)  # both flows in flight, mid-contention
    forked = sim.fork()
    final = sim.run()
    assert [flow.finish_time for flow in flows] == expected
    # The fork continues to the same makespan as both full runs.
    assert forked.run() == final == max(expected)


def test_flow_simulator_fork_is_independent():
    sim, _ = _incast_sim()
    sim.run(until=0.5)
    forked = sim.fork()
    parent_clock = sim.engine.now
    forked.run()
    # Running the fork never moves the parent.
    assert sim.engine.now == parent_clock
    assert sim.active_flows  # parent still mid-transfer


# --------------------------------------------------------------------------- #
# Topology
# --------------------------------------------------------------------------- #


def _two_link_topology():
    topology = Topology(name="pair")
    topology.add_node("a", NodeKind.ELECTRICAL_SWITCH)
    topology.add_node("b", NodeKind.ELECTRICAL_SWITCH)
    first = topology.add_link(
        "a", "b", bandwidth=1e9, latency=0.0, kind=LinkKind.ELECTRICAL
    )
    second = topology.add_link(
        "a", "b", bandwidth=2e9, latency=0.0, kind=LinkKind.ELECTRICAL
    )
    return topology, first, second


def test_topology_restore_heals_the_same_link_objects():
    topology, first, second = _two_link_topology()
    state = topology.snapshot()
    version = topology.version

    topology.fail_link(first.link_id)
    topology.degrade_link(second.link_id, 0.5)
    topology.restore(state)

    # Health lands on the *existing* Link objects (identity preserved), and
    # the version only ever moves forward so route caches cannot be poisoned
    # by a rewind.
    assert topology.link(first.link_id) is first
    assert not topology.failed_links()
    assert second.bandwidth == 2e9
    assert topology.version > version


def test_topology_restore_rejects_structural_mismatch():
    topology, _, _ = _two_link_topology()
    state = topology.snapshot()
    other = Topology(name="pair")
    other.add_node("a", NodeKind.ELECTRICAL_SWITCH)
    other.add_node("b", NodeKind.ELECTRICAL_SWITCH)
    other.add_link("a", "b", bandwidth=1e9, latency=0.0, kind=LinkKind.ELECTRICAL)
    with pytest.raises(SnapshotError, match="structurally"):
        other.restore(state)


# --------------------------------------------------------------------------- #
# Sessions and checkpoint files
# --------------------------------------------------------------------------- #


def _comparable(result):
    """Result fields that must survive a checkpoint (process-specific dropped)."""
    return (
        list(result.iteration_times),
        {key: value for key, value in result.metrics.items()},
        result.config_hash,
    )


def test_checkpoint_roundtrip_resumes_bit_for_bit(tmp_path):
    scenario = degraded_fabric_scenario(
        backend="fattree", condition="failed", num_iterations=3, fault_time=0.2
    )
    expected = _comparable(run_scenario(scenario))

    session = SimulationSession.start(scenario)
    session.run_to(1)
    path = tmp_path / "ckpt.bin"
    session.save(path)

    resumed = SimulationSession.load(path)
    resumed.run_to(scenario.num_iterations)
    assert _comparable(resumed.result()) == expected


def test_checkpoint_header_describes_progress(tmp_path):
    scenario = shared_uplink_incast_scenario(num_iterations=2)
    session = SimulationSession.start(scenario)
    session.run_to(1)
    path = tmp_path / "ckpt.bin"
    session.save(path)

    header = SimulationSession.read_header(path)
    assert header["format"] == "repro-sim-checkpoint"
    assert header["version"] == SNAPSHOT_FORMAT_VERSION
    assert header["scenario_name"] == scenario.name
    assert header["completed_iterations"] == 1
    assert header["clock"] == session.clock
    assert "payload" not in header


def test_checkpoint_rejects_foreign_files(tmp_path):
    path = tmp_path / "not_a_checkpoint.bin"
    path.write_bytes(b"garbage")
    with pytest.raises(SnapshotError):
        SimulationSession.read_header(path)
    with pytest.raises(SnapshotError):
        SimulationSession.load(path)


def test_session_fork_leaves_the_parent_untouched():
    scenario = shared_uplink_incast_scenario(num_iterations=3)
    parent = SimulationSession.start(scenario)
    parent.run_to(1)
    clock, completed = parent.clock, parent.completed

    child = parent.fork()
    child.run_to(3)
    assert (parent.clock, parent.completed) == (clock, completed)

    parent.run_to(3)
    assert _comparable(parent.result()) == _comparable(child.result())
    assert parent.fork_wall > 0.0


def test_session_result_refuses_unfinished_runs():
    scenario = shared_uplink_incast_scenario(num_iterations=2)
    session = SimulationSession.start(scenario)
    session.run_to(1)
    from repro.errors import ScenarioError

    with pytest.raises(ScenarioError):
        session.result()
    session.run_to(2)
    assert session.result().num_iterations == 2


def test_resume_can_run_past_the_original_iteration_count(tmp_path):
    scenario = shared_uplink_incast_scenario(num_iterations=2)
    session = SimulationSession.start(scenario)
    session.run_to(2)
    path = tmp_path / "done.bin"
    session.save(path)

    longer = SimulationSession.load(path)
    extended = replace(longer.scenario, num_iterations=4)
    longer.run_to(4)
    result = longer.result(scenario=extended)
    assert result.num_iterations == 4
    assert _comparable(result) == _comparable(
        run_scenario(replace(scenario, num_iterations=4))
    )
