"""Golden-trace regression: canonical scenario traces pinned bit-for-bit.

Small reference scenarios — analytic, flow, photonic-flow, and a faulted
flow run — are simulated end to end and their full training traces compared
against committed JSON files.  The simulation is deterministic pure
Python/numpy, so the comparison is exact (floats survive the JSON round trip
bit-for-bit): any refactor that changes a single record is caught, not just
aggregate drift.

After an *intentional* semantics change, refresh the files with::

    PYTHONPATH=src python -m pytest tests/test_golden_traces.py --update-golden
"""

import json
from pathlib import Path

import pytest

from repro.experiments.contention import (
    adaptive_routing_scenario,
    contention_free_scenario,
    degraded_fabric_scenario,
    provisioned_photonic_scenario,
    shared_uplink_incast_scenario,
)
from repro.experiments.backends import create_network
from repro.parallelism.dag import build_iteration_dag
from repro.parallelism.groups import GroupRegistry
from repro.simulator.executor import DAGExecutor

GOLDEN_DIR = Path(__file__).parent / "golden"

#: name -> scenario factory; one per network-mode family plus a faulted run.
GOLDEN_CASES = {
    "contention_free_analytic": lambda: contention_free_scenario(
        num_iterations=2
    ).with_knobs(network_mode="analytic"),
    "shared_uplink_flow": lambda: shared_uplink_incast_scenario(
        num_iterations=2
    ).with_knobs(network_mode="flow"),
    "provisioned_photonic_flow": lambda: provisioned_photonic_scenario(
        num_iterations=2
    ).with_knobs(network_mode="flow"),
    "degraded_fattree_flow": lambda: degraded_fabric_scenario(
        "fattree", "degraded", num_iterations=2
    ),
    # ECMP's per-flow hash choices are a fixed integer mix over stable path
    # enumerations, so the multipath trace is as pinnable as the single-path
    # one: any drift in hashing, path ordering, or enumeration shows up here.
    "adaptive_routing_ecmp": lambda: adaptive_routing_scenario(
        "ecmp", num_iterations=2
    ),
}


def _simulate_training(scenario):
    """Run one scenario end to end; returns ``(training, network)``."""
    dag = build_iteration_dag(scenario.workload, scenario.cluster, scenario.per_layer_fsdp)
    registry = GroupRegistry(dag.mesh)
    network = create_network(
        scenario.backend,
        scenario.cluster,
        dag.mesh,
        registry=registry,
        **dict(scenario.knobs),
    )
    executor = DAGExecutor(dag, scenario.cluster, network, config=scenario.simulation)
    return executor.run_training(scenario.num_iterations), network


def _simulate_training_dict(scenario) -> dict:
    """The full training trace of one scenario as a canonical dict."""
    training, _network = _simulate_training(scenario)
    return {
        "scenario": scenario.name,
        "backend": scenario.backend,
        "iterations": [trace.to_dict() for trace in training.iterations],
    }


def _canonical(payload: dict) -> str:
    """Canonical JSON text: sorted keys, tuples collapsed to lists.

    Floats survive the round trip exactly (json uses repr), so comparing
    canonical forms is a bit-for-bit comparison of every record.
    """
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize("name", sorted(GOLDEN_CASES))
def test_golden_trace_is_bit_for_bit_stable(name, update_golden):
    payload = _simulate_training_dict(GOLDEN_CASES[name]())
    path = GOLDEN_DIR / f"{name}.json"
    if update_golden:
        GOLDEN_DIR.mkdir(exist_ok=True)
        path.write_text(_canonical(payload))
        return
    assert path.exists(), (
        f"golden trace {path} missing; generate it with "
        "pytest tests/test_golden_traces.py --update-golden"
    )
    expected = json.loads(path.read_text())
    produced = json.loads(_canonical(payload))
    assert produced == expected


#: (allocator_invocations, rerated_components, rerated_flows) of each flow
#: golden case.  The traces pin what the simulator computes; these pin how
#: much solver work it takes, which memo changes can move without touching
#: a single trace record.
GOLDEN_ALLOCATOR_COUNTERS = {
    "shared_uplink_flow": (1, 1, 16),
    "provisioned_photonic_flow": (0, 0, 0),
    "degraded_fattree_flow": (1, 1, 16),
    "adaptive_routing_ecmp": (556, 556, 2963),
}


@pytest.mark.parametrize("name", sorted(GOLDEN_ALLOCATOR_COUNTERS))
def test_golden_allocator_counters(name):
    _training, network = _simulate_training(GOLDEN_CASES[name]())
    stats = network.flow_stats
    assert (
        stats.allocator_invocations,
        stats.rerated_components,
        stats.rerated_flows,
    ) == GOLDEN_ALLOCATOR_COUNTERS[name]


def test_golden_files_cover_every_case():
    missing = [
        name
        for name in GOLDEN_CASES
        if not (GOLDEN_DIR / f"{name}.json").exists()
    ]
    assert not missing, (
        f"golden files missing for {missing}; run with --update-golden"
    )


#: Scenarios of the snapshot/restore golden case — one per network-model
#: family (analytic, flow, photonic flow) plus a mid-run NIC failure, the
#: regime with the most in-flight state (pending engine events, contended
#: rates, fault schedules) a checkpoint must carry.
_SNAPSHOT_CASE_SCENARIOS = {
    "contention_free_analytic": lambda: contention_free_scenario(
        num_iterations=4
    ).with_knobs(network_mode="analytic"),
    "shared_uplink": lambda: shared_uplink_incast_scenario(
        num_iterations=4
    ).with_knobs(network_mode="flow"),
    "provisioned_photonic": lambda: provisioned_photonic_scenario(
        num_iterations=4
    ).with_knobs(network_mode="flow"),
    "degraded_fattree_failed": lambda: degraded_fabric_scenario(
        "fattree", "failed", num_iterations=4, fault_time=0.2
    ),
}


def _snapshot_restore_continue_dict() -> dict:
    """Each scenario run straight and via a midpoint checkpoint round trip.

    Both the straight trace and the resumed trace are captured so the golden
    file pins checkpoint behavior itself, not just final-state agreement.
    """
    import tempfile
    from pathlib import Path as _Path

    from repro.experiments.session import SimulationSession

    payload: dict = {}
    for name, factory in _SNAPSHOT_CASE_SCENARIOS.items():
        scenario = factory()
        straight = SimulationSession.start(scenario)
        straight.run_to(scenario.num_iterations)

        session = SimulationSession.start(scenario)
        session.run_to(scenario.num_iterations // 2)
        with tempfile.TemporaryDirectory() as tmp:
            path = _Path(tmp) / "ckpt.bin"
            session.save(path)
            resumed = SimulationSession.load(path)
        resumed.run_to(scenario.num_iterations)

        payload[name] = {
            "straight": [t.to_dict() for t in straight.trace.iterations],
            "resumed": [t.to_dict() for t in resumed.trace.iterations],
        }
    return payload


def test_snapshot_restore_continue_golden(update_golden):
    """Midpoint checkpoint + resume is bit-for-bit the straight run — pinned.

    The in-test assertion catches restore drift directly; the golden file
    additionally pins the trace contents, so a change that breaks *both*
    paths identically (and would slip past the equality check) still shows
    up as a diff against the committed JSON.
    """
    payload = _snapshot_restore_continue_dict()
    for name, case in payload.items():
        assert case["resumed"] == case["straight"], name

    path = GOLDEN_DIR / "snapshot_restore_continue.json"
    if update_golden:
        GOLDEN_DIR.mkdir(exist_ok=True)
        path.write_text(_canonical(payload))
        return
    assert path.exists(), (
        f"golden trace {path} missing; generate it with "
        "pytest tests/test_golden_traces.py --update-golden"
    )
    assert json.loads(_canonical(payload)) == json.loads(path.read_text())


def test_explicit_single_routing_policy_reproduces_the_golden_trace():
    """routing_policy = 'single' is the pre-knob router, bit-for-bit.

    Spelling the default policy out loud must reproduce the committed single-path golden trace
    down to the last float — the policy lane is a pure opt-in.
    """
    scenario = shared_uplink_incast_scenario(num_iterations=2).with_knobs(
        network_mode="flow", routing_policy="single"
    )
    produced = json.loads(_canonical(_simulate_training_dict(scenario)))
    expected = json.loads((GOLDEN_DIR / "shared_uplink_flow.json").read_text())
    assert produced["iterations"] == expected["iterations"]
    assert produced["backend"] == expected["backend"]
