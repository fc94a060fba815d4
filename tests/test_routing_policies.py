"""Routing policies and the telemetry-driven reconfiguration loop.

Scenario-level assertions for the ``routing_policy`` knob on the packet
fabrics and the ``provisioning="reactive"`` mode on the photonic control
plane:

* multipath policies (ecmp / adaptive / spray) never lose to single-path
  routing on the shared-uplink incast, and the congestion-aware ones beat it
  outright;
* the reactive controller detects the circuit-thrash phase structure online
  and lands strictly under no-provisioning, within a small factor of the
  profile-driven design it needs no profiling iteration for;
* fault reroutes stay under the run's policy (the simulator's route hook is
  the router, not the raw shortest path), and a policy-routed run survives
  the NIC-attachment failure of the degraded-fabric family;
* a replayed (sealed) drain of a recurring batch never serves a stale rate
  after a capacity change.
"""

import math
from dataclasses import replace

import pytest

from repro.errors import ConfigurationError
from repro.experiments.backends import create_network
from repro.experiments.contention import (
    REACTIVE_SCENARIO_MODES,
    adaptive_routing_grid,
    degraded_fabric_scenario,
    mini_fat_tree_cluster,
    reactive_vs_profile_scenario,
)
from repro.experiments.runner import run_scenario
from repro.parallelism.config import ParallelismConfig
from repro.parallelism.mesh import DeviceMesh
from repro.simulator.flow_network import FlowNetworkModel
from repro.simulator.flows import FlowSimulator
from repro.topology.base import LinkKind, NodeKind, Topology
from repro.topology.fattree import build_fat_tree_fabric


# --------------------------------------------------------------------------- #
# Routing policies on the shared-uplink incast
# --------------------------------------------------------------------------- #


@pytest.fixture(scope="module")
def routing_results():
    return {
        scenario.name.rsplit("-", 1)[-1]: run_scenario(scenario)
        for scenario in adaptive_routing_grid()
    }


def test_multipath_never_loses_to_single_path_on_incast(routing_results):
    single = routing_results["single"].metrics["steady_iteration_time"]
    for policy in ("ecmp", "adaptive", "spray"):
        steady = routing_results[policy].metrics["steady_iteration_time"]
        assert steady <= single * (1 + 1e-9), (policy, steady, single)


def test_congestion_spreading_policies_beat_single_path_outright(routing_results):
    """The incast is constructed so spreading genuinely relieves the uplink.

    Four concurrent rings pile onto one deterministic uplink under single-path
    routing while the twin uplink idles; any policy that spreads over the
    equal-cost set must therefore win by a real margin, not merely tie.
    """
    single = routing_results["single"].metrics["steady_iteration_time"]
    for policy in ("ecmp", "adaptive", "spray"):
        steady = routing_results[policy].metrics["steady_iteration_time"]
        assert steady < single * 0.999, (policy, steady, single)


def test_adaptive_is_at_least_as_good_as_ecmp_on_incast(routing_results):
    """Congestion-aware choice can only improve on oblivious hashing here."""
    ecmp = routing_results["ecmp"].metrics["steady_iteration_time"]
    adaptive = routing_results["adaptive"].metrics["steady_iteration_time"]
    assert adaptive <= ecmp * (1 + 1e-9)


# --------------------------------------------------------------------------- #
# Reactive vs profile-driven provisioning
# --------------------------------------------------------------------------- #


@pytest.fixture(scope="module")
def reactive_results():
    return {
        mode: run_scenario(reactive_vs_profile_scenario(mode))
        for mode in REACTIVE_SCENARIO_MODES
    }


def test_reactive_strictly_beats_no_provisioning(reactive_results):
    """Detected hotspots/blocking must translate into hidden switching time."""
    none = reactive_results["none"].metrics["steady_iteration_time"]
    reactive = reactive_results["reactive"].metrics["steady_iteration_time"]
    assert reactive < none * (1 - 1e-6), (reactive, none)
    # The win comes from where it should: less switching delay exposed on
    # the critical path, not from doing less switching overall.
    assert (
        reactive_results["reactive"].metrics["exposed_reconfig_time"]
        < reactive_results["none"].metrics["exposed_reconfig_time"]
    )


def test_reactive_lands_within_five_percent_of_profile_driven(reactive_results):
    profile = reactive_results["profile"].metrics["steady_iteration_time"]
    reactive = reactive_results["reactive"].metrics["steady_iteration_time"]
    assert reactive <= profile * 1.05, (reactive, profile)


def test_reactive_converges_to_the_profiled_steady_state(reactive_results):
    """After the online-learning runway, iterations match the profiled ones.

    The reactive run pays for learning in its first iterations (it has no
    profiling iteration to lean on), then speculates from the same phase
    structure the profiler would have recorded — so its *final* iteration
    should be indistinguishable from profile-driven steady state.
    """
    profile_final = reactive_results["profile"].iteration_times[-1]
    reactive_times = reactive_results["reactive"].iteration_times
    assert reactive_times[-1] == pytest.approx(profile_final, rel=1e-3)
    # And the learning runway is visible: the first iteration is the worst.
    assert reactive_times[0] >= max(reactive_times[1:])


def test_reactive_needs_no_profiling_iteration(reactive_results):
    """Iteration 0 of the reactive run reconfigures on demand, nothing more.

    The profile mode's iteration 0 is a dedicated profiling pass; reactive
    mode starts cold and must not be *worse* than the no-provisioning
    baseline's own first iteration by more than its on-demand switching —
    i.e. both run the same demand-driven lane at iteration 0.
    """
    none_first = reactive_results["none"].iteration_times[0]
    reactive_first = reactive_results["reactive"].iteration_times[0]
    # Reactive may speculate late in iteration 0 (arming is evidence-driven),
    # so allow a budgeted overshoot but no profiling-scale blowup.
    assert reactive_first <= none_first * 1.15


# --------------------------------------------------------------------------- #
# Knob validation
# --------------------------------------------------------------------------- #


def _mini_mesh():
    cluster = mini_fat_tree_cluster(num_nodes=4)
    return cluster, DeviceMesh(ParallelismConfig(tp=4, dp=4), cluster)


def test_routing_policy_rejected_in_analytic_mode():
    cluster, mesh = _mini_mesh()
    with pytest.raises(ConfigurationError, match="network_mode='flow'"):
        create_network(
            "fattree", cluster, mesh, network_mode="analytic", routing_policy="ecmp"
        )


def test_unknown_routing_policy_rejected():
    cluster, mesh = _mini_mesh()
    with pytest.raises(ConfigurationError, match="routing_policy"):
        create_network(
            "fattree", cluster, mesh, network_mode="flow", routing_policy="vlb"
        )


def test_reactive_provisioning_rejected_in_analytic_mode():
    from repro.topology.devices import perlmutter_testbed

    cluster = perlmutter_testbed(num_nodes=2)
    mesh = DeviceMesh(ParallelismConfig(tp=4, dp=2), cluster)
    with pytest.raises(ConfigurationError, match="reactive"):
        create_network(
            "photonic", cluster, mesh, network_mode="analytic", provisioning="reactive"
        )


# "bare" is the ocs backend's internal shim mode, never a provisioning choice.
@pytest.mark.parametrize("provisioning", ["telepathy", "bare"])
def test_unknown_provisioning_mode_rejected(provisioning):
    from repro.topology.devices import perlmutter_testbed

    cluster = perlmutter_testbed(num_nodes=2)
    mesh = DeviceMesh(ParallelismConfig(tp=4, dp=2), cluster)
    with pytest.raises(ConfigurationError, match="provisioning"):
        create_network(
            "photonic", cluster, mesh, network_mode="flow", provisioning=provisioning
        )


# --------------------------------------------------------------------------- #
# Fault reroutes stay under the policy
# --------------------------------------------------------------------------- #


def test_fault_reroute_hook_is_the_policy_router():
    cluster, mesh = _mini_mesh()
    model = FlowNetworkModel(
        cluster, mesh, build_fat_tree_fabric(cluster).topology, routing_policy="ecmp"
    )
    assert model.simulator.route_policy == model._router.reroute
    # Single-path models reroute through their route table's graph search.
    plain = FlowNetworkModel(cluster, mesh, build_fat_tree_fabric(cluster).topology)
    assert plain.simulator.route_policy == plain.route_table.node_path


@pytest.mark.parametrize("policy", ("ecmp", "adaptive", "spray"))
def test_policy_routed_run_survives_nic_attachment_failure(policy):
    """The degraded-fabric NIC failure must reroute within the policy's lane."""
    base = degraded_fabric_scenario(backend="fattree", condition="failed")
    healthy = degraded_fabric_scenario(backend="fattree", condition="healthy")

    def _with_policy(scenario):
        knobs = dict(scenario.knobs)
        knobs["routing_policy"] = policy
        return replace(scenario, knobs=knobs, name=f"{scenario.name}-{policy}")

    failed_time = run_scenario(_with_policy(base)).metrics["steady_iteration_time"]
    healthy_time = run_scenario(_with_policy(healthy)).metrics[
        "steady_iteration_time"
    ]
    assert math.isfinite(failed_time) and failed_time > 0.0
    # Losing a NIC attachment never speeds the workload up, policy or not.
    assert failed_time >= healthy_time * (1 - 1e-9)


# --------------------------------------------------------------------------- #
# Drain-replay staleness
# --------------------------------------------------------------------------- #


def test_sealed_replay_never_serves_a_stale_rate_after_degradation():
    """Recurring batches must re-rate after a capacity change, not replay.

    Three identical 32-flow batches on one bottleneck link: the second batch
    replays the first's memoized drain bit-for-bit as one sealed claim;
    between the second and third the link is degraded to half capacity, so
    the third batch must take exactly twice as long — a replayed (stale)
    rate would finish it at the healthy speed.
    """
    topology = Topology(name="bottleneck")
    topology.add_node("a", NodeKind.GPU)
    topology.add_node("b", NodeKind.GPU)
    topology.add_bidirectional_link(
        "a", "b", bandwidth=100.0, latency=0.0, kind=LinkKind.ELECTRICAL
    )
    path = tuple(topology.shortest_path("a", "b"))
    sim = FlowSimulator()
    sim.topology = topology

    def _batch(start):
        return [sim.add_flow(path, 1000.0, start_time=start) for _ in range(32)]

    first = _batch(0.0)
    second = _batch(1000.0)
    sim.run(until=2000.0)
    first_duration = max(f.finish_time for f in first)
    assert first_duration == pytest.approx(320.0)
    # The second batch replays the first's drain: bit-identical finishes.
    assert [f.finish_time - 1000.0 for f in second] == [
        f.finish_time for f in first
    ]

    link = path[0]
    topology.degrade_link(link.link_id, 0.5)
    sim.apply_link_change([link.key])
    third = _batch(3000.0)
    sim.run()
    third_duration = max(f.finish_time for f in third) - 3000.0
    assert third_duration == pytest.approx(2.0 * first_duration)


# --------------------------------------------------------------------------- #
# Iteration-level speculation control (unit level)
# --------------------------------------------------------------------------- #


@pytest.fixture
def reactive_guard():
    from repro.core.controller import ReactiveReconfigurator

    return ReactiveReconfigurator()


def _iteration(guard, blocking, speculate):
    """Drive one iteration's books: optional speculation, then blocking."""
    if speculate and guard.should_speculate(0):
        guard.note_speculation(0, "dp")
    guard.note_blocking(0, blocking)
    guard.end_iteration()


def test_regressing_speculation_iteration_disables_the_lane(reactive_guard):
    _iteration(reactive_guard, blocking=0.1, speculate=False)  # baseline 0.1
    _iteration(reactive_guard, blocking=0.3, speculate=True)  # worse: shut off
    assert not reactive_guard.should_speculate(0)


def test_improving_speculation_keeps_the_lane_open(reactive_guard):
    _iteration(reactive_guard, blocking=0.1, speculate=False)
    for _ in range(5):
        _iteration(reactive_guard, blocking=0.05, speculate=True)
        assert reactive_guard.should_speculate(0)


def test_failed_probes_back_off_geometrically(reactive_guard):
    """Each failed probe doubles the quiet gap before the next one."""
    _iteration(reactive_guard, blocking=0.1, speculate=False)
    gaps = []
    for _ in range(3):
        # The lane is open (a probe iteration): speculate and regress.
        _iteration(reactive_guard, blocking=0.3, speculate=True)
        quiet = 0
        while not reactive_guard.should_speculate(0):
            _iteration(reactive_guard, blocking=0.1, speculate=False)
            quiet += 1
        gaps.append(quiet)
    assert gaps == [1, 2, 4]


def test_successful_probe_resets_the_backoff(reactive_guard):
    _iteration(reactive_guard, blocking=0.1, speculate=False)
    _iteration(reactive_guard, blocking=0.3, speculate=True)  # fail: wait 1
    _iteration(reactive_guard, blocking=0.1, speculate=False)  # quiet, reopen
    _iteration(reactive_guard, blocking=0.05, speculate=True)  # probe succeeds
    _iteration(reactive_guard, blocking=0.3, speculate=True)  # fail again
    quiet = 0
    while not reactive_guard.should_speculate(0):
        _iteration(reactive_guard, blocking=0.1, speculate=False)
        quiet += 1
    assert quiet == 1  # backoff restarted from the beginning, not at 2


def test_speculating_from_iteration_zero_forces_a_calibration(reactive_guard):
    """With no quiet iteration yet there is no baseline to judge against,
    so the first speculating iteration buys one measurement iteration."""
    _iteration(reactive_guard, blocking=0.2, speculate=True)
    assert not reactive_guard.should_speculate(0)  # calibration iteration
    _iteration(reactive_guard, blocking=0.1, speculate=False)
    assert reactive_guard.should_speculate(0)  # probe, judged against 0.1
    _iteration(reactive_guard, blocking=0.3, speculate=True)
    assert not reactive_guard.should_speculate(0)


def test_reset_restores_the_speculation_lane(reactive_guard):
    _iteration(reactive_guard, blocking=0.1, speculate=False)
    _iteration(reactive_guard, blocking=0.3, speculate=True)
    assert not reactive_guard.should_speculate(0)
    reactive_guard.reset()
    assert reactive_guard.should_speculate(0)
    assert reactive_guard.blocking_observed == 0.0
