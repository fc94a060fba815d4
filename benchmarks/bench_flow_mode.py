"""End-to-end benchmark: flow-level vs analytic network mode.

Times one full scenario simulation (DAG build + network model + executor)
under both network modes, across cluster sizes and fabrics, so the cost of
the flow-level machinery — per-step flow expansion, max–min fair
reallocation, and (on photonic rails) time-domain circuit switching — is
tracked release over release.

A second family, ``fork_sweep``, times a degradation-severity sweep run
straight-through versus via the runner's shared-prefix fork path
(``run_many(..., fork=True)``) and asserts the results are bit-for-bit
identical — so the fork machinery's speedup is perf-gated alongside its
correctness.

Each measurement is emitted as one ``BENCH {...}`` JSON line::

    BENCH {"bench": "flow_mode", "fabric": "photonic", "gpus": 16,
           "network_mode": "flow", "wall_time_s": 0.18,
           "steady_iteration_s": 0.125, "events": 3}
    BENCH {"bench": "fork_sweep", "backend": "fattree", "gpus": 16,
           "branches": 6, "straight_s": 0.81, "forked_s": 0.39,
           "ratio": 0.48, "identical": true}

Run with::

    PYTHONPATH=src python benchmarks/bench_flow_mode.py [--quick] [nodes ...]

``--quick`` restricts the sweep to the smallest cluster (the CI smoke
configuration); positional arguments override the node counts.
"""

from __future__ import annotations

import json
import statistics
import sys
import time
from dataclasses import replace

from repro.experiments.contention import degraded_fabric_severity_grid
from repro.experiments.runner import ExperimentRunner, Scenario, run_scenario
from repro.parallelism.workloads import small_test_workload
from repro.simulator.faults import FaultEvent, FaultKind, FaultPlan
from repro.topology.devices import perlmutter_testbed

#: Fabrics benchmarked in both modes.  Photonic exercises the
#: circuit-switched path (Opus gating + deferred routes); the packet fabrics
#: exercise pure max–min fair sharing.  The ``fattree-faulted`` variant runs
#: the same fat-tree scenario under a fault plan (whole fabric degraded 10%
#: plus one NIC attachment down), so the fault path — deferred routes,
#: mid-run reallocation, reroute-on-failure — is perf-gated too.  The
#: ``fattree-ecmp`` variant routes every flow
#: through the multipath policy lane (equal-cost enumeration + deterministic
#: hashing), and ``photonic-reactive`` swaps profile-driven provisioning for
#: the telemetry loop — so both new control paths are perf-gated from day
#: one.
FABRICS = (
    "electrical",
    "fattree",
    "photonic",
    "fattree-faulted",
    "fattree-ecmp",
    "photonic-reactive",
)

#: Allocator counters copied from the run's metrics into the BENCH record
#: (flow mode only; the analytic model has no allocator).
STAT_KEYS = (
    "allocator_invocations",
    "rerated_components",
    "rerated_flows",
)

#: The fault plan behind the ``fattree-faulted`` benchmark variant.
FAULT_PLAN = FaultPlan(
    events=(
        FaultEvent(
            time=0.0,
            kind=FaultKind.LINK_DEGRADE,
            link_kind="electrical",
            fraction=0.9,
        ),
        FaultEvent(time=0.0, kind=FaultKind.LINK_FAIL, src="gpu0", dst="gpu0.nic*"),
    )
)

#: Default sweep: up to 32 nodes (128 GPUs), where the flow-mode scaling work
#: (vectorized water-filling, component-local reallocation, route tables,
#: bulk step injection) dominates the wall time.
DEFAULT_NODE_COUNTS = (2, 8, 32)
NUM_ITERATIONS = 3

#: ``fork_sweep`` points: ``(num_nodes, num_iterations, fault_time)``.  The
#: fault time sits deep into the run so the shared prefix (everything before
#: the severity sweeps diverge) dominates — the regime delta-sweeps exist
#: for.  The quick CI configuration is the first point only.
FORK_SWEEP_POINTS = ((4, 12, 1.4), (16, 8, 0.9))


def build_scenario(fabric: str, num_nodes: int, network_mode: str) -> Scenario:
    # DP spans every node; 2-port NICs let the photonic planner build rings
    # over more than two scale-up domains (constraint C1/C3).
    cluster = replace(perlmutter_testbed(num_nodes=num_nodes), nic_ports_per_gpu=2)
    backend, _, variant = fabric.partition("-")
    knobs: dict = {"network_mode": network_mode}
    if variant == "faulted":
        knobs["faults"] = FAULT_PLAN
    elif variant == "ecmp" and network_mode == "flow":
        knobs["routing_policy"] = "ecmp"
    elif variant == "reactive" and network_mode == "flow":
        # Reactive provisioning needs the flow-mode telemetry loop; the
        # analytic side of the ratio is the plain profiled photonic model.
        knobs["provisioning"] = "reactive"
    return Scenario(
        workload=small_test_workload(pp=1, dp=num_nodes, tp=4),
        cluster=cluster,
        backend=backend,
        knobs=knobs,
        num_iterations=NUM_ITERATIONS,
        name=f"bench-{fabric}-{num_nodes}",
    )


def run_point(fabric: str, num_nodes: int, network_mode: str, repeat: int = 3) -> dict:
    scenario = build_scenario(fabric, num_nodes, network_mode)
    best = None
    metrics: dict = {}
    for _ in range(repeat):
        started = time.perf_counter()
        result = run_scenario(scenario)
        elapsed = time.perf_counter() - started
        metrics = result.metrics
        best = elapsed if best is None else min(best, elapsed)
    point = {
        "bench": "flow_mode",
        "fabric": fabric,
        "gpus": num_nodes * 4,
        "network_mode": network_mode,
        "wall_time_s": round(best, 6),
        "steady_iteration_s": metrics["steady_iteration_time"],
        "iterations": NUM_ITERATIONS,
    }
    # Allocator counters (flow mode only) make the solver work auditable from
    # the BENCH line itself.
    for key in STAT_KEYS:
        if key in metrics:
            point[key] = int(metrics[key])
    return point


def run_routing_overhead(num_nodes: int, pairs: int = 15) -> dict:
    """Wall-time cost of the routing-policy knob's default lane — about 1.0.

    Spelling ``routing_policy="single"`` out loud must stay the default code
    path (no router is instantiated), so explicit-over-default is a
    pure-noise ratio gated tightly (1.05x, no slack) in the baseline: any
    constant overhead sneaking onto the single-path lane trips it.  The
    reported ratio is the median of ``pairs`` paired ratios, each pair run
    back to back with the side that runs first alternating, so neither side
    keeps the warmer caches and one slow run cannot move the result.
    """
    default = build_scenario("fattree", num_nodes, "flow")
    explicit = replace(
        default,
        knobs={**dict(default.knobs), "routing_policy": "single"},
        name=f"{default.name}-single",
    )

    def timed(scenario: Scenario) -> float:
        started = time.perf_counter()
        run_scenario(scenario)
        return time.perf_counter() - started

    # One untimed warm-up of each side.
    run_scenario(default)
    run_scenario(explicit)
    default_times, single_times, ratios = [], [], []
    for index in range(pairs):
        if index % 2:
            single_s = timed(explicit)
            default_s = timed(default)
        else:
            default_s = timed(default)
            single_s = timed(explicit)
        default_times.append(default_s)
        single_times.append(single_s)
        ratios.append(single_s / max(default_s, 1e-12))
    return {
        "bench": "routing_overhead",
        "fabric": "fattree",
        "gpus": num_nodes * 4,
        "default_s": round(statistics.median(default_times), 6),
        "single_s": round(statistics.median(single_times), 6),
        "ratio": round(statistics.median(ratios), 6),
    }


def _comparable(result) -> tuple:
    """Result fields that must be identical between straight and forked runs."""
    return (list(result.iteration_times), dict(result.metrics))


def run_fork_sweep(num_nodes: int, num_iterations: int, fault_time: float) -> dict:
    """Time one severity sweep straight-through vs via shared-prefix forks.

    Both executions run serially in-process (the fork path branches a live
    object graph, which a process pool could not be handed), so the wall
    times divide into a machine-normalized ratio — forked over straight,
    lower is better.  Bit-identity of every member's iteration times and
    metrics is asserted, not just timed: a fork path that got fast by
    drifting is a bug, not a win.
    """
    grid = degraded_fabric_severity_grid(
        num_nodes=num_nodes,
        num_iterations=num_iterations,
        fault_time=fault_time,
    )
    started = time.perf_counter()
    straight = ExperimentRunner(executor="serial", memoize=False).run_many(grid)
    straight_s = time.perf_counter() - started
    started = time.perf_counter()
    forked = ExperimentRunner(executor="serial", memoize=False).run_many(
        grid, fork=True
    )
    forked_s = time.perf_counter() - started
    identical = all(
        _comparable(one) == _comparable(other)
        for one, other in zip(straight, forked)
    )
    if not identical:
        raise SystemExit(
            "fork_sweep: forked results diverged from straight runs "
            f"(nodes={num_nodes}, iterations={num_iterations})"
        )
    return {
        "bench": "fork_sweep",
        "backend": grid[0].backend,
        "gpus": num_nodes * 4,
        "branches": len(grid),
        "iterations": num_iterations,
        "straight_s": round(straight_s, 6),
        "forked_s": round(forked_s, 6),
        "ratio": round(forked_s / max(straight_s, 1e-12), 6),
        "identical": identical,
    }


def main(argv) -> int:
    quick = "--quick" in argv
    sizes = [int(arg) for arg in argv if not arg.startswith("--")]
    if not sizes:
        sizes = [DEFAULT_NODE_COUNTS[0]] if quick else list(DEFAULT_NODE_COUNTS)
    # Best-of-3 even in quick mode: the regression gate compares the
    # flow/analytic wall-time ratio, which single-shot timings make noisy.
    repeat = 3

    print(f"{'fabric':>12} {'gpus':>5} {'analytic (s)':>13} {'flow (s)':>10} {'ratio':>7}")
    for num_nodes in sizes:
        for fabric in FABRICS:
            points = {}
            for mode in ("analytic", "flow"):
                point = run_point(fabric, num_nodes, mode, repeat=repeat)
                points[mode] = point
                print("BENCH " + json.dumps(point, sort_keys=True))
            ratio = points["flow"]["wall_time_s"] / max(
                points["analytic"]["wall_time_s"], 1e-12
            )
            print(
                f"{fabric:>12} {num_nodes * 4:>5} "
                f"{points['analytic']['wall_time_s']:>13.4f} "
                f"{points['flow']['wall_time_s']:>10.4f} {ratio:>6.1f}x"
            )

    print(f"\n{'routing':>12} {'gpus':>5} {'default (s)':>13} {'single (s)':>10} {'ratio':>7}")
    for num_nodes in sizes:
        point = run_routing_overhead(num_nodes)
        print("BENCH " + json.dumps(point, sort_keys=True))
        print(
            f"{'fattree':>12} {point['gpus']:>5} {point['default_s']:>13.4f} "
            f"{point['single_s']:>10.4f} {point['ratio']:>6.2f}x"
        )

    fork_points = FORK_SWEEP_POINTS[:1] if quick else FORK_SWEEP_POINTS
    print(f"\n{'fork sweep':>12} {'gpus':>5} {'straight (s)':>13} {'forked (s)':>10} {'ratio':>7}")
    for num_nodes, num_iterations, fault_time in fork_points:
        point = run_fork_sweep(num_nodes, num_iterations, fault_time)
        print("BENCH " + json.dumps(point, sort_keys=True))
        print(
            f"{point['branches']:>10}br {point['gpus']:>5} "
            f"{point['straight_s']:>13.4f} {point['forked_s']:>10.4f} "
            f"{point['ratio']:>6.2f}x"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
