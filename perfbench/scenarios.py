"""The benchmark's four workloads and the timed pass that runs one of them.

A *pass* takes a workload from its :class:`~repro.experiments.runner.Scenario`
list to :class:`~repro.experiments.runner.ScenarioResult` objects, timing the
phases the end-to-end metrics report.  Each scenario goes through
:class:`~repro.experiments.session.SimulationSession` exactly as
``run_scenario`` drives it (``start`` + one ``run_next_iteration`` per
iteration + ``result``), with a host clock read between the phases.

Simulated statistics are not scored: :func:`result_digest` condenses them so
that a run can check them for identity against a pinned digest.
"""

from __future__ import annotations

import gc
import hashlib
import json
import time
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List

from repro.collectives.schedule import expansion_cache_clear
from repro.core.system import SystemConfig, reconfiguration_latency_sweep
from repro.experiments import runner as runner_module
from repro.experiments.contention import scale_scenario
from repro.experiments.runner import ExperimentRunner, Scenario, ScenarioResult
from repro.experiments.session import SimulationSession
from repro.parallelism.workloads import (
    paper_trace_cluster,
    paper_trace_workload,
    small_test_workload,
)
from repro.simulator.executor import SimulationConfig
from repro.simulator.faults import FaultEvent, FaultKind, FaultPlan
from repro.topology.devices import perlmutter_testbed

#: Relative compute jitter every workload runs with.  At 0 every rank runs in
#: lockstep, which flatters the flow simulator's sealed-batch and shape-replay
#: lanes; 0.5% keeps Opus in its intended regime (see NOTES.md for the 2% case).
COMPUTE_JITTER = 0.005

#: Switching delays of the Fig. 8 sweep (seconds): 1 us to 100 ms.
FIG8_DELAYS = (1e-6, 1e-5, 1e-4, 1e-3, 0.015, 0.1)


def simulation_config(seed: int) -> SimulationConfig:
    """The executor configuration a benchmark seed maps to."""
    return SimulationConfig(compute_jitter=COMPUTE_JITTER, seed=seed)


@dataclass
class PassRecord:
    """Host times and simulated results of one pass over a workload."""

    wall_s: float = 0.0
    #: Host seconds inside ``SimulationSession.start``, summed over scenarios.
    setup_s: float = 0.0
    #: Host seconds of iteration 0, summed over scenarios.
    first_iter_s: float = 0.0
    #: Host seconds of every iteration >= 1, one sample per iteration.
    steady_iter_s: List[float] = field(default_factory=list)
    results: List[ScenarioResult] = field(default_factory=list)
    #: Paper-claim violations found in the pass's outputs.
    claim_failures: List[str] = field(default_factory=list)

    def run_scenario(self, scenario: Scenario) -> ScenarioResult:
        """``run_scenario`` with a host clock read between its phases."""
        started = time.perf_counter()
        session = SimulationSession.start(scenario)
        built = time.perf_counter()
        session.run_next_iteration()
        first_done = time.perf_counter()
        self.setup_s += built - started
        self.first_iter_s += first_done - built
        while session.completed < scenario.num_iterations:
            began = time.perf_counter()
            session.run_next_iteration()
            self.steady_iter_s.append(time.perf_counter() - began)
        result = session.result(wall_time=time.perf_counter() - started)
        self.results.append(result)
        return result


# --------------------------------------------------------------------------- #
# Workloads
# --------------------------------------------------------------------------- #


def _fattree_moe_1k(seed: int, record: PassRecord) -> None:
    scenario = scale_scenario(1000, "fattree", num_iterations=4)
    record.run_scenario(replace(scenario, simulation=simulation_config(seed)))


def _photonic_llama_128(seed: int, record: PassRecord) -> None:
    record.run_scenario(
        Scenario(
            workload=paper_trace_workload(pp=2, dp=16, tp=4),
            cluster=replace(perlmutter_testbed(num_nodes=32), nic_ports_per_gpu=2),
            backend="photonic",
            knobs={
                "network_mode": "flow",
                "reconfiguration_delay": 0.015,
                "provisioning": "profile",
            },
            num_iterations=3,
            simulation=simulation_config(seed),
            name="photonic-llama-128",
        )
    )


#: Mid-iteration-0 faults of ``fattree_faulted_128``: the whole electrical
#: tier drops to 90% capacity and GPU 0's NIC attachment fails.
FAULT_TIME = 0.1
FAULT_PLAN = FaultPlan(
    events=(
        FaultEvent(
            time=FAULT_TIME,
            kind=FaultKind.LINK_DEGRADE,
            link_kind="electrical",
            fraction=0.9,
        ),
        FaultEvent(
            time=FAULT_TIME, kind=FaultKind.LINK_FAIL, src="gpu0", dst="gpu0.nic*"
        ),
    )
)


def _fattree_faulted_128(seed: int, record: PassRecord) -> None:
    record.run_scenario(
        Scenario(
            workload=small_test_workload(pp=1, dp=32, tp=4),
            cluster=replace(perlmutter_testbed(num_nodes=32), nic_ports_per_gpu=2),
            backend="fattree",
            knobs={"network_mode": "flow", "faults": FAULT_PLAN},
            num_iterations=3,
            simulation=simulation_config(seed),
            name="fattree-faulted-128",
        )
    )


def _fig8_analytic(seed: int, record: PassRecord) -> None:
    # The sweep runs every scenario through the runner's module-level
    # ``run_scenario`` hook; the pass swaps in its clocked twin for its own
    # duration only.
    original = runner_module.run_scenario
    runner_module.run_scenario = record.run_scenario
    try:
        points = reconfiguration_latency_sweep(
            paper_trace_workload(),
            paper_trace_cluster(),
            FIG8_DELAYS,
            num_iterations=3,
            config=SystemConfig(simulation=simulation_config(seed), num_iterations=3),
            runner=ExperimentRunner(executor="serial", memoize=False),
        )
    finally:
        runner_module.run_scenario = original
    record.claim_failures.extend(fig8_claim_failures(points))


def fig8_claim_failures(points) -> List[str]:
    """The paper's Fig. 8 claims on exposed reconfiguration time.

    Exposed time does not decrease as the switching delay grows, and with
    provisioning on it is never above provisioning off at the same delay.
    The order of iteration times is deliberately not checked: under compute
    jitter it can flip by a fraction of a percent.
    """
    failures = []
    exposed = {
        (point.reconfiguration_delay, point.provisioning): point.exposed_reconfig_time
        for point in points
    }
    delays = sorted({delay for delay, _ in exposed})
    for provisioning in (False, True):
        for low, high in zip(delays, delays[1:]):
            before = exposed[(low, provisioning)]
            after = exposed[(high, provisioning)]
            if after < before:
                failures.append(
                    f"provisioning={provisioning}: exposed time fell from "
                    f"{before!r} at {low:g}s to {after!r} at {high:g}s"
                )
    for delay in delays:
        on, off = exposed[(delay, True)], exposed[(delay, False)]
        if on > off:
            failures.append(
                f"delay {delay:g}s: provisioning on exposes {on!r}, off {off!r}"
            )
    return failures


#: Workload name -> function filling a :class:`PassRecord` for a seed.
WORKLOADS: Dict[str, Callable[[int, PassRecord], None]] = {
    "fattree_moe_1k": _fattree_moe_1k,
    "photonic_llama_128": _photonic_llama_128,
    "fig8_analytic": _fig8_analytic,
    "fattree_faulted_128": _fattree_faulted_128,
}


def run_pass(workload: str, seed: int, tracer=None) -> PassRecord:
    """One clocked pass over ``workload``, with the expansion memo cold.

    The collective-expansion memo is process-wide; clearing it first makes
    every pass's iteration 0 pay the same cold-memo cost a fresh process does.
    The earlier passes' garbage is collected before the clock starts, so a
    pass does not pay for its predecessor's object graph.  A
    :class:`~spans.Tracer` given as ``tracer`` accounts host time outside its
    spans over exactly the interval ``wall_s`` covers.
    """
    expansion_cache_clear()
    gc.collect()
    record = PassRecord()
    started = time.perf_counter()
    if tracer is not None:
        tracer.start(started)
    WORKLOADS[workload](seed, record)
    ended = time.perf_counter()
    if tracer is not None:
        tracer.stop(ended)
    record.wall_s = ended - started
    return record


def result_digest(results: List[ScenarioResult]) -> str:
    """SHA-256 over every scenario's simulated statistics.

    Covers iteration times, reconfiguration counts, blocking time and the
    summary metrics; host-side fields (``wall_time``, ``worker``) are left
    out.  Floats serialize by ``repr``, so the digest is exact.
    """
    payload = [
        {
            "name": result.name,
            "iteration_times": list(result.iteration_times),
            "reconfigurations": list(result.reconfigurations),
            "reconfig_blocking": list(result.reconfig_blocking),
            "metrics": dict(result.metrics),
        }
        for result in results
    ]
    canonical = json.dumps(payload, sort_keys=True)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()
