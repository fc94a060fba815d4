"""Bundled scenarios contrasting the analytic and flow-level network modes.

Four reference scenarios anchor the flow-level network mode:

* :func:`contention_free_scenario` — a DP-only workload on fully-connected
  electrical rails.  Every scale-out collective owns its links, so the flow
  expansion must reproduce the analytic alpha–beta prediction (the modes are
  asserted equal within 2% in the test suite).
* :func:`shared_uplink_incast_scenario` — the packet-fabric divergence
  demonstration: four per-rail DP rings run concurrently over a small-radix,
  oversubscribed fat-tree whose edge uplinks their routes share.  The
  analytic model prices each ring as if it owned the uplink; the flow-level
  mode max–min fair shares it, so flow mode is strictly slower — contention
  the analytic mode cannot see.
* :func:`provisioned_photonic_scenario` — the circuit-switched equivalence
  anchor: a DP-only workload on photonic rails, where the single parallelism
  axis means circuits are installed once (profiling iteration) and never
  reconfigured again.  Flows ride dedicated circuits without any sharing, so
  flow mode must agree with the analytic photonic model within 5%.
* :func:`circuit_thrash_scenario` — the circuit-switched divergence
  demonstration: a small MoE workload whose DP and EP axes need mutually
  conflicting circuit configurations on every rail, so the axes alternating
  within each iteration defeats coalescing and forces steady-state
  reconfigurations.  The EP AllToAll's direct exchange additionally needs
  ``n-1`` distinct neighbors per rank (paper constraint C1) while the
  crossbar holds a ring, so the distance-2+ exchanges forward through
  intermediate hosts and contend for the ring circuits — stalls and
  contention the analytic model, which prices every collective at the full
  port rate and analytic drain times, structurally underprices.  Flow mode
  is strictly slower.

:func:`compare_network_modes` runs any scenario under both modes and reports
the slowdown, which is how the ``repro-sim`` CLI and the tests consume these.

The module also hosts the **degraded-fabric scenario family**
(:func:`degraded_fabric_scenario`, :func:`degraded_fabric_grid`): concurrent
per-rail DP rings on the fat-tree, rail-optimized, and photonic backends
under three fault conditions — ``healthy``, ``degraded`` (every fabric link
at 90% capacity), and ``failed`` (one GPU's NIC attachment down, its flows
detouring over the scale-up interconnect through a domain-mate's rail).  The
``healthy < degraded < failed`` completion-time ordering is asserted as
tier-1 tests on all three fabrics, and a 1k-endpoint version runs as the
non-blocking ``-m slow`` CI smoke.

The module additionally hosts the **large-scale scenario family**
(:func:`scale_scenario`, :func:`scale_scenario_grid`): 1k/4k/10k-endpoint
fabrics running a multi-collective MoE steady state (concurrent per-rail FSDP
rings across the DP axis plus expert-parallel AllToAlls), on the fat-tree,
rail-optimized, and photonic backends.  These are the workloads the
flow-simulator scaling work (vectorized water-filling, component-local
reallocation, route tables) is measured against, runnable directly via
``repro-sim scale`` and swept in parallel through the experiment runner.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence

from ..errors import ConfigurationError
from ..parallelism.config import (
    ModelConfig,
    ParallelismConfig,
    TrainingConfig,
    WorkloadConfig,
)
from ..parallelism.workloads import small_test_workload
from ..simulator.faults import FaultEvent, FaultKind, FaultPlan
from ..topology.devices import (
    ClusterSpec,
    ElectricalSwitchSpec,
    OCSTechnology,
    perlmutter_testbed,
)
from ..units import GBPS
from .runner import ExperimentRunner, Scenario, ScenarioResult

#: A deliberately tiny packet switch: with radix 4 every edge switch hosts
#: only two NIC ports, so cross-node routes must climb into the shared
#: aggregation/core tiers — the preconditions for link contention.
MINI_SWITCH = ElectricalSwitchSpec(
    name="mini-4x400G",
    radix=4,
    port_bandwidth=400 * GBPS,
    cost_dollars=1_000.0,
    power_watts=100.0,
)


def mini_fat_tree_cluster(num_nodes: int = 4) -> ClusterSpec:
    """A Perlmutter-style testbed whose fat-tree uses the tiny radix-4 switch."""
    return replace(perlmutter_testbed(num_nodes=num_nodes), electrical_switch=MINI_SWITCH)


def contention_free_scenario(num_iterations: int = 2) -> Scenario:
    """DP-only workload on fully-connected rails: no shared links anywhere.

    TP=4 keeps tensor parallelism on NVLink; the single DP axis puts one rank
    per node on each rail, and the fully-connected electrical fabric gives
    every rail pair a dedicated route.
    """
    return Scenario(
        workload=small_test_workload(pp=1, dp=2, tp=4),
        cluster=perlmutter_testbed(num_nodes=2),
        backend="electrical",
        num_iterations=num_iterations,
        name="contention-free",
    )


def shared_uplink_incast_scenario(
    oversubscription: float = 4.0, num_iterations: int = 2
) -> Scenario:
    """Concurrent per-rail DP rings sharing oversubscribed fat-tree uplinks.

    With TP=4 and DP=4 on four nodes, each rail carries one DP ring and all
    four rings run concurrently (they serve different tensor shards of the
    same layer).  On the mini fat-tree their cross-node hops funnel through
    the same edge-to-aggregation uplinks, which ``oversubscription`` thins
    further — a shared-link incast the analytic mode prices away.
    """
    return Scenario(
        workload=small_test_workload(pp=1, dp=4, tp=4),
        cluster=mini_fat_tree_cluster(num_nodes=4),
        backend="fattree",
        knobs={"oversubscription": float(oversubscription)},
        num_iterations=num_iterations,
        name="shared-uplink-incast",
    )


def provisioned_photonic_scenario(num_iterations: int = 3) -> Scenario:
    """DP-only workload on photonic rails: provisioned, contention-free.

    With a single scale-out axis every rail installs its DP circuit during
    the profiling iteration and never reconfigures again; flows then ride
    dedicated point-to-point circuits at the full port rate.  Flow mode must
    therefore reproduce the analytic photonic model's steady-state iteration
    time (within 5%) — the circuit-switched analogue of
    :func:`contention_free_scenario`.
    """
    return Scenario(
        workload=small_test_workload(pp=1, dp=2, tp=4),
        cluster=perlmutter_testbed(num_nodes=2),
        backend="photonic",
        num_iterations=num_iterations,
        name="provisioned-photonic",
    )


#: A deliberately small MoE transformer: large enough for its EP AllToAll and
#: DP FSDP traffic to fill the rails, small enough to simulate in tests.
TINY_MOE_MODEL = ModelConfig(
    name="Tiny-MoE",
    num_layers=4,
    hidden_size=1024,
    ffn_hidden_size=4096,
    num_attention_heads=8,
    num_kv_heads=8,
    vocab_size=32_000,
    seq_length=2048,
    num_experts=4,
    moe_top_k=2,
)


def tiny_moe_workload() -> WorkloadConfig:
    """A TP=4 / EP=4 / DP=2 MoE workload whose DP and EP axes alternate.

    EP groups span four consecutive scale-up domains (a four-circuit ring per
    rail needing both NIC ports of every GPU), DP pairs span domains four
    apart (one port-0 circuit per rail).  The two axes' configurations
    conflict on every rail, so each DP↔EP alternation inside an iteration
    forces a reconfiguration — the thrash :func:`circuit_thrash_scenario`
    measures.
    """
    return WorkloadConfig(
        model=TINY_MOE_MODEL,
        parallelism=ParallelismConfig(tp=4, dp=2, ep=4, use_fsdp=True),
        training=TrainingConfig(global_batch_size=2 * 2 * 4, micro_batch_size=2),
    )


def circuit_thrash_cluster() -> ClusterSpec:
    """Eight Perlmutter nodes with 2-port NICs (rings over >2 domains need both)."""
    return replace(perlmutter_testbed(num_nodes=8), nic_ports_per_gpu=2)


def circuit_thrash_scenario(
    num_iterations: int = 3, reconfiguration_delay: float = 1e-3
) -> Scenario:
    """Alternating DP/EP axes defeating coalescing on photonic rails.

    Every iteration alternates FSDP (DP) collectives with EP AllToAlls whose
    circuit configurations conflict on every rail, so the shim reconfigures
    in steady state (coalescing cannot help — the axes genuinely need
    different crossbars).  At flow level the AllToAll's distance-2+ exchanges
    forward through intermediate hosts over the installed ring (constraint
    C1), contending for circuits the analytic model prices as dedicated, and
    the contended drains push subsequent switching events later.  Flow mode
    is strictly slower than analytic — reconfiguration stalls under live
    contention that analytic pricing cannot see.
    """
    return Scenario(
        workload=tiny_moe_workload(),
        cluster=circuit_thrash_cluster(),
        backend="photonic",
        knobs={"reconfiguration_delay": float(reconfiguration_delay)},
        num_iterations=num_iterations,
        name="circuit-thrash",
    )


# --------------------------------------------------------------------------- #
# Routing-policy and reactive-control scenario families
# --------------------------------------------------------------------------- #

#: Routing policies the adaptive-routing family sweeps.
ROUTING_SCENARIO_POLICIES = ("single", "ecmp", "adaptive", "spray")

#: Provisioning modes the reactive-vs-profile family contrasts.
REACTIVE_SCENARIO_MODES = ("profile", "none", "reactive")


def adaptive_routing_scenario(
    routing_policy: str = "single",
    oversubscription: float = 4.0,
    num_iterations: int = 2,
) -> Scenario:
    """The shared-uplink incast under one multipath routing policy.

    Same traffic as :func:`shared_uplink_incast_scenario` — four concurrent
    per-rail DP rings funneling through oversubscribed fat-tree uplinks — but
    run in flow mode under a :mod:`~repro.simulator.routing` policy.  The
    mini fat-tree's edge switches each have two aggregation uplinks, so every
    cross-node pair has equal-cost paths for ``ecmp``/``adaptive`` to spread
    over and ``spray`` to stripe across; ``single`` deterministically picks
    one and piles every ring onto it.  The test suite asserts multipath never
    loses to single-path on this incast.
    """
    if routing_policy not in ROUTING_SCENARIO_POLICIES:
        raise ConfigurationError(
            f"unknown routing policy {routing_policy!r}; "
            f"use one of {ROUTING_SCENARIO_POLICIES}"
        )
    knobs: Dict[str, object] = {
        "network_mode": "flow",
        "oversubscription": float(oversubscription),
    }
    if routing_policy != "single":
        # The default policy stays knob-free so the single variant keeps the
        # configuration hash of a plain flow-mode incast run.
        knobs["routing_policy"] = routing_policy
    return Scenario(
        workload=small_test_workload(pp=1, dp=4, tp=4),
        cluster=mini_fat_tree_cluster(num_nodes=4),
        backend="fattree",
        knobs=knobs,
        num_iterations=num_iterations,
        name=f"adaptive-routing-{routing_policy}",
    )


def adaptive_routing_grid(
    policies: Sequence[str] = ROUTING_SCENARIO_POLICIES,
    oversubscription: float = 4.0,
    num_iterations: int = 2,
) -> List[Scenario]:
    """The full policy sweep, ready for ``ExperimentRunner.run_many``."""
    return [
        adaptive_routing_scenario(
            routing_policy=policy,
            oversubscription=oversubscription,
            num_iterations=num_iterations,
        )
        for policy in policies
    ]


def reactive_vs_profile_scenario(
    mode: str = "profile",
    num_iterations: int = 6,
    reconfiguration_delay: float = 1e-3,
) -> Scenario:
    """The circuit-thrash workload under one provisioning mode.

    Same alternating DP/EP axes as :func:`circuit_thrash_scenario` — every
    phase change genuinely needs a different crossbar, so whoever predicts
    the next axis earliest hides the most switching delay:

    * ``"profile"`` — the paper's design: learn the phase sequence in a
      dedicated profiling iteration, then provision speculatively from it;
    * ``"none"`` — never speculate: every phase change pays its switching
      delay on the critical path (the floor the others must beat);
    * ``"reactive"`` — no profiling iteration: the telemetry loop learns the
      phase structure online from the completion stream and only starts
      speculating once blocking/hotspot evidence has accumulated (see
      :class:`~repro.core.controller.ReactiveReconfigurator`).

    Six iterations give the reactive controller its learning runway (it
    speculates from iteration 1–2 on) while keeping the run test-sized.  The
    test suite asserts reactive lands strictly under ``"none"`` and within a
    bounded factor of ``"profile"``.
    """
    if mode not in REACTIVE_SCENARIO_MODES:
        raise ConfigurationError(
            f"unknown provisioning mode {mode!r}; "
            f"use one of {REACTIVE_SCENARIO_MODES}"
        )
    return Scenario(
        workload=tiny_moe_workload(),
        cluster=circuit_thrash_cluster(),
        backend="photonic",
        knobs={
            "network_mode": "flow",
            "reconfiguration_delay": float(reconfiguration_delay),
            "provisioning": mode,
        },
        num_iterations=num_iterations,
        name=f"reactive-vs-profile-{mode}",
    )


# --------------------------------------------------------------------------- #
# Large-scale scenario family (1k / 4k / 10k endpoints)
# --------------------------------------------------------------------------- #

#: Endpoint counts of the published scale family.
SCALE_ENDPOINTS = (1_000, 4_000, 10_000)

#: Backends the scale family targets (all run both network modes).
SCALE_BACKENDS = ("fattree", "railopt", "photonic")

#: Expert-parallel width of the scale workload: EP groups span 10 consecutive
#: scale-up domains (the AllToAll's ring forwarding stays short), DP groups
#: span the remaining node dimension and carry the fabric-scale rings.
_SCALE_EP = 10

#: GPUs per scale-up domain in the scale family (Perlmutter-style nodes).
_SCALE_GPUS_PER_NODE = 4

#: A synthetic high-radix OCS for cluster-scale photonic rails: Table 3's
#: real products top out at radix 1008, which caps a 2-port-NIC rail fabric
#: at 504 scale-up domains; the scale family models the paper's hypergrowth
#: extrapolation where each rail OCS (or OCS group) offers enough ports for
#: thousands of domains at SiP-class switching speed.
SCALE_OCS = OCSTechnology(
    name="Scale-SiP",
    vendor="synthetic",
    reconfiguration_time=7e-6,
    radix=8192,
)

#: A compact MoE transformer whose FSDP and EP traffic saturates the rails
#: without inflating the DAG: two layers, 10 experts (matching the EP width).
SCALE_MOE_MODEL = ModelConfig(
    name="Scale-MoE",
    num_layers=2,
    hidden_size=2048,
    ffn_hidden_size=8192,
    num_attention_heads=16,
    num_kv_heads=16,
    vocab_size=32_000,
    seq_length=2048,
    num_experts=_SCALE_EP,
    moe_top_k=2,
)


def scale_cluster(num_endpoints: int) -> ClusterSpec:
    """A Perlmutter-style cluster with ``num_endpoints`` GPUs.

    2-port NICs let the photonic planner build rings over more than two
    scale-up domains (constraint C1/C3), and the synthetic high-radix
    :data:`SCALE_OCS` lets one rail crossbar span every domain.
    """
    _check_scale_endpoints(num_endpoints)
    return replace(
        perlmutter_testbed(num_nodes=num_endpoints // _SCALE_GPUS_PER_NODE),
        nic_ports_per_gpu=2,
        ocs=SCALE_OCS,
    )


def scale_workload(num_endpoints: int) -> WorkloadConfig:
    """The multi-collective steady-state workload of the scale family.

    TP=4 keeps tensor parallelism on NVLink; EP=10 spans consecutive domains
    with AllToAll dispatch; the DP axis (FSDP) covers the remaining node
    dimension, so every rail carries ``dp`` concurrent EP exchanges and
    ``ep`` concurrent FSDP rings in steady state.  One micro-batch per
    iteration and stage-aggregated FSDP keep the DAG compact (a few thousand
    operations) while the expanded flow count grows with the fabric — which
    is exactly the regime the flow-simulator scaling work targets.
    """
    _check_scale_endpoints(num_endpoints)
    num_nodes = num_endpoints // _SCALE_GPUS_PER_NODE
    dp = num_nodes // _SCALE_EP
    parallelism = ParallelismConfig(
        tp=_SCALE_GPUS_PER_NODE, dp=dp, ep=_SCALE_EP, use_fsdp=True
    )
    training = TrainingConfig(
        global_batch_size=dp * 2,
        micro_batch_size=2,
        # Scalar-payload sync AllReduces expand into group-size flow rings;
        # at 10k endpoints they would dominate the flow count while carrying
        # bytes that round to nothing, so the scale family omits them.
        optimizer_sync_collectives=0,
    )
    return WorkloadConfig(
        model=SCALE_MOE_MODEL, parallelism=parallelism, training=training
    )


def _check_scale_endpoints(num_endpoints: int) -> None:
    per_block = _SCALE_GPUS_PER_NODE * _SCALE_EP
    if num_endpoints <= 0 or num_endpoints % per_block != 0:
        raise ConfigurationError(
            f"scale scenarios need a positive multiple of {per_block} "
            f"endpoints (tp={_SCALE_GPUS_PER_NODE} x ep={_SCALE_EP} x dp), "
            f"got {num_endpoints}"
        )


def scale_scenario(
    num_endpoints: int = 1_000,
    backend: str = "fattree",
    network_mode: str = "flow",
    num_iterations: int = 2,
) -> Scenario:
    """One scale-family point: ``num_endpoints`` GPUs on ``backend``.

    Defaults to flow mode — the whole point of the family is exercising the
    flow simulator at fabric scale — but ``network_mode="analytic"`` gives
    the alpha-beta reference for the same configuration.
    """
    return Scenario(
        workload=scale_workload(num_endpoints),
        cluster=scale_cluster(num_endpoints),
        backend=backend,
        knobs={"network_mode": network_mode},
        num_iterations=num_iterations,
        # Stage-aggregated FSDP: per-layer chains add DAG operations without
        # changing steady-state traffic at this layer count.
        per_layer_fsdp=False,
        name=f"scale-{backend}-{num_endpoints}",
    )


def scale_scenario_grid(
    endpoints: Sequence[int] = SCALE_ENDPOINTS,
    backends: Sequence[str] = SCALE_BACKENDS,
    network_mode: str = "flow",
    num_iterations: int = 2,
) -> List[Scenario]:
    """The full scale family, ready for ``ExperimentRunner.run_many``."""
    return [
        scale_scenario(
            num_endpoints=count,
            backend=backend,
            network_mode=network_mode,
            num_iterations=num_iterations,
        )
        for count in endpoints
        for backend in backends
    ]


# --------------------------------------------------------------------------- #
# Degraded-fabric scenario family (fault injection)
# --------------------------------------------------------------------------- #

#: Health conditions of the degraded-fabric family, ordered by severity.
DEGRADED_CONDITIONS = ("healthy", "degraded", "failed")

#: Backends the degraded-fabric family targets.
DEGRADED_BACKENDS = ("fattree", "railopt", "photonic")

#: Remaining capacity fraction of the "degraded" condition (degraded by 10%).
DEGRADED_FRACTION = 0.9


def degraded_fabric_cluster(num_nodes: int = 4) -> ClusterSpec:
    """The family's cluster: Perlmutter nodes, 2-port NICs, tiny switches.

    The :data:`MINI_SWITCH` keeps the electrical fabrics multi-tier (so the
    degraded condition touches real shared uplinks) and the 2-port NICs let
    the photonic planner build rings over every scale-up domain (constraint
    C1/C3).  Scales from the 4-node tier-1 configuration up to the
    1k-endpoint smoke run (250 nodes; the default piezo OCS radix of 576
    caps the family at 288 nodes).
    """
    return replace(
        perlmutter_testbed(num_nodes=num_nodes),
        electrical_switch=MINI_SWITCH,
        nic_ports_per_gpu=2,
    )


def degraded_fabric_fault_plan(
    backend: str, condition: str, time: float = 0.0
) -> Optional[FaultPlan]:
    """The fault plan realizing ``condition`` on ``backend``.

    * ``healthy`` — no plan (a plan with zero events is bit-for-bit
      identical, which the test suite asserts separately);
    * ``degraded`` — every fabric link degraded by 10%: the whole
      electrical tier on the packet fabrics, the host links (the optics the
      paper's degradation regime is about) on the photonic fabric;
    * ``failed`` — GPU 0's scale-out NIC attachment down (both host
      links).  Its flows detour over the scale-up interconnect through a
      domain-mate's NIC, sharing that GPU's rail with its own ring — a
      strictly heavier perturbation than the uniform 10% degrade.  A failed
      *parallel* fabric link would be absorbed for free by deterministic
      single-path routing (the twin uplink takes over at equal capacity),
      which is why the family kills a component whose loss genuinely
      shrinks the bottleneck cut.

    ``time`` is the instant the fault strikes.  The default of 0.0 keeps the
    family's historical configuration hashes; a mid-run time makes the
    conditions share a healthy prefix — the shape
    :func:`degraded_fabric_fork_grid` exploits for fork-sweeps.
    """
    if condition not in DEGRADED_CONDITIONS:
        raise ConfigurationError(
            f"unknown condition {condition!r}; use one of {DEGRADED_CONDITIONS}"
        )
    if backend not in DEGRADED_BACKENDS:
        raise ConfigurationError(
            f"the degraded-fabric family targets {DEGRADED_BACKENDS}, "
            f"got {backend!r}"
        )
    if condition == "healthy":
        return None
    if condition == "degraded":
        link_kind = "host" if backend == "photonic" else "electrical"
        return FaultPlan(
            events=(
                FaultEvent(
                    time=time,
                    kind=FaultKind.LINK_DEGRADE,
                    link_kind=link_kind,
                    fraction=DEGRADED_FRACTION,
                ),
            )
        )
    return FaultPlan(
        events=(
            FaultEvent(
                time=time,
                kind=FaultKind.LINK_FAIL,
                src="gpu0",
                dst="gpu0.nic*",
            ),
        )
    )


def degraded_fabric_scenario(
    backend: str = "fattree",
    condition: str = "healthy",
    num_nodes: int = 4,
    network_mode: str = "flow",
    num_iterations: int = 2,
    fault_time: float = 0.0,
) -> Scenario:
    """One degraded-fabric point: concurrent per-rail DP rings under faults.

    TP=4 keeps tensor parallelism on NVLink and the DP axis spans every
    node, so each rail carries one fabric-wide FSDP ring and all four run
    concurrently — the regime where losing capacity hurts.  The family is
    asserted (as tier-1 tests) to order ``healthy < degraded < failed`` in
    completion time on all three fabrics.  ``fault_time`` moves the fault
    from run start (the default) to a mid-run instant.
    """
    plan = degraded_fabric_fault_plan(backend, condition, time=fault_time)
    knobs: dict = {"network_mode": network_mode}
    if plan is not None:
        knobs["faults"] = plan
    return Scenario(
        workload=small_test_workload(pp=1, dp=num_nodes, tp=4),
        cluster=degraded_fabric_cluster(num_nodes),
        backend=backend,
        knobs=knobs,
        num_iterations=num_iterations,
        name=f"degraded-{backend}-{condition}",
    )


def degraded_fabric_grid(
    backends: Sequence[str] = DEGRADED_BACKENDS,
    conditions: Sequence[str] = DEGRADED_CONDITIONS,
    num_nodes: int = 4,
    network_mode: str = "flow",
    num_iterations: int = 2,
) -> List[Scenario]:
    """The full family, ready for ``ExperimentRunner.run_many``."""
    return [
        degraded_fabric_scenario(
            backend=backend,
            condition=condition,
            num_nodes=num_nodes,
            network_mode=network_mode,
            num_iterations=num_iterations,
        )
        for backend in backends
        for condition in conditions
    ]


def degraded_fabric_fork_grid(
    backend: str = "fattree",
    fault_time: float = 1.0,
    conditions: Sequence[str] = DEGRADED_CONDITIONS,
    num_nodes: int = 4,
    network_mode: str = "flow",
    num_iterations: int = 2,
) -> List[Scenario]:
    """One backend's conditions with the faults striking at ``fault_time``.

    These points agree on everything except their fault schedules, and the
    schedules agree (vacuously — the common prefix is empty) until
    ``fault_time``: exactly the shape ``ExperimentRunner.run_many(...,
    fork=True)`` simulates once up to the divergence and branches.  The
    fork-sweep benchmark measures this grid forked vs straight-through.
    """
    return [
        degraded_fabric_scenario(
            backend=backend,
            condition=condition,
            num_nodes=num_nodes,
            network_mode=network_mode,
            num_iterations=num_iterations,
            fault_time=fault_time,
        )
        for condition in conditions
    ]


#: Severity sweep of :func:`degraded_fabric_severity_grid`: a healthy
#: baseline plus five uniform degradation levels, mild to severe.
DEGRADED_SEVERITIES = (None, 0.95, 0.9, 0.85, 0.8, 0.75)


def degraded_fabric_severity_grid(
    backend: str = "fattree",
    fractions: Sequence[Optional[float]] = DEGRADED_SEVERITIES,
    fault_time: float = 1.0,
    num_nodes: int = 4,
    network_mode: str = "flow",
    num_iterations: int = 2,
) -> List[Scenario]:
    """Sweep degradation severity on one backend, diverging at ``fault_time``.

    Every point shares the scenario up to ``fault_time``, when its fabric
    links degrade to a different remaining-capacity ``fraction`` (``None``
    is the healthy baseline — no fault at all).  A wider grid than
    :func:`degraded_fabric_fork_grid`'s three conditions, so the shared
    prefix is amortized over more branches; this is the fork-sweep
    benchmark's grid.
    """
    link_kind = "host" if backend == "photonic" else "electrical"
    scenarios = []
    for fraction in fractions:
        knobs: dict = {"network_mode": network_mode}
        label = "healthy"
        if fraction is not None:
            knobs["faults"] = FaultPlan(
                events=(
                    FaultEvent(
                        time=fault_time,
                        kind=FaultKind.LINK_DEGRADE,
                        link_kind=link_kind,
                        fraction=fraction,
                    ),
                )
            )
            label = f"x{fraction:g}"
        scenarios.append(
            Scenario(
                workload=small_test_workload(pp=1, dp=num_nodes, tp=4),
                cluster=degraded_fabric_cluster(num_nodes),
                backend=backend,
                knobs=knobs,
                num_iterations=num_iterations,
                name=f"degraded-{backend}-{label}",
            )
        )
    return scenarios


@dataclass(frozen=True)
class NetworkModeComparison:
    """Steady-state iteration times of one scenario under both network modes."""

    scenario: str
    analytic: ScenarioResult
    flow: ScenarioResult

    @property
    def analytic_time(self) -> float:
        """Steady-state iteration time under the analytic mode, seconds."""
        return self.analytic.metrics["steady_iteration_time"]

    @property
    def flow_time(self) -> float:
        """Steady-state iteration time under the flow-level mode, seconds."""
        return self.flow.metrics["steady_iteration_time"]

    @property
    def slowdown(self) -> float:
        """Flow-mode slowdown relative to analytic (1.0 = modes agree)."""
        return self.flow_time / self.analytic_time


def compare_network_modes(
    scenario: Scenario, runner: Optional[ExperimentRunner] = None
) -> NetworkModeComparison:
    """Run ``scenario`` under both network modes and report the slowdown."""
    runner = runner or ExperimentRunner(executor="serial")
    analytic = runner.run(scenario.with_knobs(network_mode="analytic"))
    flow = runner.run(scenario.with_knobs(network_mode="flow"))
    return NetworkModeComparison(scenario=scenario.name, analytic=analytic, flow=flow)
