"""High-level facade: simulate a workload on any registered fabric backend.

:class:`PhotonicRailSystem` bundles the pieces a user otherwise wires by hand
(cluster, workload DAG, device mesh, fabric, Opus shim/controller, executor)
behind a small API.  Since the fabric-agnostic experiment layer landed
(:mod:`repro.experiments`), the facade is a thin wrapper over the backend
registry — :meth:`PhotonicRailSystem.run_backend` simulates the workload on
*any* registered fabric, while :meth:`PhotonicRailSystem.run` /
:meth:`PhotonicRailSystem.run_baseline` keep the photonic/electrical API:

* :meth:`PhotonicRailSystem.run` — simulate N iterations on the photonic rail;
* :meth:`PhotonicRailSystem.run_baseline` — the same workload on electrical
  (fully connected) rails;
* :func:`reconfiguration_latency_sweep` — the Fig. 8 experiment, now driven
  through the memoized parallel :class:`~repro.experiments.runner.ExperimentRunner`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

from ..errors import ConfigurationError
from ..experiments.backends import create_network
from ..experiments.runner import ExperimentRunner, Scenario, ScenarioResult
from ..parallelism.config import WorkloadConfig
from ..parallelism.dag import IterationDAG, build_iteration_dag
from ..parallelism.groups import GroupRegistry
from ..parallelism.mesh import DeviceMesh
from ..parallelism.trace import TrainingTrace
from ..simulator.executor import DAGExecutor, SimulationConfig
from ..simulator.network import NetworkModel
from ..topology.devices import ClusterSpec
from .network import PhotonicRailNetworkModel


@dataclass
class SystemConfig:
    """Knobs shared by every backend simulation."""

    simulation: SimulationConfig = field(default_factory=SimulationConfig)
    #: Emit FSDP collectives per layer (the paper's setting) or per stage.
    per_layer_fsdp: bool = True
    num_iterations: int = 2


class PhotonicRailSystem:
    """One workload on one cluster, simulated end to end on any backend."""

    def __init__(
        self,
        workload: WorkloadConfig,
        cluster: ClusterSpec,
        config: Optional[SystemConfig] = None,
    ) -> None:
        if workload.world_size > cluster.num_gpus:
            raise ConfigurationError(
                f"workload needs {workload.world_size} GPUs, cluster has "
                f"{cluster.num_gpus}"
            )
        self.workload = workload
        self.cluster = cluster
        self.config = config or SystemConfig()
        self.dag: IterationDAG = build_iteration_dag(
            workload, cluster, self.config.per_layer_fsdp
        )
        self.mesh: DeviceMesh = self.dag.mesh
        self.registry = GroupRegistry(self.mesh)

    # ------------------------------------------------------------------ #
    # Simulations
    # ------------------------------------------------------------------ #

    def run_backend(
        self,
        backend: str,
        num_iterations: Optional[int] = None,
        **knobs: object,
    ) -> Tuple[TrainingTrace, NetworkModel]:
        """Simulate the workload on any registered fabric backend.

        ``knobs`` are backend-specific (see
        :func:`repro.experiments.backends.available_backends`); the freshly
        built network model is returned alongside the trace so callers can
        inspect controller state, installed circuits, etc.
        """
        network = create_network(
            backend, self.cluster, self.mesh, registry=self.registry, **knobs
        )
        executor = DAGExecutor(
            self.dag, self.cluster, network, config=self.config.simulation
        )
        trace = executor.run_training(num_iterations or self.config.num_iterations)
        return trace, network

    def run(
        self,
        reconfiguration_delay: Optional[float] = None,
        provisioning: bool = True,
        num_iterations: Optional[int] = None,
    ) -> Tuple[TrainingTrace, PhotonicRailNetworkModel]:
        """Simulate the workload on photonic rails under Opus.

        Parameters
        ----------
        reconfiguration_delay:
            OCS switching delay in seconds (None = the cluster's OCS
            technology default).
        provisioning:
            Enable speculative provisioning after the profiling iteration.
        num_iterations:
            Number of iterations to simulate (default from the system config).
        """
        trace, network = self.run_backend(
            "photonic",
            num_iterations=num_iterations,
            reconfiguration_delay=reconfiguration_delay,
            provisioning=provisioning,
        )
        if not isinstance(network, PhotonicRailNetworkModel):
            raise ConfigurationError(
                "the 'photonic' backend was replaced with one that does not "
                "produce a PhotonicRailNetworkModel; use run_backend() instead"
            )
        return trace, network

    def run_baseline(
        self,
        num_iterations: Optional[int] = None,
        use_tree_collectives: bool = False,
    ) -> TrainingTrace:
        """Simulate the workload on electrical (fully connected) rails."""
        trace, _network = self.run_backend(
            "electrical",
            num_iterations=num_iterations,
            use_tree_collectives=use_tree_collectives,
        )
        return trace


@dataclass(frozen=True)
class SweepPoint:
    """One point of the Fig. 8 sweep."""

    reconfiguration_delay: float
    provisioning: bool
    iteration_time: float
    normalized_iteration_time: float
    reconfigurations_per_iteration: float
    exposed_reconfig_time: float


def reconfiguration_latency_sweep(
    workload: WorkloadConfig,
    cluster: ClusterSpec,
    delays: Sequence[float],
    num_iterations: int = 3,
    config: Optional[SystemConfig] = None,
    runner: Optional[ExperimentRunner] = None,
    max_workers: Optional[int] = None,
) -> List[SweepPoint]:
    """Run the Fig. 8 experiment: iteration time vs reconfiguration latency.

    For every delay in ``delays`` the workload is simulated twice (with and
    without provisioning); iteration times are normalized to the electrical
    fully-connected baseline (the paper's "reconfiguration latency 0" case).
    The profiling iteration is excluded from the averages.

    The grid is fanned out over the :class:`ExperimentRunner`'s parallel
    workers, and repeated (delay, provisioning) points hit its memoization
    cache instead of being re-simulated.
    """
    delays = list(delays)
    system_config = config or SystemConfig(num_iterations=num_iterations)
    runner = runner or ExperimentRunner(max_workers=max_workers)

    base = Scenario(
        workload=workload,
        cluster=cluster,
        backend="photonic",
        num_iterations=num_iterations,
        simulation=system_config.simulation,
        per_layer_fsdp=system_config.per_layer_fsdp,
        name="fig8",
    )
    baseline = runner.run(
        Scenario(
            workload=workload,
            cluster=cluster,
            backend="electrical",
            num_iterations=num_iterations,
            simulation=system_config.simulation,
            per_layer_fsdp=system_config.per_layer_fsdp,
            name="fig8-baseline",
        )
    )
    baseline_time = baseline.metrics["steady_iteration_time"]
    if baseline_time <= 0:
        raise ConfigurationError("baseline iteration time must be positive")

    results = runner.sweep(
        base,
        {
            "reconfiguration_delay": delays,
            "provisioning": [False, True],
        },
    )
    points: List[SweepPoint] = []
    for (delay, provisioning), result in zip(
        ((d, p) for d in delays for p in (False, True)), results
    ):
        points.append(_sweep_point(delay, provisioning, result, baseline_time))
    return points


def _sweep_point(
    delay: float, provisioning: bool, result: ScenarioResult, baseline_time: float
) -> SweepPoint:
    return SweepPoint(
        reconfiguration_delay=delay,
        provisioning=provisioning,
        iteration_time=result.metrics["steady_iteration_time"],
        normalized_iteration_time=result.metrics["steady_iteration_time"]
        / baseline_time,
        reconfigurations_per_iteration=result.metrics[
            "reconfigurations_per_iteration"
        ],
        exposed_reconfig_time=result.metrics["exposed_reconfig_time"],
    )
