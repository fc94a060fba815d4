"""Live simulation sessions: incremental runs, checkpoints, and forks.

A :class:`SimulationSession` owns everything one running scenario needs —
the iteration DAG, the network model, the DAG executor, the accumulating
trace — and drives it *one iteration at a time* instead of all at once.
That incremental loop is what makes three things possible:

* **checkpoint/resume** — :meth:`SimulationSession.save` spills the whole
  session (pending engine events included) to a versioned on-disk file;
  :meth:`SimulationSession.load` materializes it in a later process and
  :meth:`run_to` continues bit-for-bit where the saved run stopped;
* **fork** — :meth:`SimulationSession.fork` copies the live session via an
  in-memory pickle round trip.
  Both copies continue identically until their inputs diverge, which is the
  primitive behind the experiment runner's delta-sweeps: a grid whose points
  share a scenario prefix is simulated once up to the divergence point and
  branched, instead of re-simulated from t=0 per point
  (see :meth:`repro.experiments.runner.ExperimentRunner.run_many`);
* **mid-run divergence** — :meth:`SimulationSession.extend_faults` installs
  the tail of a branch's fault plan onto the live model, which is how a
  fork stops being a clone.

Forking and extending happen at iteration boundaries, where every collective
has drained; combined with the engine's deterministic (time, sequence)
ordering this keeps a branch's trace exactly equal to an independent
straight-through run of the full scenario — asserted across seeds and
backends in ``tests/test_properties.py``.
"""

from __future__ import annotations

import os
import pickle
import threading
import time as _time
from pathlib import Path
from typing import Dict, Optional, Sequence

from ..errors import ScenarioError, SnapshotError
from ..parallelism.dag import build_iteration_dag
from ..parallelism.groups import GroupRegistry
from ..parallelism.trace import IterationTrace, TrainingTrace
from ..simulator.executor import DAGExecutor
from ..simulator.faults import as_fault_plan
from ..simulator.metrics import iteration_metrics
from ..simulator.snapshot import SNAPSHOT_FORMAT_VERSION, SimState, Snapshottable
from .backends import create_network, fault_support
from .runner import Scenario, ScenarioResult, _steady, scenario_hash

#: Magic string identifying an on-disk session checkpoint.
CHECKPOINT_MAGIC = "repro-sim-checkpoint"


class SimulationSession(Snapshottable):
    """One live, resumable simulation of a :class:`Scenario`.

    Build with :meth:`start` (fresh) or :meth:`load` (from a checkpoint),
    advance with :meth:`run_next_iteration` / :meth:`run_to`, and condense
    into a :class:`ScenarioResult` with :meth:`result`.  ``run_scenario``
    is exactly ``start`` + ``run_to`` + ``result``.
    """

    def __init__(
        self,
        scenario: Scenario,
        executor: DAGExecutor,
    ) -> None:
        self.scenario = scenario
        self.executor = executor
        self.trace = TrainingTrace()
        #: Simulated time the next iteration starts at.
        self.clock = 0.0
        #: Number of iterations fully simulated so far.
        self.completed = 0
        #: Wall-clock seconds spent deep-copying this session in :meth:`fork`.
        self.fork_wall = 0.0

    @classmethod
    def start(cls, scenario: Scenario) -> "SimulationSession":
        """Build the DAG, network model, and executor for ``scenario``."""
        dag = build_iteration_dag(
            scenario.workload, scenario.cluster, scenario.dag_options
        )
        registry = GroupRegistry(dag.mesh)
        network = create_network(
            scenario.backend,
            scenario.cluster,
            dag.mesh,
            registry=registry,
            **dict(scenario.knobs),
        )
        executor = DAGExecutor(
            dag, scenario.cluster, network, config=scenario.simulation
        )
        return cls(scenario, executor)

    @property
    def network(self):
        """The scenario's live network model."""
        return self.executor.network

    # ------------------------------------------------------------------ #
    # Driving
    # ------------------------------------------------------------------ #

    def run_next_iteration(self) -> IterationTrace:
        """Simulate one more training iteration, continuing the clock."""
        trace = self.executor.run_iteration(
            iteration=self.completed, start_time=self.clock
        )
        self.trace.add(trace)
        self.clock = trace.end
        self.completed += 1
        return trace

    def run_to(self, num_iterations: int) -> TrainingTrace:
        """Advance until ``num_iterations`` iterations have been simulated."""
        while self.completed < num_iterations:
            self.run_next_iteration()
        return self.trace

    def fork(self) -> "SimulationSession":
        """An independent copy continuing bit-for-bit identically.

        An in-memory pickle round trip (see :meth:`Snapshottable.fork`): the
        two sessions share no mutable state, and the wall-clock cost —
        accumulated in :attr:`fork_wall` and reported by the fork-sweep
        benchmark — stays far below re-simulating the prefix.
        """
        started = _time.perf_counter()
        forked = super().fork()
        self.fork_wall += _time.perf_counter() - started
        return forked

    def extend_faults(
        self, plan: object, scenario: Optional[Scenario] = None
    ) -> None:
        """Install additional fault events on the live model (mid-run).

        ``plan`` is anything ``as_fault_plan`` accepts.  Event kinds are
        validated against what this scenario's backend/mode combination
        supports — the same check the up-front ``faults=`` knob performs —
        before touching the model.  Passing ``scenario`` rebinds
        :attr:`scenario` to the diverged configuration in the same step, so
        a later :meth:`result` is labeled (and hashed) as the branch.
        """
        plan = as_fault_plan(plan)
        if not plan.is_empty:
            supported = fault_support(
                self.scenario.backend, self.scenario.knobs.get("network_mode")
            )
            if supported is not None:
                mode = self.scenario.knobs.get("network_mode") or "analytic"
                plan.require_supported(
                    supported,
                    context=(
                        f"backend {self.scenario.backend!r} in {mode} "
                        "network mode"
                    ),
                )
            self.network.extend_fault_plan(plan)
        if scenario is not None:
            self.scenario = scenario

    # ------------------------------------------------------------------ #
    # Results
    # ------------------------------------------------------------------ #

    def result(
        self, scenario: Optional[Scenario] = None, wall_time: float = 0.0
    ) -> ScenarioResult:
        """Condense the accumulated trace into a :class:`ScenarioResult`.

        ``scenario`` defaults to :attr:`scenario`; fork-sweep branches pass
        their own diverged scenario so the result's name, knobs, and
        configuration hash describe the branch (making it cache under the
        same key as an independent run of that scenario).
        """
        scenario = scenario or self.scenario
        if self.completed != scenario.num_iterations:
            raise ScenarioError(
                f"scenario {scenario.name!r} asks for "
                f"{scenario.num_iterations} iterations but the session has "
                f"simulated {self.completed}"
            )
        per_iteration = [iteration_metrics(t) for t in self.trace.iterations]
        iteration_times = tuple(m.iteration_time for m in per_iteration)
        reconfigurations = tuple(m.num_reconfigurations for m in per_iteration)
        blocking = tuple(m.exposed_reconfig_time for m in per_iteration)
        steady_metrics = _steady(per_iteration)

        def _mean(values: Sequence[float]) -> float:
            return sum(values) / len(values)

        metrics: Dict[str, float] = {
            "mean_iteration_time": _mean(iteration_times),
            "steady_iteration_time": _mean(
                [m.iteration_time for m in steady_metrics]
            ),
            "reconfigurations_per_iteration": _mean(
                [m.num_reconfigurations for m in steady_metrics]
            ),
            "exposed_reconfig_time": _mean(
                [m.exposed_reconfig_time for m in steady_metrics]
            ),
            "compute_time": _mean([m.compute_time for m in steady_metrics]),
            "scaleout_comm_time": _mean(
                [m.scaleout_comm_time for m in steady_metrics]
            ),
            "scaleup_comm_time": _mean(
                [m.scaleup_comm_time for m in steady_metrics]
            ),
            "scaleout_bytes": _mean([m.scaleout_bytes for m in steady_metrics]),
            "total_time": self.trace.iterations[-1].end,
        }
        flow_stats = getattr(self.network, "flow_stats", None)
        if flow_stats is not None:
            # Flow-mode allocator counters (whole-run totals): how many solver
            # passes ran, over how many components and flows.
            for key, value in flow_stats.as_dict().items():
                metrics[key] = float(value)
        return ScenarioResult(
            name=scenario.name,
            backend=scenario.backend,
            config_hash=scenario_hash(scenario),
            num_iterations=scenario.num_iterations,
            knobs={
                key: value
                if isinstance(value, (int, float, bool, str, type(None)))
                else repr(value)
                for key, value in scenario.knobs.items()
            },
            iteration_times=iteration_times,
            reconfigurations=reconfigurations,
            reconfig_blocking=blocking,
            metrics=metrics,
            worker=f"{os.getpid()}:{threading.current_thread().name}",
            wall_time=wall_time,
        )

    # ------------------------------------------------------------------ #
    # On-disk checkpoints
    # ------------------------------------------------------------------ #

    def save(self, path: "Path | str") -> None:
        """Spill the session to ``path`` as a versioned checkpoint.

        The file is a pickled header — format magic, snapshot format
        version, scenario hash/name, progress counters — wrapping the same
        opaque payload :meth:`snapshot` produces, so readers can reject
        foreign files and incompatible versions *before* unpickling any
        simulation state.
        """
        state = self.snapshot()
        header = {
            "format": CHECKPOINT_MAGIC,
            "version": state.format_version,
            "kind": state.kind,
            "scenario_hash": scenario_hash(self.scenario),
            "scenario_name": self.scenario.name,
            "backend": self.scenario.backend,
            "completed_iterations": self.completed,
            "clock": self.clock,
            "payload": state.payload,
        }
        Path(path).write_bytes(
            pickle.dumps(header, protocol=pickle.HIGHEST_PROTOCOL)
        )

    @classmethod
    def read_header(cls, path: "Path | str") -> dict:
        """The checkpoint's header metadata (without the pickled payload)."""
        try:
            data = pickle.loads(Path(path).read_bytes())
        except Exception as exc:
            raise SnapshotError(
                f"cannot read checkpoint {str(path)!r}: {exc}"
            ) from exc
        if not isinstance(data, dict) or data.get("format") != CHECKPOINT_MAGIC:
            raise SnapshotError(
                f"{str(path)!r} is not a repro-sim checkpoint"
            )
        if data.get("version") != SNAPSHOT_FORMAT_VERSION:
            raise SnapshotError(
                f"checkpoint {str(path)!r} has format version "
                f"{data.get('version')!r}; this build reads version "
                f"{SNAPSHOT_FORMAT_VERSION}"
            )
        return {key: value for key, value in data.items() if key != "payload"}

    @classmethod
    def load(cls, path: "Path | str") -> "SimulationSession":
        """Materialize a checkpoint written by :meth:`save`."""
        try:
            data = pickle.loads(Path(path).read_bytes())
        except Exception as exc:
            raise SnapshotError(
                f"cannot read checkpoint {str(path)!r}: {exc}"
            ) from exc
        if not isinstance(data, dict) or data.get("format") != CHECKPOINT_MAGIC:
            raise SnapshotError(
                f"{str(path)!r} is not a repro-sim checkpoint"
            )
        state = SimState(
            kind=data.get("kind", ""),
            payload=data.get("payload", b""),
            format_version=data.get("version", -1),
        )
        session = cls.__new__(cls)
        session.restore(state)
        return session
