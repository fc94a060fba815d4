"""Declarative scenarios and the parallel, memoized experiment runner.

A :class:`Scenario` names everything one end-to-end simulation needs —
workload × cluster × backend × knobs × iteration count — as plain (picklable)
data.  :func:`run_scenario` executes one scenario: it builds the iteration
DAG, instantiates the backend's network model, drives the DAG executor, and
condenses the trace into a small :class:`ScenarioResult`.

:class:`ExperimentRunner` adds the two things sweeps need:

* **memoization** — results are cached under a SHA-256 hash of the scenario's
  canonical configuration, so repeated points (across sweeps or within one
  grid) are simulated once;
* **parallelism** — :meth:`ExperimentRunner.sweep` expands a parameter grid
  into scenarios and fans cache misses out over ``concurrent.futures``
  workers (processes by default — the pure-Python simulation is CPU-bound,
  so threads would serialize on the GIL; threads or serial on request);
* **delta-sweeps** — with ``fork=True``, grid points that differ only in
  their fault schedules (and iteration counts) share one
  :class:`~repro.experiments.session.SimulationSession` up to the instant
  their schedules diverge, then branch via :meth:`SimulationSession.fork`
  instead of re-simulating the common prefix per point.  Results are
  bit-for-bit identical to independent runs.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import threading
import time
from concurrent.futures import Executor, ProcessPoolExecutor, ThreadPoolExecutor
from dataclasses import asdict, dataclass, field, fields, replace
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from ..errors import ConfigurationError, ScenarioError
from ..parallelism.config import WorkloadConfig
from ..simulator.executor import SimulationConfig
from ..simulator.faults import FaultPlan, as_fault_plan
from ..topology.devices import ClusterSpec


@dataclass(frozen=True)
class Scenario:
    """One end-to-end simulation: workload × cluster × backend × knobs."""

    workload: WorkloadConfig
    cluster: ClusterSpec
    backend: str = "electrical"
    #: Backend-specific keyword knobs (validated by the backend at run time).
    knobs: Mapping[str, object] = field(default_factory=dict)
    num_iterations: int = 2
    simulation: SimulationConfig = field(default_factory=SimulationConfig)
    #: Emit FSDP collectives per layer (the paper's setting) or per stage.
    per_layer_fsdp: bool = True
    name: str = "scenario"

    def __post_init__(self) -> None:
        if self.num_iterations <= 0:
            raise ConfigurationError("num_iterations must be positive")
        if self.workload.world_size > self.cluster.num_gpus:
            raise ConfigurationError(
                f"workload needs {self.workload.world_size} GPUs, cluster has "
                f"{self.cluster.num_gpus}"
            )

    def with_knobs(self, **knobs: object) -> "Scenario":
        """Return a copy with ``knobs`` merged over the existing ones."""
        merged = dict(self.knobs)
        merged.update(knobs)
        return replace(self, knobs=merged)


def scenario_hash(scenario: Scenario) -> str:
    """Stable configuration hash of a scenario (memoization cache key).

    The hash covers everything that influences the simulation result —
    workload, cluster, backend, knobs, iteration count, simulator options and
    FSDP granularity — and deliberately ignores ``name``, which is
    presentation only.
    """
    payload = {
        "workload": asdict(scenario.workload),
        "cluster": asdict(scenario.cluster),
        "backend": scenario.backend,
        "knobs": {key: repr(value) for key, value in scenario.knobs.items()},
        "num_iterations": scenario.num_iterations,
        "simulation": asdict(scenario.simulation),
        "per_layer_fsdp": scenario.per_layer_fsdp,
    }
    canonical = json.dumps(payload, sort_keys=True, default=repr)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class ScenarioResult:
    """Condensed, picklable outcome of one scenario run."""

    name: str
    backend: str
    config_hash: str
    num_iterations: int
    #: The scenario's backend knobs (non-primitive values stringified).
    knobs: Mapping[str, object]
    #: Makespan of every simulated iteration, in order.
    iteration_times: Tuple[float, ...]
    #: Reconfiguration count of every iteration.
    reconfigurations: Tuple[int, ...]
    #: Blocking (critical-path) reconfiguration time of every iteration.
    reconfig_blocking: Tuple[float, ...]
    #: Scalar summary metrics (see :func:`run_scenario` for the keys).
    metrics: Mapping[str, float]
    #: ``pid:thread`` of the worker that simulated this scenario.
    worker: str
    #: Wall-clock seconds the simulation took.
    wall_time: float

    def to_dict(self) -> dict:
        """JSON-serializable representation."""
        return {
            "name": self.name,
            "backend": self.backend,
            "config_hash": self.config_hash,
            "num_iterations": self.num_iterations,
            "knobs": dict(self.knobs),
            "iteration_times": list(self.iteration_times),
            "reconfigurations": list(self.reconfigurations),
            "reconfig_blocking": list(self.reconfig_blocking),
            "metrics": dict(self.metrics),
            "worker": self.worker,
            "wall_time": self.wall_time,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ScenarioResult":
        """Rebuild a result from :meth:`to_dict` output.

        JSON round-trips finite floats exactly, so a result loaded from the
        persistent store is bit-identical to the freshly simulated one.
        """
        return cls(
            name=data["name"],
            backend=data["backend"],
            config_hash=data["config_hash"],
            num_iterations=int(data["num_iterations"]),
            knobs=dict(data["knobs"]),
            iteration_times=tuple(data["iteration_times"]),
            reconfigurations=tuple(data["reconfigurations"]),
            reconfig_blocking=tuple(data["reconfig_blocking"]),
            metrics=dict(data["metrics"]),
            worker=data["worker"],
            wall_time=data["wall_time"],
        )

    def to_row(self) -> Dict[str, object]:
        """Flat single-level mapping for CSV output."""
        row: Dict[str, object] = {
            "name": self.name,
            "backend": self.backend,
            "config_hash": self.config_hash,
            "num_iterations": self.num_iterations,
            "wall_time": self.wall_time,
        }
        row.update(self.knobs)
        row.update(self.metrics)
        return row


def _steady(values: Sequence[float]) -> Sequence[float]:
    """Steady-state iterations: drop the profiling iteration when possible."""
    return values[1:] if len(values) > 1 else values


def run_scenario(scenario: Scenario) -> ScenarioResult:
    """Simulate one scenario end to end and summarize its trace.

    Sugar for driving a :class:`~repro.experiments.session.SimulationSession`
    from start to finish; use the session directly for incremental runs,
    checkpoints, and forks.
    """
    # Imported lazily: the session module builds on Scenario/ScenarioResult
    # from this module.
    from .session import SimulationSession

    started = time.perf_counter()
    session = SimulationSession.start(scenario)
    session.run_to(scenario.num_iterations)
    return session.result(wall_time=time.perf_counter() - started)


def _execute_scenario(scenario: Scenario) -> ScenarioResult:
    # Thin top-level shim so process pools can pickle the callable and tests
    # can monkeypatch ``run_scenario``.
    try:
        return run_scenario(scenario)
    except ScenarioError:
        raise
    except Exception as exc:
        raise ScenarioError(
            f"scenario {scenario.name!r} (backend {scenario.backend!r}, "
            f"knobs {dict(scenario.knobs)!r}) failed: "
            f"{type(exc).__name__}: {exc}"
        ) from exc


_SCENARIO_FIELDS = frozenset(
    f.name for f in fields(Scenario) if f.name not in ("knobs", "workload", "cluster")
)


# --------------------------------------------------------------------------- #
# Fork-sweep helpers
# --------------------------------------------------------------------------- #


def _scenario_fault_plan(scenario: Scenario) -> FaultPlan:
    """The scenario's ``faults`` knob as a plan (empty when absent)."""
    value = scenario.knobs.get("faults")
    return FaultPlan() if value is None else as_fault_plan(value)


def _fork_group_key(scenario: Scenario, plan: FaultPlan) -> Tuple[str, str]:
    """Cache key grouping scenarios that may share a simulation prefix.

    Two scenarios can branch off one shared session exactly when they agree
    on everything except their fault schedule and how long they run — so the
    key is the configuration hash with the ``faults`` knob stripped and the
    iteration count normalized, plus the plan's link-failure policy (the
    policy flips flow-failure semantics the moment the *first* event is
    installed, so mixed-policy points never share a session).
    """
    knobs = {key: value for key, value in scenario.knobs.items() if key != "faults"}
    base = replace(scenario, knobs=knobs, num_iterations=1)
    return (scenario_hash(base), plan.on_link_fail)


def _shared_prefix(
    plans: Sequence[FaultPlan],
) -> Tuple[Tuple["FaultEvent", ...], float]:
    """The common time-sorted event prefix of ``plans`` and the divergence time.

    Returns ``(prefix, divergence)``: the longest leading run of identical
    events shared by every plan's time-sorted schedule, and the earliest
    time any plan's first post-prefix event fires (``inf`` when the plans
    are identical — the points then differ only in iteration count).  A
    shared session carrying exactly ``prefix`` is bit-for-bit equal to each
    member's own run up to ``divergence``.
    """
    ordered = [sorted(plan.events, key=lambda event: event.time) for plan in plans]
    prefix: List[object] = []
    for events in zip(*ordered):
        first = events[0]
        if any(event != first for event in events[1:]):
            break
        prefix.append(first)
    divergence = float("inf")
    for events in ordered:
        if len(events) > len(prefix):
            divergence = min(divergence, events[len(prefix)].time)
    return tuple(prefix), divergence


def expand_grid(
    base: Scenario, grid: Mapping[str, Sequence[object]]
) -> List[Scenario]:
    """Expand a parameter grid into scenarios (first key varies slowest).

    Grid keys naming a :class:`Scenario` field (``backend``,
    ``num_iterations``, ...) override that field; every other key becomes a
    backend knob merged over ``base.knobs``.
    """
    if not grid:
        return [base]
    keys = list(grid)
    scenarios: List[Scenario] = []
    for values in itertools.product(*(grid[key] for key in keys)):
        point = dict(zip(keys, values))
        field_overrides = {
            key: value for key, value in point.items() if key in _SCENARIO_FIELDS
        }
        knob_overrides = {
            key: value for key, value in point.items() if key not in _SCENARIO_FIELDS
        }
        label = ",".join(f"{key}={value}" for key, value in point.items())
        scenario = replace(base, **field_overrides) if field_overrides else base
        if knob_overrides:
            scenario = scenario.with_knobs(**knob_overrides)
        scenarios.append(replace(scenario, name=f"{base.name}[{label}]"))
    return scenarios


class ExperimentRunner:
    """Runs scenarios with memoization and ``concurrent.futures`` fan-out.

    Parameters
    ----------
    max_workers:
        Worker count for parallel sweeps (default: CPU count).
    executor:
        ``"process"`` (default — the simulation is CPU-bound pure Python, so
        only processes escape the GIL), ``"thread"``, or ``"serial"``.  The
        simulation is deterministic, so all three produce identical results.
    memoize:
        Cache results by configuration hash (default True).
    store:
        Optional persistent :class:`~repro.service.store.ResultStore`
        extending the in-memory memo onto disk: lookups fall through memory
        to the store (a hit also counts in :attr:`store_hits`), and every
        freshly simulated result is filed there — so repeated grid points
        are served instantly *across* processes and runs.  Only consulted
        when ``memoize`` is on.
    pool:
        Optional long-lived ``concurrent.futures`` executor to shard cache
        misses across instead of spinning up a pool per batch (the
        experiment service keeps one warm worker-process pool for its whole
        lifetime).  Ignored with ``executor="serial"``.
    """

    def __init__(
        self,
        max_workers: Optional[int] = None,
        executor: str = "process",
        memoize: bool = True,
        store: Optional[object] = None,
        pool: Optional[Executor] = None,
    ) -> None:
        if executor not in ("thread", "process", "serial"):
            raise ConfigurationError(
                f"unknown executor {executor!r}; use 'thread', 'process', or 'serial'"
            )
        if max_workers is not None and max_workers <= 0:
            raise ConfigurationError("max_workers must be positive")
        self.max_workers = max_workers or os.cpu_count() or 2
        self.executor = executor
        self.memoize = memoize
        self.store = store
        self.pool = pool
        self.cache_hits = 0
        self.cache_misses = 0
        self.store_hits = 0
        self._cache: Dict[str, ScenarioResult] = {}
        # run_many may be driven from several threads at once (the
        # experiment service runs concurrent jobs against one shared
        # runner); the lock keeps cache bookkeeping consistent.
        self._lock = threading.Lock()

    # ------------------------------------------------------------------ #
    # Public API
    # ------------------------------------------------------------------ #

    def run(self, scenario: Scenario) -> ScenarioResult:
        """Run (or recall) a single scenario."""
        return self.run_many([scenario])[0]

    def run_many(
        self,
        scenarios: Sequence[Scenario],
        fork: bool = False,
        on_simulated: Optional[Callable[[ScenarioResult], None]] = None,
        on_hit: Optional[Callable[[ScenarioResult, str], None]] = None,
    ) -> List[ScenarioResult]:
        """Run a batch of scenarios, preserving input order.

        With memoization on, cache hits — including duplicate configurations
        *within* the batch — are served without simulating and only the
        unique remainder is fanned out over the configured workers.  With a
        :attr:`store` attached, points missing from memory but present in
        the persistent store are loaded from disk instead of simulated, and
        fresh results are filed there.  With ``memoize=False`` every
        scenario is simulated, duplicates included, and the store is not
        consulted.

        ``on_simulated(result)`` fires once per freshly simulated point and
        ``on_hit(result, tier)`` once per point served without simulating
        (``tier`` ∈ ``"memory"`` / ``"store"`` / ``"batch"``) — the
        accounting hooks behind the service's telemetry.

        With ``fork=True`` the remainder is first grouped by shared scenario
        prefix (see :func:`_fork_group_key`): each group simulates one
        session up to the point its members' fault schedules diverge, then
        branches a fork per member — producing results identical to
        independent runs while simulating the shared prefix once.  Results
        enter the memoization cache under each member's own configuration
        hash, exactly as straight-through results do.
        """
        keys = [scenario_hash(scenario) for scenario in scenarios]
        results: List[Optional[ScenarioResult]] = [None] * len(scenarios)
        hit_tiers: Dict[int, str] = {}
        to_run: List[int] = []
        first_occurrence: Dict[str, int] = {}
        with self._lock:
            for index, key in enumerate(keys):
                if not self.memoize:
                    to_run.append(index)
                    continue
                if key in self._cache:
                    self.cache_hits += 1
                    results[index] = self._cache[key]
                    hit_tiers[index] = "memory"
                elif key in first_occurrence:
                    self.cache_hits += 1  # duplicate point inside this batch
                    hit_tiers[index] = "batch"
                else:
                    stored = self.store.get(key) if self.store is not None else None
                    if stored is not None:
                        self.cache_hits += 1
                        self.store_hits += 1
                        self._cache[key] = stored
                        results[index] = stored
                        hit_tiers[index] = "store"
                    else:
                        first_occurrence[key] = index
                        to_run.append(index)
            if to_run:
                self.cache_misses += len(to_run)

        if to_run:
            pending = [scenarios[index] for index in to_run]
            fresh = self._execute_forked(pending) if fork else self._execute(pending)
            with self._lock:
                for index, result in zip(to_run, fresh):
                    results[index] = result
                    if self.memoize:
                        self._cache[keys[index]] = result
            for result in fresh:
                if on_simulated is not None:
                    on_simulated(result)
                if self.memoize and self.store is not None:
                    self.store.put(result)
            # Serve within-batch duplicates from their first occurrence.
            for index, key in enumerate(keys):
                if results[index] is None:
                    results[index] = results[first_occurrence[key]]
        if on_hit is not None:
            for index, tier in hit_tiers.items():
                on_hit(results[index], tier)
        assert all(result is not None for result in results)
        return results  # type: ignore[return-value]

    def sweep(
        self,
        base: Scenario,
        grid: Mapping[str, Sequence[object]],
        fork: bool = False,
    ) -> List[ScenarioResult]:
        """Expand ``grid`` over ``base`` and run every point (see :func:`expand_grid`)."""
        return self.run_many(expand_grid(base, grid), fork=fork)

    def clear_cache(self) -> None:
        """Drop all memoized results and reset the hit/miss counters.

        Only touches the in-memory memo — a persistent :attr:`store` keeps
        its entries (delete its directory to truly start over).
        """
        with self._lock:
            self._cache.clear()
            self.cache_hits = 0
            self.cache_misses = 0
            self.store_hits = 0

    @property
    def cache_size(self) -> int:
        """Number of memoized results."""
        return len(self._cache)

    # ------------------------------------------------------------------ #
    # Internals
    # ------------------------------------------------------------------ #

    def _execute(self, scenarios: List[Scenario]) -> List[ScenarioResult]:
        if self.executor == "serial":
            return [_execute_scenario(scenario) for scenario in scenarios]
        if self.pool is not None:
            # A long-lived shared pool (the experiment service): workers are
            # already warm, so even single-scenario batches go there.
            return list(self.pool.map(_execute_scenario, scenarios))
        if len(scenarios) == 1:
            return [_execute_scenario(scenarios[0])]
        workers = min(self.max_workers, len(scenarios))
        pool: Executor
        if self.executor == "process":
            pool = ProcessPoolExecutor(max_workers=workers)
        else:
            pool = ThreadPoolExecutor(max_workers=workers)
        with pool:
            return list(pool.map(_execute_scenario, scenarios))

    def _execute_forked(self, scenarios: List[Scenario]) -> List[ScenarioResult]:
        """Execute a batch with shared-prefix forking where it helps.

        Scenarios are grouped by :func:`_fork_group_key`; groups of at least
        two points whose schedules diverge after t=0 run through one shared
        session (:meth:`_run_fork_group`), everything else falls back to the
        straight-through pool.  Order is preserved.
        """
        plans = [_scenario_fault_plan(scenario) for scenario in scenarios]
        groups: Dict[Tuple[str, str], List[int]] = {}
        for index, (scenario, plan) in enumerate(zip(scenarios, plans)):
            groups.setdefault(_fork_group_key(scenario, plan), []).append(index)
        results: List[Optional[ScenarioResult]] = [None] * len(scenarios)
        straight: List[int] = []
        for indices in groups.values():
            if len(indices) < 2:
                straight.extend(indices)
                continue
            prefix, divergence = _shared_prefix([plans[i] for i in indices])
            if divergence <= 0.0:
                # The schedules part ways at t=0: there is no shared prefix
                # to amortize, so forking would only add copy overhead.
                straight.extend(indices)
                continue
            branch_results = self._run_fork_group(
                [scenarios[i] for i in indices],
                [plans[i] for i in indices],
                prefix,
                divergence,
            )
            for index, result in zip(indices, branch_results):
                results[index] = result
        if straight:
            straight.sort()
            for index, result in zip(
                straight, self._execute([scenarios[i] for i in straight])
            ):
                results[index] = result
        assert all(result is not None for result in results)
        return results  # type: ignore[return-value]

    def _run_fork_group(
        self,
        scenarios: List[Scenario],
        plans: List[FaultPlan],
        prefix: Tuple,
        divergence: float,
    ) -> List[ScenarioResult]:
        """Simulate one fork group: shared prefix once, then one fork per point.

        The shared session carries only the common event prefix and runs
        whole iterations while they finish strictly before ``divergence``
        (each iteration is attempted from a pre-iteration fork and rolled
        back if it crosses — conservatively, so a branch-specific event can
        never land inside a shared iteration).  Each member then forks the
        shared state, installs its schedule tail, runs to its own iteration
        count, and condenses a result under its own name and hash.  Branches
        run serially in-process: they start from a live object graph, which
        is exactly what a process pool could not be handed cheaply.
        """
        from .session import SimulationSession

        current = scenarios[0]
        try:
            shared_knobs = {
                key: value
                for key, value in current.knobs.items()
                if key != "faults"
            }
            if prefix:
                shared_knobs["faults"] = FaultPlan(
                    events=prefix, on_link_fail=plans[0].on_link_fail
                )
            shared = SimulationSession.start(
                replace(
                    current,
                    knobs=shared_knobs,
                    name=f"{current.name}[shared-prefix]",
                )
            )
            target = min(scenario.num_iterations for scenario in scenarios)
            last_duration: Optional[float] = None
            while shared.completed < target:
                if divergence == float("inf"):
                    # Identical schedules: the members differ only in how
                    # long they run, so every shared iteration is final.
                    shared.run_next_iteration()
                    continue
                # Forking before every iteration would rival the cost of
                # the iteration itself on small fabrics, so a backup is
                # only taken once the projected end (twice the previous
                # iteration's simulated duration) reaches the divergence
                # time.  Iteration durations are nearly constant; should
                # one still spike past an unbacked-up divergence, the
                # polluted shared state is discarded and the whole group
                # re-runs straight-through — slower, never wrong.
                near = (
                    last_duration is None
                    or shared.clock + 2.0 * last_duration >= divergence
                )
                backup = shared.fork() if near else None
                before = shared.clock
                trace = shared.run_next_iteration()
                last_duration = trace.end - before
                if trace.end >= divergence:
                    if backup is None:
                        return self._execute(scenarios)
                    shared = backup
                    break
            results: List[ScenarioResult] = []
            for position, (scenario, plan) in enumerate(zip(scenarios, plans)):
                current = scenario
                started = time.perf_counter()
                # The last member adopts the shared session itself; everyone
                # else continues on a fork of it.
                branch = (
                    shared if position == len(scenarios) - 1 else shared.fork()
                )
                ordered = sorted(plan.events, key=lambda event: event.time)
                branch.extend_faults(
                    FaultPlan(
                        events=tuple(ordered[len(prefix):]),
                        on_link_fail=plan.on_link_fail,
                    ),
                    scenario=scenario,
                )
                branch.run_to(scenario.num_iterations)
                results.append(
                    branch.result(
                        scenario=scenario,
                        wall_time=time.perf_counter() - started,
                    )
                )
            return results
        except ScenarioError:
            raise
        except Exception as exc:
            raise ScenarioError(
                f"scenario {current.name!r} (backend {current.backend!r}, "
                f"knobs {dict(current.knobs)!r}) failed during a fork-sweep: "
                f"{type(exc).__name__}: {exc}"
            ) from exc
