"""DAG executor: list-scheduling simulation of one or more training iterations.

The executor takes the iteration DAG (compute + communication operations with
dependencies), a compute-time model, and a network model and produces an
:class:`~repro.parallelism.trace.IterationTrace`.  Scheduling semantics:

* every rank's GPU executes **compute** operations one at a time;
* **communication** operations occupy the ranks' scale-out NIC (or the
  scale-up interconnect for intra-domain groups), one at a time per rank, but
  may overlap with compute on the same rank — this is how FSDP parameter
  AllGathers overlap the forward pass exactly as the paper describes;
* an operation starts at the earliest time at which all its dependencies have
  finished and its resources are free; the network model may additionally
  delay the start of a communication until the required circuits are up.

Scheduling is greedy "earliest-start-first" list scheduling over the ready
set, which is deterministic and — given that the DAG already encodes the 1F1B
ordering — faithful to how collectives are issued per CUDA stream in the real
system.  Communication order per communication group follows issue order,
which is the FIFO the paper's FC-FS control-plane policy relies on.

One loop serves every network model.  Analytic models answer ``timing()``
synchronously with a closed-form alpha–beta estimate, so an operation's end
is known the moment it is scheduled.  Flow-level models
(:class:`~repro.simulator.flow_network.FlowNetworkModel`) expand scale-out
collectives into point-to-point transfers inside a shared max–min fair flow
simulator, so a collective's end depends on which other collectives are
concurrently on the wire: it stays "in flight" (its ranks' NICs locked) until
the simulator reaches its completion, and no operation is committed at a
start time that network events could still precede.  An analytic model
expands nothing and has no events, so for it the loop reduces to plain list
scheduling.
"""

from __future__ import annotations

import heapq
import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from ..errors import DeadlockError, SimulationError
from ..parallelism.dag import IterationDAG, OpKind, Operation
from ..parallelism.mesh import DeviceMesh
from ..parallelism.trace import (
    CommRecord,
    ComputeRecord,
    IterationTrace,
    ReconfigRecord,
    TrainingTrace,
)
from ..collectives.primitives import total_traffic_bytes
from ..topology.devices import ClusterSpec
from .compute import ComputeTimeModel
from .network import CommTiming, NetworkModel


@dataclass
class SimulationConfig:
    """Executor knobs.

    Attributes
    ----------
    mfu:
        Model FLOPs utilization for the compute model.
    compute_jitter:
        Relative standard deviation of a lognormal-ish multiplicative jitter
        applied to compute durations (0 disables jitter).  The paper's window
        CDF (Fig. 4a) is taken over 10 iterations of a real system whose
        compute times vary slightly; jitter reproduces that spread.
    seed:
        Seed for the jitter random number generator.
    """

    mfu: float = 0.40
    compute_jitter: float = 0.0
    seed: int = 0


@dataclass
class _ScheduleState:
    """Mutable bookkeeping of one iteration's scheduling loop."""

    remaining_deps: Dict[int, int]
    dep_end: Dict[int, float]
    successors: Dict[int, List[int]]
    gpu_free: Dict[int, float]
    nic_free: Dict[int, float]
    scaleup_free: Dict[int, float]
    ready: Set[int]
    start_time: float
    #: Ops added to ``ready`` since the scheduling loop last drained this list;
    #: lets its priority queue ingest newcomers without rescanning ``ready``.
    newly_ready: List[int] = field(default_factory=list)

    def finish(self, op_id: int, end: float) -> None:
        """Record ``op_id``'s end and move newly-unblocked successors to ready."""
        self.dep_end[op_id] = end
        for successor in self.successors[op_id]:
            self.remaining_deps[successor] -= 1
            if self.remaining_deps[successor] == 0:
                self.ready.add(successor)
                self.newly_ready.append(successor)


class DAGExecutor:
    """Simulates the execution of an iteration DAG on a cluster."""

    def __init__(
        self,
        dag: IterationDAG,
        cluster: ClusterSpec,
        network: NetworkModel,
        compute_model: Optional[ComputeTimeModel] = None,
        config: Optional[SimulationConfig] = None,
    ) -> None:
        self.dag = dag
        self.cluster = cluster
        self.network = network
        self.config = config or SimulationConfig()
        self.compute_model = compute_model or ComputeTimeModel(
            gpu=cluster.scaleup.gpu, mfu=self.config.mfu
        )
        self.mesh: DeviceMesh = dag.mesh
        self._rng = random.Random(self.config.seed)

    # ------------------------------------------------------------------ #
    # Public API
    # ------------------------------------------------------------------ #

    def run_iteration(self, iteration: int = 0, start_time: float = 0.0) -> IterationTrace:
        """Simulate one iteration starting at ``start_time``."""
        trace = IterationTrace(iteration=iteration)
        self.network.on_iteration_start(iteration, start_time)

        operations = self.dag.operations()
        state = _ScheduleState(
            remaining_deps={op.op_id: len(op.deps) for op in operations},
            dep_end={},
            successors={op.op_id: [] for op in operations},
            gpu_free={},
            nic_free={},
            scaleup_free={},
            ready={op.op_id for op in operations if not op.deps},
            start_time=start_time,
        )
        for op in operations:
            for dep in op.deps:
                state.successors[dep].append(op.op_id)
        total = len(operations)

        completed = self._schedule(state, trace)
        if completed != total:
            raise DeadlockError(
                f"executor finished only {completed}/{total} operations; "
                "the DAG has unreachable operations"
            )
        self.network.on_iteration_end(iteration, trace.end)
        injector = self.network.fault_injector
        if injector is not None:
            if injector.inline:
                # Analytic models advance the injector as collectives are
                # priced; settle any events the last pricing call left behind
                # so fault application is deterministic per iteration.
                injector.advance_to(trace.end)
            trace.fault_records.extend(injector.pop_records())
        return trace

    def _schedule(self, state: "_ScheduleState", trace: IterationTrace) -> int:
        """List scheduling interleaved with the network model's events.

        Commits the ready operation with the earliest feasible start, ties
        broken by op id (issue order).  Scale-out collectives the model can
        expand are injected into the shared flow simulator at their start
        time; their completion is only known once the simulator has advanced
        past it, because transfers injected later (but starting earlier than
        the tentative completion) reshape the max–min fair allocation.  The loop therefore interleaves
        scheduling decisions with network events: before committing the
        earliest-start ready operation, every network event at or before that
        start is processed, so any collective completion that would unlock an
        earlier (or tie-breaking lower-id) operation is observed first.
        Compute operations and analytically-priced collectives finalize
        immediately.

        Circuit-switched models additionally gate each launch: ``begin_comm``
        may schedule the collective's first flows at a later time than
        ``best_start`` (the OCS switching delay), or defer the launch until
        conflicting circuits drain.  Both manifest as future simulator events,
        so the drain loops below cover them; the NICs stay locked for the
        whole gated window, which is exactly the blocking the paper's Fig. 8
        measures.
        """
        network = self.network
        dag = self.dag
        completed = 0
        ready = state.ready
        #: op_id -> (operation, start); completion pending in the simulator.
        inflight: Dict[int, Tuple[Operation, float]] = {}
        #: Ranks whose scale-out NIC is held by an in-flight collective.
        locked: Set[int] = set()
        #: (op_id, end) pairs appended by collective-completion callbacks.
        finished: List[Tuple[int, float]] = []
        # Lazy priority queue over the ready set.  Earliest-start candidates
        # only grow over time (dep ends are fixed once known, resource free
        # times only move forward), so a stored candidate is a lower bound:
        # pop the minimum, recompute, and re-push if it moved.  A pop whose
        # value is still accurate is the true (candidate, op_id) minimum —
        # every other stored entry is a lower bound at or above it.  Every
        # ready op has exactly one entry across ``heap`` and ``parked``: it
        # enters ``newly_ready`` once, when its last dependency finishes, and
        # is re-pushed only after being popped, so every popped op is ready.
        heap: List[Tuple[float, int]] = []
        #: Scale-out ops popped while their NIC was locked; re-queued once
        #: ``finalize`` releases locks (the only place locks clear).
        parked: List[Tuple[float, int]] = []
        newcomers = state.newly_ready
        newcomers.extend(ready)

        def finalize() -> None:
            nonlocal completed
            while finished:
                op_id, end = finished.pop(0)
                operation, begin = inflight.pop(op_id)
                for rank in operation.ranks:
                    state.nic_free[rank] = end
                    locked.discard(rank)
                # Circuit-switched models buffer the switching events performed
                # per collective; they land in the trace like analytic reconfigs.
                records = network.pop_reconfig_records(op_id)
                self._record_comm(operation, begin, end, records, trace)
                network.on_comm_end(operation, end)
                state.finish(op_id, end)
                completed += 1
            # Locks may have cleared; parked ops compete again.
            for entry in parked:
                heapq.heappush(heap, entry)
            parked.clear()

        while ready or inflight:
            if finished:
                finalize()
            for op_id in newcomers:
                candidate = self._earliest_start(dag.operation(op_id), state)
                heapq.heappush(heap, (candidate, op_id))
            newcomers.clear()
            best_id = None
            while heap:
                candidate, op_id = heapq.heappop(heap)
                operation = dag.operation(op_id)
                current = self._earliest_start(operation, state)
                if current > candidate:
                    heapq.heappush(heap, (current, op_id))
                    continue
                if (
                    locked
                    and operation.kind != OpKind.COMPUTE
                    and network.is_scaleout(operation)
                    and any(rank in locked for rank in operation.ranks)
                ):
                    # NIC held by an in-flight collective; end unknown.  Set
                    # aside — candidates cannot shrink, so re-queueing the
                    # same entry after locks clear keeps the bound valid.
                    parked.append((candidate, op_id))
                    continue
                best_start = candidate
                best_id = op_id
                break

            next_event = network.next_event_time
            if best_id is None:
                if not inflight:
                    break  # nothing runnable: let the caller report the deadlock
                if next_event is None:
                    raise SimulationError(
                        "flow-level network is idle while collectives are "
                        "still in flight; flows can never complete"
                    )
                # Everything runnable is blocked on in-flight collectives:
                # drain network events until one of them actually finishes.
                while not finished and network.next_event_time is not None:
                    network.advance()
                continue
            if next_event is not None and next_event <= best_start:
                # Network events precede (or tie) the candidate start; their
                # completions may unlock an earlier-starting operation.  Drain
                # them in a burst — flow starts and intermediate completion
                # checks change no scheduling input, so rescanning the ready
                # set is only needed once a collective actually finishes.
                # The popped candidate goes back on the queue uncommitted.
                heapq.heappush(heap, (best_start, best_id))
                while not finished:
                    next_event = network.next_event_time
                    if next_event is None or next_event > best_start:
                        break
                    network.advance()
                continue

            ready.discard(best_id)
            if operation.kind == OpKind.COMPUTE:
                end = self._execute_compute(operation, best_start, state.gpu_free, trace)
                state.finish(best_id, end)
                completed += 1
            elif network.can_expand(operation):
                locked.update(operation.ranks)
                inflight[best_id] = (operation, best_start)
                network.begin_comm(
                    operation,
                    best_start,
                    lambda end, op_id=best_id: finished.append((op_id, end)),
                )
            else:
                end = self._execute_comm(operation, best_start, state, trace)
                state.finish(best_id, end)
                completed += 1
        return completed

    def run_training(self, num_iterations: int, start_time: float = 0.0) -> TrainingTrace:
        """Simulate ``num_iterations`` back-to-back iterations.

        The network model's state (learned traffic profiles, circuit state)
        carries across iterations, matching Opus's profile-then-provision
        behaviour: iteration 0 is the profiling iteration, later iterations
        benefit from provisioning.
        """
        if num_iterations <= 0:
            raise SimulationError("num_iterations must be positive")
        training = TrainingTrace()
        current = start_time
        for iteration in range(num_iterations):
            trace = self.run_iteration(iteration=iteration, start_time=current)
            training.add(trace)
            current = trace.end
        return training

    # ------------------------------------------------------------------ #
    # Internals
    # ------------------------------------------------------------------ #

    def _earliest_start(self, operation: Operation, state: "_ScheduleState") -> float:
        start_time = state.start_time
        ready = start_time
        for dep in operation.deps:
            ready = max(ready, state.dep_end[dep])
        if operation.kind == OpKind.COMPUTE:
            for rank in operation.ranks:
                ready = max(ready, state.gpu_free.get(rank, start_time))
        else:
            resource = (
                state.nic_free
                if self.network.is_scaleout(operation)
                else state.scaleup_free
            )
            for rank in operation.ranks:
                ready = max(ready, resource.get(rank, start_time))
        return ready

    def _compute_duration(self, operation: Operation, start: float) -> float:
        duration = self.compute_model.duration(operation)
        if self.config.compute_jitter > 0:
            factor = self._rng.lognormvariate(0.0, self.config.compute_jitter)
            duration *= factor
        injector = self.network.fault_injector
        if injector is not None:
            # Per-device slowdown faults (stragglers): the latest slowdown
            # event at or before the operation's start stretches its ranks.
            duration *= injector.compute_factor(operation.ranks, start)
        return duration

    def _execute_compute(
        self,
        operation: Operation,
        start: float,
        gpu_free: Dict[int, float],
        trace: IterationTrace,
    ) -> float:
        end = start + self._compute_duration(operation, start)
        for rank in operation.ranks:
            gpu_free[rank] = end
        trace.compute_records.append(
            ComputeRecord(
                op_id=operation.op_id,
                ranks=operation.ranks,
                start=start,
                end=end,
                phase=operation.phase,
                tag=operation.tag,
            )
        )
        return end

    def _execute_comm(
        self,
        operation: Operation,
        ready_time: float,
        state: "_ScheduleState",
        trace: IterationTrace,
    ) -> float:
        assert operation.collective is not None
        timing: CommTiming = self.network.timing(operation, ready_time)
        scaleout = self.network.is_scaleout(operation)
        resource = state.nic_free if scaleout else state.scaleup_free
        for rank in operation.ranks:
            resource[rank] = timing.end
        self._record_comm(operation, timing.start, timing.end, timing.reconfigs, trace)
        self.network.on_comm_end(operation, timing.end)
        return timing.end

    def _record_comm(
        self,
        operation: Operation,
        start: float,
        end: float,
        reconfigs: Tuple[ReconfigRecord, ...],
        trace: IterationTrace,
    ) -> None:
        assert operation.collective is not None
        scaleout = self.network.is_scaleout(operation)
        rails: Tuple[int, ...] = ()
        if self.mesh.cluster is not None and scaleout:
            rails = self.mesh.rails_of_group(operation.collective.group)
        trace.comm_records.append(
            CommRecord(
                op_id=operation.op_id,
                collective=operation.collective.collective,
                parallelism=operation.collective.parallelism,
                group=operation.collective.group,
                rails=rails,
                size_bytes=operation.collective.size_bytes,
                total_bytes=total_traffic_bytes(operation.collective),
                start=start,
                end=end,
                phase=operation.phase,
                tag=operation.tag,
                scaleout=scaleout,
            )
        )
        trace.reconfig_records.extend(reconfigs)
