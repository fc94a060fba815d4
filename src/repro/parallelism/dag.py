"""Training-iteration DAG generation (the workload model behind Figs. 2, 3, 4, 8).

The paper's key observation is that the communication operations of different
parallelism axes are not ordered arbitrarily: they follow the strict
dependencies of the model's execution graph.  This module materializes that
graph for one training iteration as a DAG of :class:`Operation` nodes
(compute and communication), reproducing the structure of the paper's Fig. 2:

* 1F1B pipeline schedule per stage (warm-up / steady / cool-down phases);
* per-layer FSDP parameter ``AllGather`` overlapping the first forward
  micro-batch, and per-layer gradient ``ReduceScatter`` after the last
  backward;
* pipeline ``Send/Recv`` of activations (forward) and gradients (backward)
  between adjacent stages, one per micro-batch per rail;
* CP and EP collectives whenever ``cp > 1`` / ``ep > 1`` (TP traffic stays
  inside the scale-up domain and is not emitted);
* small optimizer-step synchronization ``AllReduce`` calls along DP and PP.

The DAG is purely logical: durations are assigned later by the simulator's
compute model and collective cost models.  The DAG is also what Opus consumes
(indirectly, through the intercepted collective calls) to learn the traffic
pattern.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from enum import Enum
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from ..collectives.primitives import CollectiveOp, CollectiveType
from ..errors import ConfigurationError, DeadlockError
from ..topology.devices import ClusterSpec
from .config import WorkloadConfig
from .mesh import DeviceMesh, MeshCoordinate
from .pipeline import ActionKind, PipelinePhase, one_f_one_b_schedule


class OpKind(str, Enum):
    """Whether an operation occupies the GPU (compute) or the network (comm)."""

    COMPUTE = "compute"
    COMMUNICATION = "communication"


@dataclass(frozen=True)
class Operation:
    """One node of the iteration DAG.

    Attributes
    ----------
    op_id:
        Unique id within the DAG.
    kind:
        Compute or communication.
    ranks:
        Global ranks occupied by the operation.
    deps:
        Ids of operations that must complete before this one may start.
    flops:
        Per-rank floating-point work (compute operations only).
    collective:
        The collective descriptor (communication operations only).
    phase:
        Pipeline phase annotation (warm-up / steady / cool-down / sync).
    stage, replica, microbatch, layer:
        Structural metadata (-1 where not applicable).
    tag:
        Human-readable label for traces and debugging.
    """

    op_id: int
    kind: OpKind
    ranks: Tuple[int, ...]
    deps: Tuple[int, ...]
    flops: float = 0.0
    collective: Optional[CollectiveOp] = None
    phase: PipelinePhase = PipelinePhase.STEADY
    stage: int = -1
    replica: int = -1
    microbatch: int = -1
    layer: int = -1
    tag: str = ""

    def __post_init__(self) -> None:
        if self.kind == OpKind.COMMUNICATION and self.collective is None:
            raise ConfigurationError("communication operations need a collective")
        if self.kind == OpKind.COMPUTE and self.collective is not None:
            raise ConfigurationError("compute operations must not carry a collective")
        if not self.ranks:
            raise ConfigurationError("an operation must involve at least one rank")

    @property
    def is_comm(self) -> bool:
        """Whether this is a communication operation."""
        return self.kind == OpKind.COMMUNICATION

    @property
    def parallelism(self) -> str:
        """Parallelism axis of a communication operation ('' for compute)."""
        return self.collective.parallelism if self.collective else ""

    def __str__(self) -> str:
        body = self.tag or (str(self.collective) if self.collective else "compute")
        return f"op{self.op_id}:{body}"


class IterationDAG:
    """The DAG of one training iteration."""

    def __init__(self, workload: WorkloadConfig, mesh: DeviceMesh) -> None:
        self.workload = workload
        self.mesh = mesh
        self._operations: Dict[int, Operation] = {}
        self._successors: Dict[int, Set[int]] = {}
        self._counter = itertools.count()

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #

    def add_compute(
        self,
        ranks: Sequence[int],
        flops: float,
        deps: Iterable[int] = (),
        phase: PipelinePhase = PipelinePhase.STEADY,
        tag: str = "",
        stage: int = -1,
        replica: int = -1,
        microbatch: int = -1,
        layer: int = -1,
    ) -> Operation:
        """Add a compute operation and return it."""
        return self._add(
            Operation(
                op_id=next(self._counter),
                kind=OpKind.COMPUTE,
                ranks=tuple(ranks),
                deps=tuple(sorted(set(deps))),
                flops=flops,
                phase=phase,
                tag=tag,
                stage=stage,
                replica=replica,
                microbatch=microbatch,
                layer=layer,
            )
        )

    def add_comm(
        self,
        collective: CollectiveOp,
        deps: Iterable[int] = (),
        phase: PipelinePhase = PipelinePhase.STEADY,
        tag: str = "",
        stage: int = -1,
        replica: int = -1,
        microbatch: int = -1,
        layer: int = -1,
    ) -> Operation:
        """Add a communication operation and return it."""
        return self._add(
            Operation(
                op_id=next(self._counter),
                kind=OpKind.COMMUNICATION,
                ranks=collective.group,
                deps=tuple(sorted(set(deps))),
                collective=collective,
                phase=phase,
                tag=tag or collective.tag,
                stage=stage,
                replica=replica,
                microbatch=microbatch,
                layer=layer,
            )
        )

    def _add(self, operation: Operation) -> Operation:
        for dep in operation.deps:
            if dep not in self._operations:
                raise ConfigurationError(
                    f"operation {operation.op_id} depends on unknown op {dep}"
                )
        self._operations[operation.op_id] = operation
        self._successors.setdefault(operation.op_id, set())
        for dep in operation.deps:
            self._successors[dep].add(operation.op_id)
        return operation

    # ------------------------------------------------------------------ #
    # Queries
    # ------------------------------------------------------------------ #

    @property
    def num_operations(self) -> int:
        """Number of operations in the DAG."""
        return len(self._operations)

    def operation(self, op_id: int) -> Operation:
        """Return the operation with id ``op_id``."""
        if op_id not in self._operations:
            raise ConfigurationError(f"unknown operation id {op_id}")
        return self._operations[op_id]

    def operations(self) -> List[Operation]:
        """All operations, by id."""
        return [self._operations[op_id] for op_id in sorted(self._operations)]

    def comm_operations(self) -> List[Operation]:
        """All communication operations."""
        return [op for op in self.operations() if op.is_comm]

    def topological_order(self) -> List[Operation]:
        """Return a topological order; raises :class:`DeadlockError` on cycles."""
        in_degree = {op_id: len(op.deps) for op_id, op in self._operations.items()}
        ready = sorted(op_id for op_id, degree in in_degree.items() if degree == 0)
        order: List[Operation] = []
        while ready:
            op_id = ready.pop(0)
            order.append(self._operations[op_id])
            for successor in sorted(self._successors[op_id]):
                in_degree[successor] -= 1
                if in_degree[successor] == 0:
                    ready.append(successor)
            ready.sort()
        if len(order) != len(self._operations):
            raise DeadlockError("the iteration DAG contains a dependency cycle")
        return order

    def validate(self) -> None:
        """Check acyclicity and dependency sanity."""
        self.topological_order()

    def __repr__(self) -> str:
        return (
            f"IterationDAG(ops={self.num_operations}, "
            f"comm={len(self.comm_operations())}, "
            f"workload={self.workload.model.name!r})"
        )


# --------------------------------------------------------------------------- #
# DAG builder
# --------------------------------------------------------------------------- #


def build_iteration_dag(
    workload: WorkloadConfig,
    cluster: Optional[ClusterSpec] = None,
    per_layer_fsdp: bool = True,
) -> IterationDAG:
    """Build the DAG of one training iteration of ``workload``.

    Parameters
    ----------
    workload:
        Model + parallelism + training configuration.
    cluster:
        Optional hardware description used to distinguish scale-up from
        scale-out groups (required by the simulator).
    per_layer_fsdp:
        Emit FSDP AllGather/ReduceScatter per layer (True, the paper's
        setting) or aggregated per stage (False, coarse mode for very large
        models).
    """
    mesh = DeviceMesh(workload.parallelism, cluster)
    builder = _DagBuilder(workload, mesh, per_layer_fsdp)
    return builder.build()


class _DagBuilder:
    """Stateful helper that assembles the iteration DAG."""

    def __init__(
        self, workload: WorkloadConfig, mesh: DeviceMesh, per_layer_fsdp: bool
    ) -> None:
        self.workload = workload
        self.mesh = mesh
        self.per_layer_fsdp = per_layer_fsdp
        self.par = workload.parallelism
        self.model = workload.model
        self.dag = IterationDAG(workload, mesh)
        self.num_microbatches = workload.num_microbatches
        self.layers_per_stage = workload.layers_per_stage
        # Last operation id in each (stage, replica) group's local sequence.
        self._tail: Dict[Tuple[int, int], int] = {}
        # Per (stage, replica, microbatch) forward / backward compute op ids.
        self._forward_done: Dict[Tuple[int, int, int], int] = {}
        self._backward_done: Dict[Tuple[int, int, int], int] = {}
        # Pending forward-activation / backward-gradient Send/Recv ops keyed by
        # (stage receiving, replica, microbatch).
        self._fwd_sendrecv: Dict[Tuple[int, int, int], List[int]] = {}
        self._bwd_sendrecv: Dict[Tuple[int, int, int], List[int]] = {}
        # Last FSDP AllGather per (stage, tp-like index) chain.
        self._ag_chain_tail: Dict[Tuple[int, int], int] = {}
        self._first_ag: Dict[Tuple[int, int], int] = {}
        # Tails of the FSDP ReduceScatter chains, per stage.
        self._rs_tails: Dict[int, List[int]] = {}

    # -------------------------- rank helpers --------------------------- #

    def _ranks_of(self, stage: int, replica: int) -> Tuple[int, ...]:
        """All ranks with pipeline coordinate ``stage`` and dp coordinate ``replica``.

        ``pp`` and ``dp`` are the two outermost mesh axes, so these ranks are
        one contiguous block of ``cp * ep * tp`` ranks.
        """
        inner = self.par.cp * self.par.ep * self.par.tp
        base = (stage * self.par.dp + replica) * inner
        return tuple(range(base, base + inner))

    def _inner_indices(self) -> List[Tuple[int, int, int]]:
        """All (cp, ep, tp) coordinate combinations (the per-rail replicas)."""
        return [
            (cp, ep, tp)
            for cp in range(self.par.cp)
            for ep in range(self.par.ep)
            for tp in range(self.par.tp)
        ]

    def _rank_at(
        self, stage: int, replica: int, cp: int = 0, ep: int = 0, tp: int = 0
    ) -> int:
        return self.mesh.rank_of(
            MeshCoordinate(pp=stage, dp=replica, cp=cp, ep=ep, tp=tp)
        )

    def _dp_group(self, stage: int, cp: int, ep: int, tp: int) -> Tuple[int, ...]:
        """Ranks across the DP axis for fixed (stage, cp, ep, tp)."""
        return tuple(
            self._rank_at(stage, replica, cp, ep, tp)
            for replica in range(self.par.dp)
        )

    # ----------------------------- sizes ------------------------------- #

    def _forward_flops(self) -> float:
        """Per-rank forward FLOPs of one micro-batch on one stage."""
        tokens = (
            self.workload.training.micro_batch_size
            * self.model.seq_length
            / self.par.cp
        )
        total = self.layers_per_stage * self.model.flops_per_token_per_layer() * tokens
        return total / self.par.tp

    def _backward_flops(self) -> float:
        """Per-rank backward FLOPs of one micro-batch on one stage (2× forward)."""
        return 2.0 * self._forward_flops()

    def _optimizer_flops(self) -> float:
        """Per-rank optimizer-step FLOPs (elementwise Adam update)."""
        params_per_rank = self.workload.stage_params() / (self.par.tp * self.par.dp)
        return 10.0 * params_per_rank

    # ----------------------------- build ------------------------------- #

    def build(self) -> IterationDAG:
        self._emit_fsdp_allgathers()
        for stage in range(self.par.pp):
            for replica in range(self.par.dp):
                self._emit_pipeline_schedule(stage, replica)
        self._emit_fsdp_reducescatters()
        self._emit_optimizer_step()
        self.dag.validate()
        return self.dag

    # FSDP parameter AllGather chain (forward prefetch, overlaps compute).
    def _emit_fsdp_allgathers(self) -> None:
        if self.par.dp <= 1 or not self.par.use_fsdp:
            return
        per_layer = self.workload.fsdp_allgather_bytes_per_layer()
        layers = self.layers_per_stage if self.per_layer_fsdp else 1
        size = per_layer if self.per_layer_fsdp else per_layer * self.layers_per_stage
        for stage in range(self.par.pp):
            for index, (cp, ep, tp) in enumerate(self._inner_indices()):
                group = self._dp_group(stage, cp, ep, tp)
                prev: Optional[int] = None
                for layer in range(layers):
                    op = self.dag.add_comm(
                        CollectiveOp(
                            collective=CollectiveType.ALL_GATHER,
                            group=group,
                            size_bytes=size,
                            parallelism="dp",
                            tag=f"fsdp.allgather.s{stage}.l{layer}",
                        ),
                        deps=(prev,) if prev is not None else (),
                        phase=PipelinePhase.WARMUP,
                        stage=stage,
                        layer=layer,
                    )
                    if prev is None:
                        self._first_ag[(stage, index)] = op.op_id
                    prev = op.op_id
                if prev is not None:
                    self._ag_chain_tail[(stage, index)] = prev

    # One (stage, replica) group's 1F1B schedule: compute + PP Send/Recv.
    def _emit_pipeline_schedule(self, stage: int, replica: int) -> None:
        ranks = self._ranks_of(stage, replica)
        schedule = one_f_one_b_schedule(self.par.pp, self.num_microbatches, stage)
        for action in schedule:
            if action.kind == ActionKind.FORWARD:
                self._emit_forward(stage, replica, ranks, action.microbatch, action.phase)
            else:
                self._emit_backward(stage, replica, ranks, action.microbatch, action.phase)

    def _group_deps(self, stage: int, replica: int) -> List[int]:
        tail = self._tail.get((stage, replica))
        return [tail] if tail is not None else []

    def _emit_forward(
        self,
        stage: int,
        replica: int,
        ranks: Tuple[int, ...],
        microbatch: int,
        phase: PipelinePhase,
    ) -> None:
        deps = self._group_deps(stage, replica)
        # Incoming activation from the previous stage (if any).
        if stage > 0:
            deps.extend(self._fwd_sendrecv.get((stage, replica, microbatch), []))
        # First micro-batch waits for the first parameter AllGather.
        if microbatch == 0 and self.par.dp > 1 and self.par.use_fsdp:
            for index in range(len(self._inner_indices())):
                first = self._first_ag.get((stage, index))
                if first is not None:
                    deps.append(first)

        # CP / EP collectives ahead of (modelled as part of) the forward
        # compute of this micro-batch.
        extra_deps = self._emit_inner_parallelism_comm(
            stage, replica, microbatch, direction="fwd", deps=deps, phase=phase
        )
        deps.extend(extra_deps)

        compute = self.dag.add_compute(
            ranks=ranks,
            flops=self._forward_flops(),
            deps=deps,
            phase=phase,
            tag=f"fwd.s{stage}.d{replica}.mb{microbatch}",
            stage=stage,
            replica=replica,
            microbatch=microbatch,
        )
        self._forward_done[(stage, replica, microbatch)] = compute.op_id
        self._tail[(stage, replica)] = compute.op_id

        # Send the activation to the next stage, one Send/Recv per rail.
        if stage < self.par.pp - 1:
            send_ids: List[int] = []
            for cp, ep, tp in self._inner_indices():
                src = self._rank_at(stage, replica, cp, ep, tp)
                dst = self._rank_at(stage + 1, replica, cp, ep, tp)
                op = self.dag.add_comm(
                    CollectiveOp(
                        collective=CollectiveType.SEND_RECV,
                        group=(src, dst),
                        size_bytes=self.workload.pp_activation_bytes(),
                        parallelism="pp",
                        tag=f"pp.fwd.s{stage}to{stage+1}.d{replica}.mb{microbatch}",
                    ),
                    deps=(compute.op_id,),
                    phase=phase,
                    stage=stage,
                    replica=replica,
                    microbatch=microbatch,
                )
                send_ids.append(op.op_id)
            self._fwd_sendrecv[(stage + 1, replica, microbatch)] = send_ids

    def _emit_backward(
        self,
        stage: int,
        replica: int,
        ranks: Tuple[int, ...],
        microbatch: int,
        phase: PipelinePhase,
    ) -> None:
        deps = self._group_deps(stage, replica)
        # A stage needs its own forward activation state...
        forward = self._forward_done.get((stage, replica, microbatch))
        if forward is not None:
            deps.append(forward)
        # ...and, unless it is the last stage, the gradient from downstream.
        if stage < self.par.pp - 1:
            deps.extend(self._bwd_sendrecv.get((stage, replica, microbatch), []))

        extra_deps = self._emit_inner_parallelism_comm(
            stage, replica, microbatch, direction="bwd", deps=deps, phase=phase
        )
        deps.extend(extra_deps)

        compute = self.dag.add_compute(
            ranks=ranks,
            flops=self._backward_flops(),
            deps=deps,
            phase=phase,
            tag=f"bwd.s{stage}.d{replica}.mb{microbatch}",
            stage=stage,
            replica=replica,
            microbatch=microbatch,
        )
        self._backward_done[(stage, replica, microbatch)] = compute.op_id
        self._tail[(stage, replica)] = compute.op_id

        # Send the input gradient to the previous stage, one Send/Recv per rail.
        if stage > 0:
            send_ids: List[int] = []
            for cp, ep, tp in self._inner_indices():
                src = self._rank_at(stage, replica, cp, ep, tp)
                dst = self._rank_at(stage - 1, replica, cp, ep, tp)
                op = self.dag.add_comm(
                    CollectiveOp(
                        collective=CollectiveType.SEND_RECV,
                        group=(src, dst),
                        size_bytes=self.workload.pp_activation_bytes(),
                        parallelism="pp",
                        tag=f"pp.bwd.s{stage}to{stage-1}.d{replica}.mb{microbatch}",
                    ),
                    deps=(compute.op_id,),
                    phase=phase,
                    stage=stage,
                    replica=replica,
                    microbatch=microbatch,
                )
                send_ids.append(op.op_id)
            self._bwd_sendrecv[(stage - 1, replica, microbatch)] = send_ids

    def _emit_inner_parallelism_comm(
        self,
        stage: int,
        replica: int,
        microbatch: int,
        direction: str,
        deps: Sequence[int],
        phase: PipelinePhase,
    ) -> List[int]:
        """Emit CP / EP collectives attached to one micro-batch's compute.

        Returns op ids the compute must additionally depend on.  These
        collectives are aggregated per stage per micro-batch (one op per axis
        per rail-replica) to keep DAG sizes manageable while preserving the
        traffic volume and ordering.
        """
        extra: List[int] = []
        base_deps = tuple(deps)

        if self.par.cp > 1:
            collective = (
                CollectiveType.ALL_GATHER if direction == "fwd" else CollectiveType.REDUCE_SCATTER
            )
            size = self.workload.cp_allgather_bytes() * self.layers_per_stage
            for ep in range(self.par.ep):
                for tp in range(self.par.tp):
                    group = tuple(
                        self._rank_at(stage, replica, cp, ep, tp)
                        for cp in range(self.par.cp)
                    )
                    op = self.dag.add_comm(
                        CollectiveOp(
                            collective=collective,
                            group=group,
                            size_bytes=size,
                            parallelism="cp",
                            tag=f"cp.{direction}.s{stage}.d{replica}.mb{microbatch}",
                        ),
                        deps=base_deps,
                        phase=phase,
                        stage=stage,
                        replica=replica,
                        microbatch=microbatch,
                    )
                    extra.append(op.op_id)

        if self.par.ep > 1:
            size = self.workload.ep_alltoall_bytes() * self.layers_per_stage
            for cp in range(self.par.cp):
                for tp in range(self.par.tp):
                    group = tuple(
                        self._rank_at(stage, replica, cp, ep, tp)
                        for ep in range(self.par.ep)
                    )
                    op = self.dag.add_comm(
                        CollectiveOp(
                            collective=CollectiveType.ALL_TO_ALL,
                            group=group,
                            size_bytes=size,
                            parallelism="ep",
                            tag=f"ep.{direction}.s{stage}.d{replica}.mb{microbatch}",
                        ),
                        deps=base_deps,
                        phase=phase,
                        stage=stage,
                        replica=replica,
                        microbatch=microbatch,
                    )
                    extra.append(op.op_id)

        return extra

    # FSDP gradient ReduceScatter chains (after the last backward of each stage).
    def _emit_fsdp_reducescatters(self) -> None:
        if self.par.dp <= 1:
            return
        layers = self.layers_per_stage if self.per_layer_fsdp else 1
        if self.par.use_fsdp:
            per_layer = self.workload.fsdp_reducescatter_bytes_per_layer()
            size = per_layer if self.per_layer_fsdp else per_layer * self.layers_per_stage
            collective = CollectiveType.REDUCE_SCATTER
            tag_prefix = "fsdp.reducescatter"
        else:
            size = self.workload.dp_allreduce_bytes()
            layers = 1
            collective = CollectiveType.ALL_REDUCE
            tag_prefix = "dp.allreduce"
        for stage in range(self.par.pp):
            gradient_ready = [
                self._backward_done[(stage, replica, self.num_microbatches - 1)]
                for replica in range(self.par.dp)
            ]
            tails: List[int] = []
            for index, (cp, ep, tp) in enumerate(self._inner_indices()):
                group = self._dp_group(stage, cp, ep, tp)
                prev: Optional[int] = None
                for layer in range(layers):
                    deps: List[int] = list(gradient_ready)
                    if prev is not None:
                        deps.append(prev)
                    op = self.dag.add_comm(
                        CollectiveOp(
                            collective=collective,
                            group=group,
                            size_bytes=size,
                            parallelism="dp",
                            tag=f"{tag_prefix}.s{stage}.l{layer}",
                        ),
                        deps=deps,
                        phase=PipelinePhase.COOLDOWN,
                        stage=stage,
                        layer=layer,
                    )
                    prev = op.op_id
                if prev is not None:
                    tails.append(prev)
            self._rs_tails[stage] = tails

    # Optimizer step: parameter update compute + small sync AllReduces.
    def _emit_optimizer_step(self) -> None:
        sync_count = self.workload.training.optimizer_sync_collectives
        sync_bytes = self.workload.optimizer_sync_bytes()
        update_ids: List[int] = []
        for stage in range(self.par.pp):
            for replica in range(self.par.dp):
                deps = self._group_deps(stage, replica)
                deps.extend(self._rs_tails.get(stage, []))
                ranks = self._ranks_of(stage, replica)
                update = self.dag.add_compute(
                    ranks=ranks,
                    flops=self._optimizer_flops(),
                    deps=deps,
                    phase=PipelinePhase.SYNC,
                    tag=f"optimizer.s{stage}.d{replica}",
                    stage=stage,
                    replica=replica,
                )
                update_ids.append(update.op_id)
                self._tail[(stage, replica)] = update.op_id

        # Small synchronization AllReduce calls along DP and PP (grad-norm
        # clipping, loss scaling, numerics checks — paper §3.1 / §5).
        if self.par.dp > 1 and sync_count > 0:
            for stage in range(self.par.pp):
                for index, (cp, ep, tp) in enumerate(self._inner_indices()):
                    group = self._dp_group(stage, cp, ep, tp)
                    prev_ids = tuple(update_ids)
                    prev: Optional[int] = None
                    for sync_index in range(sync_count):
                        deps = list(prev_ids) if prev is None else [prev]
                        op = self.dag.add_comm(
                            CollectiveOp(
                                collective=CollectiveType.ALL_REDUCE,
                                group=group,
                                size_bytes=sync_bytes,
                                parallelism="dp",
                                tag=f"sync.dp.s{stage}.{sync_index}",
                            ),
                            deps=deps,
                            phase=PipelinePhase.SYNC,
                            stage=stage,
                        )
                        prev = op.op_id

        if self.par.pp > 1 and sync_count > 0:
            for replica in range(self.par.dp):
                for cp, ep, tp in self._inner_indices():
                    group = tuple(
                        self._rank_at(stage, replica, cp, ep, tp)
                        for stage in range(self.par.pp)
                    )
                    self.dag.add_comm(
                        CollectiveOp(
                            collective=CollectiveType.ALL_REDUCE,
                            group=group,
                            size_bytes=sync_bytes,
                            parallelism="pp",
                            tag=f"sync.pp.d{replica}",
                        ),
                        deps=tuple(update_ids),
                        phase=PipelinePhase.SYNC,
                        replica=replica,
                    )
