"""Iteration DAG and 1F1B pipeline tests: schedules and emission switches."""

from collections import Counter, defaultdict

import pytest

from repro.collectives.primitives import CollectiveType
from repro.errors import ConfigurationError
from repro.experiments.contention import TINY_MOE_MODEL
from repro.parallelism.config import ParallelismConfig, TrainingConfig, WorkloadConfig
from repro.parallelism.dag import _DagBuilder, build_iteration_dag
from repro.parallelism.mesh import DeviceMesh
from repro.parallelism.pipeline import ActionKind, PipelinePhase, one_f_one_b_schedule


def _workload(tp=1, pp=1, dp=1, cp=1, ep=1, microbatches=2):
    """The 4-layer tiny MoE model (so EP can be on) under one parallelism."""
    return WorkloadConfig(
        model=TINY_MOE_MODEL,
        parallelism=ParallelismConfig(tp=tp, pp=pp, dp=dp, cp=cp, ep=ep, use_fsdp=True),
        training=TrainingConfig(
            global_batch_size=dp * 2 * microbatches, micro_batch_size=2
        ),
    )


def _collectives(dag, axis):
    return [op for op in dag.comm_operations() if op.collective.parallelism == axis]


# --------------------------------------------------------------------------- #
# 1F1B schedule
# --------------------------------------------------------------------------- #


@pytest.mark.parametrize(
    "num_stages, num_microbatches",
    [(1, 1), (1, 4), (2, 4), (3, 3), (4, 2), (4, 8)],
)
def test_one_f_one_b_stage_schedules(num_stages, num_microbatches):
    for stage in range(num_stages):
        actions = one_f_one_b_schedule(num_stages, num_microbatches, stage)
        assert {action.stage for action in actions} == {stage}

        warmup = min(num_stages - stage - 1, num_microbatches)
        leading = actions[:warmup]
        assert all(a.kind == ActionKind.FORWARD for a in leading)
        assert all(a.phase == PipelinePhase.WARMUP for a in leading)
        assert sum(a.phase == PipelinePhase.WARMUP for a in actions) == warmup

        # Every micro-batch runs forward once and backward once...
        slots = Counter((a.kind, a.microbatch) for a in actions)
        expected = {
            (kind, mb): 1
            for kind in (ActionKind.FORWARD, ActionKind.BACKWARD)
            for mb in range(num_microbatches)
        }
        assert slots == expected
        # ...forward before backward, and micro-batches in order per kind.
        position = {(a.kind, a.microbatch): i for i, a in enumerate(actions)}
        for mb in range(num_microbatches):
            assert position[(ActionKind.FORWARD, mb)] < position[(ActionKind.BACKWARD, mb)]
        for kind in (ActionKind.FORWARD, ActionKind.BACKWARD):
            order = [a.microbatch for a in actions if a.kind == kind]
            assert order == list(range(num_microbatches))
        # The schedule ends draining backwards in the cool-down phase.
        assert actions[-1].kind == ActionKind.BACKWARD
        assert actions[-1].phase == PipelinePhase.COOLDOWN


@pytest.mark.parametrize(
    "num_stages, num_microbatches, stage",
    [(0, 4, 0), (-1, 4, 0), (2, 0, 0), (2, -3, 0), (2, 4, -1), (2, 4, 2)],
)
def test_one_f_one_b_rejects_bad_stage_counts(num_stages, num_microbatches, stage):
    with pytest.raises(ConfigurationError):
        one_f_one_b_schedule(num_stages, num_microbatches, stage)


# --------------------------------------------------------------------------- #
# DAG emission switches
# --------------------------------------------------------------------------- #


@pytest.mark.parametrize(
    "dims",
    [
        {},
        {"tp": 2, "dp": 2},
        {"cp": 2, "pp": 2},
        {"ep": 2, "dp": 2},
        {"tp": 2, "cp": 2, "ep": 2, "pp": 2, "dp": 2},
    ],
)
def test_cp_and_ep_collectives_follow_their_degrees(dims):
    workload = _workload(**dims)
    dag = build_iteration_dag(workload)
    par = workload.parallelism
    # One CP / EP collective per (stage, replica, micro-batch, direction) for
    # each combination of the other inner axes.
    per_direction = par.pp * par.dp * workload.num_microbatches
    cp_ops = _collectives(dag, "cp")
    ep_ops = _collectives(dag, "ep")
    if par.cp > 1:
        assert len(cp_ops) == 2 * per_direction * par.ep * par.tp
        assert {op.collective.group_size for op in cp_ops} == {par.cp}
        assert {op.collective.collective for op in cp_ops} == {
            CollectiveType.ALL_GATHER,
            CollectiveType.REDUCE_SCATTER,
        }
    else:
        assert cp_ops == []
    if par.ep > 1:
        assert len(ep_ops) == 2 * per_direction * par.cp * par.tp
        assert {op.collective.group_size for op in ep_ops} == {par.ep}
        assert {op.collective.collective for op in ep_ops} == {CollectiveType.ALL_TO_ALL}
    else:
        assert ep_ops == []
    # TP traffic stays in the scale-up domain and is never emitted.
    assert _collectives(dag, "tp") == []


@pytest.mark.parametrize(
    "dims",
    [
        {},
        {"pp": 4},
        {"dp": 3, "tp": 2},
        {"pp": 2, "dp": 2, "cp": 4},
        {"pp": 2, "dp": 3, "ep": 2, "tp": 1},
        {"tp": 2, "cp": 2, "ep": 2, "pp": 2, "dp": 2},
    ],
)
def test_ranks_of_equals_the_coordinate_scan(dims):
    workload = _workload(**dims)
    mesh = DeviceMesh(workload.parallelism)
    builder = _DagBuilder(workload, mesh, per_layer_fsdp=True)
    par = workload.parallelism
    for stage in range(par.pp):
        for replica in range(par.dp):
            scanned = tuple(
                rank
                for rank in mesh.ranks()
                if mesh.coordinate(rank).pp == stage
                and mesh.coordinate(rank).dp == replica
            )
            assert builder._ranks_of(stage, replica) == scanned


def test_coarse_fsdp_emits_one_allgather_per_chain():
    workload = _workload(tp=2, pp=2, dp=2)
    layers = workload.layers_per_stage
    assert layers > 1

    def allgather_chains(per_layer_fsdp):
        dag = build_iteration_dag(workload, per_layer_fsdp=per_layer_fsdp)
        chains = defaultdict(list)
        for op in _collectives(dag, "dp"):
            if op.collective.collective == CollectiveType.ALL_GATHER:
                chains[(op.stage, op.collective.group)].append(op.collective.size_bytes)
        return chains

    per_layer = allgather_chains(True)
    coarse = allgather_chains(False)
    assert per_layer.keys() == coarse.keys()
    assert len(per_layer) == workload.parallelism.pp * workload.parallelism.tp
    for chain, sizes in per_layer.items():
        assert len(sizes) == layers
        assert coarse[chain] == [pytest.approx(sum(sizes))]
