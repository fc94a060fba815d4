"""Parallelism and workload modelling: configs, meshes, groups, DAGs, traces.

This subpackage is the ML-side substrate of the reproduction: it expands a
model + parallelism + training configuration into the per-iteration DAG of
compute and communication operations that the simulator executes and that
Opus reconfigures around.
"""

from .config import (
    DTYPE_BYTES,
    ModelConfig,
    ParallelismConfig,
    TrainingConfig,
    WorkloadConfig,
)
from .dag import (
    IterationDAG,
    OpKind,
    Operation,
    build_iteration_dag,
)
from .groups import CommunicationGroup, GroupRegistry
from .mesh import AXIS_ORDER, DeviceMesh, MeshCoordinate
from .pipeline import (
    ActionKind,
    PipelineAction,
    PipelinePhase,
    one_f_one_b_schedule,
)
from .trace import (
    CommRecord,
    ComputeRecord,
    IterationTrace,
    ReconfigRecord,
    TrainingTrace,
)
from .workloads import (
    GPT3_175B,
    LLAMA31_405B,
    LLAMA3_70B,
    LLAMA3_8B,
    MIXTRAL_8X7B,
    MODEL_CATALOG,
    llama3_405b_workload,
    moe_workload,
    paper_trace_cluster,
    paper_trace_workload,
    small_test_workload,
)

__all__ = [
    "AXIS_ORDER",
    "ActionKind",
    "CommRecord",
    "CommunicationGroup",
    "ComputeRecord",
    "DTYPE_BYTES",
    "DeviceMesh",
    "GPT3_175B",
    "GroupRegistry",
    "IterationDAG",
    "IterationTrace",
    "LLAMA31_405B",
    "LLAMA3_70B",
    "LLAMA3_8B",
    "MIXTRAL_8X7B",
    "MODEL_CATALOG",
    "MeshCoordinate",
    "ModelConfig",
    "OpKind",
    "Operation",
    "ParallelismConfig",
    "PipelineAction",
    "PipelinePhase",
    "ReconfigRecord",
    "TrainingConfig",
    "TrainingTrace",
    "WorkloadConfig",
    "build_iteration_dag",
    "llama3_405b_workload",
    "moe_workload",
    "one_f_one_b_schedule",
    "paper_trace_cluster",
    "paper_trace_workload",
    "small_test_workload",
]
