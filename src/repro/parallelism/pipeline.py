"""The pipeline-parallel 1F1B schedule.

The paper's trace study (§3.1) uses the 1-forward-1-backward (1F1B) schedule
[61]: each pipeline stage runs a warm-up phase of forward micro-batches, a
steady phase alternating one forward and one backward, and a cool-down phase
draining the remaining backwards.  The schedule generator annotates every
action with its phase, which the iteration DAG carries on each operation.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import List

from ..errors import ConfigurationError


class PipelinePhase(str, Enum):
    """Pipeline execution phase of one action (paper Fig. 3 annotation)."""

    WARMUP = "warm-up"
    STEADY = "steady"
    COOLDOWN = "cool-down"
    SYNC = "sync"


class ActionKind(str, Enum):
    """What a pipeline stage does in one schedule slot."""

    FORWARD = "forward"
    BACKWARD = "backward"


@dataclass(frozen=True)
class PipelineAction:
    """One slot of a stage's pipeline schedule."""

    kind: ActionKind
    microbatch: int
    stage: int
    phase: PipelinePhase

    def __str__(self) -> str:
        letter = "F" if self.kind == ActionKind.FORWARD else "B"
        return f"{letter}{self.microbatch}@s{self.stage}[{self.phase.value}]"


def one_f_one_b_schedule(
    num_stages: int, num_microbatches: int, stage: int
) -> List[PipelineAction]:
    """Return the 1F1B schedule of ``stage`` for one training iteration.

    Parameters
    ----------
    num_stages:
        Pipeline depth (PP degree).
    num_microbatches:
        Micro-batches per iteration per pipeline.
    stage:
        Which stage's schedule to generate (0 = first stage).
    """
    _validate(num_stages, num_microbatches, stage)
    warmup = min(num_stages - stage - 1, num_microbatches)
    actions: List[PipelineAction] = []

    for microbatch in range(warmup):
        actions.append(
            PipelineAction(ActionKind.FORWARD, microbatch, stage, PipelinePhase.WARMUP)
        )

    steady_count = num_microbatches - warmup
    for index in range(steady_count):
        forward_mb = warmup + index
        backward_mb = index
        is_last_forward = forward_mb == num_microbatches - 1
        phase = PipelinePhase.STEADY
        actions.append(
            PipelineAction(ActionKind.FORWARD, forward_mb, stage, phase)
        )
        actions.append(
            PipelineAction(
                ActionKind.BACKWARD,
                backward_mb,
                stage,
                PipelinePhase.COOLDOWN if is_last_forward else phase,
            )
        )

    for microbatch in range(steady_count, num_microbatches):
        actions.append(
            PipelineAction(
                ActionKind.BACKWARD, microbatch, stage, PipelinePhase.COOLDOWN
            )
        )
    return actions


def _validate(num_stages: int, num_microbatches: int, stage: int) -> None:
    if num_stages <= 0:
        raise ConfigurationError("num_stages must be positive")
    if num_microbatches <= 0:
        raise ConfigurationError("num_microbatches must be positive")
    if not 0 <= stage < num_stages:
        raise ConfigurationError(
            f"stage {stage} out of range for {num_stages} pipeline stages"
        )
