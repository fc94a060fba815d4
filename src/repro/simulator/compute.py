"""Compute-time model: how long a compute operation occupies its GPUs.

The workload DAG records per-rank FLOP counts; this module converts them into
durations using the GPU's peak throughput and a model FLOPs utilization (MFU)
factor.  Absolute times are calibration, not prediction — the paper's Fig. 8
normalizes iteration time to the zero-reconfiguration baseline, so what
matters is that compute durations land in the realistic range that produces
millisecond-to-second idle windows between parallelism phases (§3.1).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import ConfigurationError
from ..parallelism.dag import OpKind, Operation
from ..topology.devices import GPUSpec


@dataclass(frozen=True)
class ComputeTimeModel:
    """Analytic compute-duration model.

    Attributes
    ----------
    gpu:
        The GPU the compute runs on.
    mfu:
        Model FLOPs utilization: the fraction of peak throughput a real
        training step achieves (0.3–0.5 for well-tuned LLM training).
    kernel_launch_overhead:
        Fixed per-operation overhead in seconds (kernel launches, optimizer
        bookkeeping).
    """

    gpu: GPUSpec
    mfu: float = 0.40
    kernel_launch_overhead: float = 50e-6

    def __post_init__(self) -> None:
        if not 0.0 < self.mfu <= 1.0:
            raise ConfigurationError("mfu must be in (0, 1]")
        if self.kernel_launch_overhead < 0:
            raise ConfigurationError("kernel_launch_overhead must be non-negative")

    @property
    def effective_flops(self) -> float:
        """Sustained per-GPU throughput in FLOP/s."""
        return self.gpu.peak_flops * self.mfu

    def duration(self, operation: Operation) -> float:
        """Duration of a compute operation in seconds."""
        if operation.kind != OpKind.COMPUTE:
            raise ConfigurationError("ComputeTimeModel only handles compute operations")
        return self.kernel_launch_overhead + operation.flops / self.effective_flops
