"""Metrics extracted from simulation traces.

These helpers summarize :class:`~repro.parallelism.trace.IterationTrace` and
:class:`~repro.parallelism.trace.TrainingTrace` objects into the quantities
the paper reports: iteration time, its decomposition into compute /
communication / reconfiguration-exposed time, per-rail traffic, and the
normalized-iteration-time ratio of Fig. 8.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

from ..errors import SimulationError
from ..parallelism.trace import IterationTrace, TrainingTrace


@dataclass(frozen=True)
class IterationMetrics:
    """Summary of one simulated iteration."""

    iteration_time: float
    compute_time: float
    scaleout_comm_time: float
    scaleup_comm_time: float
    exposed_reconfig_time: float
    num_reconfigurations: int
    scaleout_bytes: float
    #: Fault-injection events applied during the iteration.
    num_faults: int = 0

    @property
    def comm_time(self) -> float:
        """Total communication busy time (scale-up + scale-out)."""
        return self.scaleout_comm_time + self.scaleup_comm_time


def _busy_time(intervals: Sequence[Tuple[float, float]]) -> float:
    """Total length of the union of (start, end) intervals."""
    if not intervals:
        return 0.0
    ordered = sorted(intervals)
    total = 0.0
    current_start, current_end = ordered[0]
    for start, end in ordered[1:]:
        if start > current_end:
            total += current_end - current_start
            current_start, current_end = start, end
        else:
            current_end = max(current_end, end)
    total += current_end - current_start
    return total


def iteration_metrics(trace: IterationTrace) -> IterationMetrics:
    """Summarize one iteration trace."""
    compute = _busy_time([(r.start, r.end) for r in trace.compute_records])
    scaleout = _busy_time(
        [(r.start, r.end) for r in trace.comm_records if r.scaleout]
    )
    scaleup = _busy_time(
        [(r.start, r.end) for r in trace.comm_records if not r.scaleout]
    )
    return IterationMetrics(
        iteration_time=trace.iteration_time,
        compute_time=compute,
        scaleout_comm_time=scaleout,
        scaleup_comm_time=scaleup,
        exposed_reconfig_time=trace.total_reconfiguration_blocking(),
        num_reconfigurations=trace.num_reconfigurations(),
        scaleout_bytes=trace.total_scaleout_bytes(),
        num_faults=trace.num_faults(),
    )


def mean_iteration_time(training: TrainingTrace, skip_first: bool = False) -> float:
    """Mean iteration time, optionally excluding the profiling iteration.

    Opus's first iteration both profiles traffic and reconfigures on demand;
    Fig. 8 reports steady-state iterations, so the Fig. 8 benchmark passes
    ``skip_first=True`` when more than one iteration was simulated.
    """
    iterations = list(training.iterations)
    if skip_first and len(iterations) > 1:
        iterations = iterations[1:]
    if not iterations:
        raise SimulationError(
            "cannot compute the mean iteration time of an empty training "
            "trace (no iterations recorded)"
        )
    return sum(t.iteration_time for t in iterations) / len(iterations)


def normalized_iteration_time(
    candidate: TrainingTrace, baseline: TrainingTrace, skip_first: bool = True
) -> float:
    """Fig. 8's y-axis: candidate iteration time / baseline iteration time."""
    base = mean_iteration_time(baseline, skip_first=skip_first)
    if base <= 0:
        raise SimulationError("baseline iteration time must be positive")
    return mean_iteration_time(candidate, skip_first=skip_first) / base


def reconfigurations_per_iteration(training: TrainingTrace) -> List[int]:
    """Number of reconfigurations in each simulated iteration."""
    return [trace.num_reconfigurations() for trace in training.iterations]
