"""Trace data structures: the timeline the simulator produces and Opus consumes.

The paper's §3.1 analysis is performed on a trace of the collective calls of a
real TorchTitan run.  The reproduction substitutes the simulator's output for
that recording; this module defines the trace schema shared by both sides:

* :class:`CommRecord` — one executed communication operation with its timing,
  sizes, group, parallelism axis, and the rails it used;
* :class:`ComputeRecord` — one executed compute operation;
* :class:`ReconfigRecord` — one rail reconfiguration performed by Opus;
* :class:`FaultRecord` — one applied fault-injection event;
* :class:`IterationTrace` — the per-iteration container, with the totals the
  metrics summaries read and a JSON-ready dict form.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import List, Tuple

from ..collectives.primitives import CollectiveType
from ..errors import ConfigurationError, SimulationError
from .pipeline import PipelinePhase


@dataclass(frozen=True)
class CommRecord:
    """One executed communication operation."""

    op_id: int
    collective: CollectiveType
    parallelism: str
    group: Tuple[int, ...]
    rails: Tuple[int, ...]
    size_bytes: float
    total_bytes: float
    start: float
    end: float
    phase: PipelinePhase = PipelinePhase.STEADY
    tag: str = ""
    scaleout: bool = True

    @property
    def duration(self) -> float:
        """Elapsed time of the operation in seconds."""
        return self.end - self.start

    def __post_init__(self) -> None:
        if self.end < self.start:
            raise ConfigurationError("a record cannot end before it starts")


@dataclass(frozen=True)
class ComputeRecord:
    """One executed compute operation."""

    op_id: int
    ranks: Tuple[int, ...]
    start: float
    end: float
    phase: PipelinePhase = PipelinePhase.STEADY
    tag: str = ""

    @property
    def duration(self) -> float:
        """Elapsed time of the operation in seconds."""
        return self.end - self.start


@dataclass(frozen=True)
class ReconfigRecord:
    """One rail reconfiguration performed during the iteration."""

    rail: int
    start: float
    end: float
    provisioned: bool
    blocking: float
    group_name: str = ""
    num_circuits_changed: int = 0

    @property
    def duration(self) -> float:
        """Switching time of the reconfiguration in seconds."""
        return self.end - self.start


@dataclass(frozen=True)
class FaultRecord:
    """One fault-injection event applied during the iteration.

    Produced by :class:`~repro.simulator.faults.FaultInjector` so fault
    timelines land in the trace next to the communication and
    reconfiguration records they perturb.
    """

    time: float
    #: :class:`~repro.simulator.faults.FaultKind` value (e.g. ``link_fail``).
    kind: str
    #: Human-readable target description (patterns, rail/port, rank).
    target: str = ""
    #: Number of topology links the event touched (0 for non-link faults).
    num_links: int = 0


@dataclass
class IterationTrace:
    """The full trace of one simulated (or recorded) training iteration."""

    iteration: int
    comm_records: List[CommRecord] = field(default_factory=list)
    compute_records: List[ComputeRecord] = field(default_factory=list)
    reconfig_records: List[ReconfigRecord] = field(default_factory=list)
    fault_records: List[FaultRecord] = field(default_factory=list)

    # ------------------------------------------------------------------ #
    # Basic properties
    # ------------------------------------------------------------------ #

    @property
    def start(self) -> float:
        """Start time of the earliest record (0.0 for an empty trace)."""
        times = [r.start for r in self.comm_records] + [
            r.start for r in self.compute_records
        ]
        return min(times) if times else 0.0

    @property
    def end(self) -> float:
        """End time of the latest record (0.0 for an empty trace)."""
        times = [r.end for r in self.comm_records] + [
            r.end for r in self.compute_records
        ]
        return max(times) if times else 0.0

    @property
    def iteration_time(self) -> float:
        """Makespan of the iteration in seconds."""
        return self.end - self.start

    # ------------------------------------------------------------------ #
    # Queries
    # ------------------------------------------------------------------ #

    def total_scaleout_bytes(self) -> float:
        """Total bytes moved over the rails during the iteration."""
        return sum(r.total_bytes for r in self.comm_records if r.scaleout)

    def total_reconfiguration_blocking(self) -> float:
        """Total reconfiguration time spent blocking traffic (seconds)."""
        return sum(r.blocking for r in self.reconfig_records)

    def num_reconfigurations(self) -> int:
        """Number of reconfigurations performed during the iteration."""
        return len(self.reconfig_records)

    def num_faults(self) -> int:
        """Number of fault events applied during the iteration."""
        return len(self.fault_records)

    # ------------------------------------------------------------------ #
    # Serialization
    # ------------------------------------------------------------------ #

    def to_dict(self) -> dict:
        """Return a JSON-serializable representation of the trace."""
        return {
            "iteration": self.iteration,
            "comm_records": [
                {**asdict(r), "collective": r.collective.value, "phase": r.phase.value}
                for r in self.comm_records
            ],
            "compute_records": [
                {**asdict(r), "phase": r.phase.value} for r in self.compute_records
            ],
            "reconfig_records": [asdict(r) for r in self.reconfig_records],
            "fault_records": [asdict(r) for r in self.fault_records],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "IterationTrace":
        """Rebuild a trace from :meth:`to_dict` output."""
        trace = cls(iteration=int(data["iteration"]))
        for row in data.get("comm_records", []):
            trace.comm_records.append(
                CommRecord(
                    op_id=int(row["op_id"]),
                    collective=CollectiveType(row["collective"]),
                    parallelism=row["parallelism"],
                    group=tuple(row["group"]),
                    rails=tuple(row["rails"]),
                    size_bytes=float(row["size_bytes"]),
                    total_bytes=float(row["total_bytes"]),
                    start=float(row["start"]),
                    end=float(row["end"]),
                    phase=PipelinePhase(row["phase"]),
                    tag=row.get("tag", ""),
                    scaleout=bool(row.get("scaleout", True)),
                )
            )
        for row in data.get("compute_records", []):
            trace.compute_records.append(
                ComputeRecord(
                    op_id=int(row["op_id"]),
                    ranks=tuple(row["ranks"]),
                    start=float(row["start"]),
                    end=float(row["end"]),
                    phase=PipelinePhase(row["phase"]),
                    tag=row.get("tag", ""),
                )
            )
        for row in data.get("reconfig_records", []):
            trace.reconfig_records.append(ReconfigRecord(**row))
        for row in data.get("fault_records", []):
            trace.fault_records.append(FaultRecord(**row))
        return trace

@dataclass
class TrainingTrace:
    """A multi-iteration trace: one :class:`IterationTrace` per iteration."""

    iterations: List[IterationTrace] = field(default_factory=list)

    def add(self, trace: IterationTrace) -> None:
        """Append one iteration trace."""
        self.iterations.append(trace)

    @property
    def num_iterations(self) -> int:
        """Number of iterations recorded."""
        return len(self.iterations)

    def mean_iteration_time(self) -> float:
        """Mean iteration makespan across all recorded iterations.

        Raises :class:`~repro.errors.SimulationError` when no iterations have
        been recorded, so callers never divide by zero silently.
        """
        if not self.iterations:
            raise SimulationError(
                "cannot compute the mean iteration time of an empty training "
                "trace (no iterations recorded)"
            )
        return sum(t.iteration_time for t in self.iterations) / len(self.iterations)

    def __iter__(self):
        return iter(self.iterations)
