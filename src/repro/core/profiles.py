"""Traffic profiling: learning the per-iteration communication pattern.

During the first training iteration the Opus shim only observes: it records
the executed window of every intercepted collective (as a
:class:`~repro.core.intents.CommIntent`) and assembles, per rail, the ordered
sequence of *parallelism phases* — maximal runs of consecutive scale-out
collectives belonging to the same parallelism axis.  Because ML training repeats the same execution graph every iteration,
this profile predicts the traffic of all later iterations, which is what makes
speculative provisioning safe (paper §4.1).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..errors import ProfileError
from ..parallelism.mesh import DeviceMesh
from .intents import CommIntent


@dataclass
class PhaseRecord:
    """One parallelism phase on one rail: a run of same-axis collectives."""

    axis: str
    rail: int
    first_start: float
    last_end: float
    num_collectives: int = 0
    total_bytes: float = 0.0

    @property
    def duration(self) -> float:
        """Span of the phase in seconds."""
        return self.last_end - self.first_start


@dataclass
class RailProfile:
    """The learned phase sequence of one rail over one iteration."""

    rail: int
    phases: List[PhaseRecord] = field(default_factory=list)

    @property
    def axis_sequence(self) -> Tuple[str, ...]:
        """The axis of each phase, in order."""
        return tuple(phase.axis for phase in self.phases)


class TrafficProfiler:
    """Learns the per-rail phase sequence from the profiling iteration."""

    def __init__(self, mesh: DeviceMesh) -> None:
        self.mesh = mesh
        self._completions: List[Tuple[CommIntent, float, float]] = []
        self._profiles: Dict[int, RailProfile] = {}
        self._frozen = False

    # ------------------------------------------------------------------ #
    # Recording (profiling iteration)
    # ------------------------------------------------------------------ #

    @property
    def frozen(self) -> bool:
        """Whether the profile has been finalized."""
        return self._frozen

    def record_completion(self, intent: CommIntent, start: float, end: float) -> None:
        """Record the observed execution window of one collective."""
        if self._frozen:
            return
        self._completions.append((intent, start, end))

    def finalize(self) -> None:
        """Freeze the profile and build the per-rail phase sequences."""
        if self._frozen:
            return
        self._build_profiles()
        self._frozen = True

    def _build_profiles(self) -> None:
        per_rail: Dict[int, List[Tuple[CommIntent, float, float]]] = {}
        for intent, start, end in self._completions:
            if not intent.is_scaleout:
                continue
            for rail in intent.rails:
                per_rail.setdefault(rail, []).append((intent, start, end))
        for rail, records in per_rail.items():
            records.sort(key=lambda item: (item[1], item[0].intent_id))
            profile = RailProfile(rail=rail)
            for intent, start, end in records:
                phases = profile.phases
                if phases and phases[-1].axis == intent.parallelism:
                    current = phases[-1]
                    current.last_end = max(current.last_end, end)
                    current.num_collectives += 1
                    current.total_bytes += intent.size_bytes
                else:
                    phases.append(
                        PhaseRecord(
                            axis=intent.parallelism,
                            rail=rail,
                            first_start=start,
                            last_end=end,
                            num_collectives=1,
                            total_bytes=intent.size_bytes,
                        )
                    )
            self._profiles[rail] = profile

    # ------------------------------------------------------------------ #
    # Queries (later iterations)
    # ------------------------------------------------------------------ #

    def rails(self) -> Tuple[int, ...]:
        """Rails for which a profile was learned."""
        self._require_frozen()
        return tuple(sorted(self._profiles))

    def profile(self, rail: int) -> RailProfile:
        """Return the learned profile of one rail."""
        self._require_frozen()
        if rail not in self._profiles:
            raise ProfileError(f"no traffic profile learned for rail {rail}")
        return self._profiles[rail]

    def phase_sequence(self, rail: int) -> Tuple[str, ...]:
        """Return the phase (axis) sequence of one rail."""
        return self.profile(rail).axis_sequence

    def _require_frozen(self) -> None:
        if not self._frozen:
            raise ProfileError(
                "the traffic profile is still being learned; call finalize() "
                "at the end of the profiling iteration first"
            )


class PhaseTracker:
    """Tracks where in the learned phase sequence a rail currently is.

    The shim uses one tracker per iteration (after profiling) to answer two
    questions provisioning needs: *which parallelism phase comes next on this
    rail?* and *has the current phase finished all of its collectives?* — the
    latter is what makes it safe to speculatively reconfigure, because the
    upcoming phase's circuits may conflict with (and tear down) the current
    phase's.  The tracker is resilient to small ordering differences: if the
    observed axis does not match the expected phase it resynchronizes by
    scanning forward.
    """

    def __init__(self, profiler: TrafficProfiler) -> None:
        self.profiler = profiler
        self._positions: Dict[int, int] = {}
        self._collectives_seen: Dict[int, int] = {}

    def reset(self) -> None:
        """Reset all rails to the start of their phase sequence (new iteration)."""
        self._positions.clear()
        self._collectives_seen.clear()

    def observe(self, rail: int, axis: str) -> None:
        """Record that a collective of ``axis`` completed on ``rail``."""
        phases = self.profiler.profile(rail).phases
        if not phases:
            return
        position = min(self._positions.get(rail, 0), len(phases) - 1)
        seen = self._collectives_seen.get(rail, 0)
        if phases[position].axis == axis:
            seen += 1
        else:
            # Transition (or resync): scan forward for the next phase of this axis.
            advanced = None
            for candidate in range(position + 1, len(phases)):
                if phases[candidate].axis == axis:
                    advanced = candidate
                    break
            if advanced is not None:
                position = advanced
                seen = 1
            # Unknown axis (never profiled on this rail): leave the pointer.
        self._positions[rail] = position
        self._collectives_seen[rail] = seen

    def predicted_next_axis(self, rail: int) -> Optional[str]:
        """Axis of the next phase on ``rail``.

        At the end of the learned sequence the prediction wraps around to the
        first phase of the next iteration — training is cyclic, so the last
        phase of iteration *k* is followed by the first phase of iteration
        *k+1* and its circuits can be provisioned across the boundary.
        """
        phases = self.profiler.profile(rail).phases
        position = self._positions.get(rail, 0)
        if position + 1 < len(phases):
            return phases[position + 1].axis
        if phases:
            return phases[0].axis
        return None

    def current_phase_complete(self, rail: int) -> bool:
        """Whether every collective of the current phase has been observed."""
        phases = self.profiler.profile(rail).phases
        if not phases:
            return True
        position = min(self._positions.get(rail, 0), len(phases) - 1)
        seen = self._collectives_seen.get(rail, 0)
        return seen >= phases[position].num_collectives
