"""Traffic profiling: learning the per-iteration communication pattern.

During the first training iteration the Opus shim only observes: it records
the start time, parallelism axis and rails of every intercepted scale-out
collective and assembles, per rail, the ordered sequence of *parallelism
phases* — maximal runs of consecutive collectives belonging to the same
parallelism axis.  Because ML training repeats the same execution graph every
iteration, this profile predicts the traffic of all later iterations, which
is what makes speculative provisioning safe (paper §4.1).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import itemgetter
from typing import Dict, List, Optional, Tuple

from ..errors import ProfileError


@dataclass
class PhaseRecord:
    """One parallelism phase on one rail: a run of same-axis collectives."""

    axis: str
    num_collectives: int = 0


@dataclass
class RailProfile:
    """The learned phase sequence of one rail over one iteration."""

    rail: int
    phases: List[PhaseRecord] = field(default_factory=list)


class TrafficProfiler:
    """Learns the per-rail phase sequence from the profiling iteration."""

    def __init__(self) -> None:
        #: ``(start, axis, rails)`` of every recorded scale-out collective.
        self._completions: List[Tuple[float, str, Tuple[int, ...]]] = []
        self._profiles: Dict[int, RailProfile] = {}
        self._frozen = False

    # ------------------------------------------------------------------ #
    # Recording (profiling iteration)
    # ------------------------------------------------------------------ #

    @property
    def frozen(self) -> bool:
        """Whether the profile has been finalized."""
        return self._frozen

    def record_completion(self, start: float, axis: str, rails: Tuple[int, ...]) -> None:
        """Record one scale-out collective that started at ``start`` on ``rails``."""
        if self._frozen:
            return
        self._completions.append((start, axis, rails))

    def finalize(self) -> None:
        """Freeze the profile and build the per-rail phase sequences."""
        if self._frozen:
            return
        self._build_profiles()
        self._frozen = True

    def _build_profiles(self) -> None:
        # A stable sort on the start time: collectives starting together keep
        # the order they were recorded in.
        for _, axis, rails in sorted(self._completions, key=itemgetter(0)):
            for rail in rails:
                profile = self._profiles.get(rail)
                if profile is None:
                    profile = self._profiles[rail] = RailProfile(rail=rail)
                phases = profile.phases
                if phases and phases[-1].axis == axis:
                    phases[-1].num_collectives += 1
                else:
                    phases.append(PhaseRecord(axis=axis, num_collectives=1))

    # ------------------------------------------------------------------ #
    # Queries (later iterations)
    # ------------------------------------------------------------------ #

    def profile(self, rail: int) -> RailProfile:
        """Return the learned profile of one rail."""
        self._require_frozen()
        if rail not in self._profiles:
            raise ProfileError(f"no traffic profile learned for rail {rail}")
        return self._profiles[rail]

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
