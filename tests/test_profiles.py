"""TrafficProfiler and PhaseTracker, driven directly.

The profiler turns the profiling iteration's scale-out collectives into a
per-rail sequence of parallelism phases; the tracker walks that sequence in
later iterations to tell the shim when a phase is over and which axis comes
next.  These tests pin both without a simulator:

* phases are maximal runs of one axis on each rail, in start-time order;
* collectives that start at the same instant keep the order they were
  recorded in;
* the next-axis prediction wraps from the last phase to the first;
* a phase is complete once it has seen its ``num_collectives``.
"""

import pytest

from repro.core.profiles import PhaseTracker, TrafficProfiler
from repro.errors import ProfileError


def _profiler(records):
    profiler = TrafficProfiler()
    for start, axis, rails in records:
        profiler.record_completion(start, axis, rails)
    profiler.finalize()
    return profiler


def _phases(profiler, rail):
    return [(p.axis, p.num_collectives) for p in profiler.profile(rail).phases]


def test_phases_are_runs_of_the_same_axis_per_rail():
    profiler = _profiler(
        [
            (0.0, "dp", (0, 1)),
            (1.0, "dp", (0, 1)),
            (2.0, "pp", (0,)),
            (3.0, "pp", (0,)),
            (4.0, "pp", (0,)),
            (5.0, "dp", (0, 1)),
        ]
    )
    assert _phases(profiler, 0) == [("dp", 2), ("pp", 3), ("dp", 1)]
    # Rail 1 never saw the pp collectives: its dp runs merge into one phase.
    assert _phases(profiler, 1) == [("dp", 3)]


def test_phases_follow_start_time_not_record_order():
    # Completions are recorded as they finish; the profile orders by start.
    profiler = _profiler(
        [
            (2.0, "pp", (0,)),
            (0.0, "dp", (0,)),
            (1.0, "dp", (0,)),
        ]
    )
    assert _phases(profiler, 0) == [("dp", 2), ("pp", 1)]


def test_collectives_starting_together_keep_their_record_order():
    profiler = _profiler(
        [
            (1.0, "ep", (0,)),
            (1.0, "dp", (0,)),
            (0.0, "pp", (0,)),
        ]
    )
    assert _phases(profiler, 0) == [("pp", 1), ("ep", 1), ("dp", 1)]


def test_profile_queries_need_a_finalized_profile():
    profiler = TrafficProfiler()
    profiler.record_completion(0.0, "dp", (0,))
    with pytest.raises(ProfileError, match="still being learned"):
        profiler.profile(0)
    profiler.finalize()
    # Recording after finalize is ignored: the profile is frozen.
    profiler.record_completion(1.0, "pp", (0,))
    assert _phases(profiler, 0) == [("dp", 1)]
    with pytest.raises(ProfileError, match="rail 3"):
        profiler.profile(3)


def test_predicted_next_axis_wraps_to_the_first_phase():
    profiler = _profiler(
        [(0.0, "dp", (0,)), (1.0, "pp", (0,)), (2.0, "tp", (0,))]
    )
    tracker = PhaseTracker(profiler)
    assert tracker.predicted_next_axis(0) == "pp"
    tracker.observe(0, "pp")
    assert tracker.predicted_next_axis(0) == "tp"
    tracker.observe(0, "tp")
    # The last phase of one iteration is followed by the first of the next.
    assert tracker.predicted_next_axis(0) == "dp"
    tracker.reset()
    assert tracker.predicted_next_axis(0) == "pp"


def test_current_phase_complete_counts_num_collectives():
    profiler = _profiler(
        [
            (0.0, "dp", (0,)),
            (1.0, "dp", (0,)),
            (2.0, "dp", (0,)),
            (3.0, "pp", (0,)),
        ]
    )
    tracker = PhaseTracker(profiler)
    assert not tracker.current_phase_complete(0)
    tracker.observe(0, "dp")
    tracker.observe(0, "dp")
    assert not tracker.current_phase_complete(0)
    tracker.observe(0, "dp")
    assert tracker.current_phase_complete(0)
    # The pp phase starts with its first (and only) collective.
    tracker.observe(0, "pp")
    assert tracker.current_phase_complete(0)
    assert tracker.predicted_next_axis(0) == "dp"
