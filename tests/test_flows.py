"""FlowSimulator and max–min fair allocation tests.

Covers the edge cases the fluid engine has to get right: zero-size flows
(latency-only completion), simultaneous completions at one instant, staggered
arrivals re-triggering reallocation, and the zero-rate stall regression
(``run`` must raise instead of silently returning with active flows).
"""

import math
import random

import pytest

from repro.errors import SimulationError
from repro.simulator.flows import Flow, FlowSimulator, max_min_fair_rates
from repro.topology.base import Link, LinkKind


def make_link(bandwidth=100.0, latency=0.0, link_id=0, src="a", dst="b"):
    return Link(
        src=src,
        dst=dst,
        bandwidth=bandwidth,
        latency=latency,
        kind=LinkKind.ELECTRICAL,
        link_id=link_id,
    )


# --------------------------------------------------------------------------- #
# max–min fair allocation
# --------------------------------------------------------------------------- #


def test_single_flow_gets_the_full_link():
    link = make_link(bandwidth=100.0)
    flow = Flow(flow_id=0, path=(link,), size_bytes=1.0, start_time=0.0)
    assert max_min_fair_rates([flow]) == {0: 100.0}


def test_two_flows_share_a_bottleneck_equally():
    shared = make_link(bandwidth=100.0)
    flows = [
        Flow(flow_id=i, path=(shared,), size_bytes=1.0, start_time=0.0)
        for i in range(2)
    ]
    assert max_min_fair_rates(flows) == {0: 50.0, 1: 50.0}


def test_unconstrained_leftover_capacity_goes_to_the_other_flow():
    shared = make_link(bandwidth=100.0, link_id=0)
    narrow = make_link(bandwidth=10.0, link_id=1, src="b", dst="c")
    constrained = Flow(flow_id=0, path=(shared, narrow), size_bytes=1.0, start_time=0.0)
    free = Flow(flow_id=1, path=(shared,), size_bytes=1.0, start_time=0.0)
    rates = max_min_fair_rates([constrained, free])
    assert rates[0] == pytest.approx(10.0)
    assert rates[1] == pytest.approx(90.0)


def test_empty_path_flows_get_infinite_rate():
    flow = Flow(flow_id=0, path=(), size_bytes=1.0, start_time=0.0)
    assert math.isinf(max_min_fair_rates([flow])[0])


def test_zero_capacity_override_yields_zero_rate():
    link = make_link(bandwidth=100.0)
    flow = Flow(flow_id=0, path=(link,), size_bytes=1.0, start_time=0.0)
    rates = max_min_fair_rates([flow], capacities={link.key: 0.0})
    assert rates[0] == 0.0


def _reference_max_min(flows, capacities=None):
    """The pre-optimization algorithm, imported from the benchmark as oracle."""
    import importlib.util
    from pathlib import Path

    path = Path(__file__).resolve().parents[1] / "benchmarks" / "bench_max_min_fair.py"
    spec = importlib.util.spec_from_file_location("bench_max_min_fair", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.legacy_max_min_fair_rates(flows, capacities)


def test_incremental_allocation_matches_the_reference_on_random_networks():
    rng = random.Random(7)
    for _ in range(25):
        num_links = rng.randint(1, 12)
        links = [
            make_link(
                bandwidth=rng.choice([10.0, 40.0, 100.0, 400.0]),
                link_id=i,
                src=f"n{i}",
                dst=f"n{i + 1}",
            )
            for i in range(num_links)
        ]
        flows = [
            Flow(
                flow_id=i,
                path=tuple(rng.sample(links, rng.randint(1, num_links))),
                size_bytes=1.0,
                start_time=0.0,
            )
            for i in range(rng.randint(1, 20))
        ]
        fast = max_min_fair_rates(flows)
        slow = _reference_max_min(flows)
        assert fast.keys() == slow.keys()
        for flow_id in fast:
            assert fast[flow_id] == pytest.approx(slow[flow_id])


# --------------------------------------------------------------------------- #
# FlowSimulator edge cases
# --------------------------------------------------------------------------- #


def test_single_flow_completion_time():
    sim = FlowSimulator()
    link = make_link(bandwidth=100.0, latency=0.25)
    flow = sim.add_flow([link], size_bytes=1000.0, start_time=1.0)
    sim.run()
    # 1000 bytes at 100 B/s from t=1, plus 0.25s propagation.
    assert flow.finish_time == pytest.approx(11.25)


def test_infinite_rate_flow_with_nonzero_size_completes_instantly():
    # An empty path means "co-located endpoints": the flow gets infinite rate
    # and must complete at its start (plus latency, which is 0 here) instead
    # of respinning the completion check at the same instant forever.
    sim = FlowSimulator()
    flow = sim.add_flow([], size_bytes=100.0, start_time=1.0)
    sim.run()
    assert flow.done
    assert flow.finish_time == pytest.approx(1.0)
    assert sim.engine.events_processed < 10


def test_zero_size_flow_completes_after_latency_only():
    sim = FlowSimulator()
    link = make_link(bandwidth=100.0, latency=0.5)
    flow = sim.add_flow([link], size_bytes=0.0, start_time=2.0)
    sim.run()
    assert flow.finish_time == pytest.approx(2.5)


def test_simultaneous_completions_at_one_instant():
    sim = FlowSimulator()
    done = []
    for link_id in range(3):
        link = make_link(bandwidth=100.0, link_id=link_id)
        sim.add_flow(
            [link], size_bytes=500.0, start_time=0.0, on_complete=done.append
        )
    sim.run()
    assert len(done) == 3
    assert all(flow.finish_time == pytest.approx(5.0) for flow in done)
    assert not sim.active_flows


def test_staggered_arrival_retriggers_reallocation():
    sim = FlowSimulator()
    shared = make_link(bandwidth=100.0)
    first = sim.add_flow([shared], size_bytes=1000.0, start_time=0.0)
    second = sim.add_flow([shared], size_bytes=500.0, start_time=5.0)
    sim.run()
    # First runs alone at 100 B/s for 5s (500 bytes left), then both share
    # 50 B/s; they drain their remaining 500 bytes together at t=15.
    assert first.finish_time == pytest.approx(15.0)
    assert second.finish_time == pytest.approx(15.0)


def test_completion_frees_bandwidth_for_the_survivor():
    sim = FlowSimulator()
    shared = make_link(bandwidth=100.0)
    short = sim.add_flow([shared], size_bytes=100.0, start_time=0.0)
    long = sim.add_flow([shared], size_bytes=500.0, start_time=0.0)
    sim.run()
    # Shared phase: 50 B/s each; short drains at t=2, long has 400 bytes left
    # and finishes them alone at 100 B/s.
    assert short.finish_time == pytest.approx(2.0)
    assert long.finish_time == pytest.approx(6.0)


def test_sub_resolution_remainder_does_not_livelock():
    # Two flows share a 1 TB/s link; the longer one is left with 1e-5 bytes
    # when its peer completes at t=2.  Its residual drain time (1e-17 s) is
    # below the clock's floating-point resolution, so ``now + time_left ==
    # now``: the completion check must finish it instead of rescheduling the
    # same instant forever.
    sim = FlowSimulator()
    shared = make_link(bandwidth=1e12)
    short = sim.add_flow([shared], size_bytes=1e12, start_time=0.0)
    long = sim.add_flow([shared], size_bytes=1e12 + 1e-5, start_time=0.0)
    sim.run()
    assert short.done and long.done
    assert long.finish_time == pytest.approx(2.0)
    assert sim.engine.events_processed < 20


def test_zero_rate_stall_raises_instead_of_returning_silently():
    sim = FlowSimulator()
    link = make_link(bandwidth=100.0)
    sim.add_flow([link], size_bytes=1000.0, start_time=0.0)
    # The link goes dark after the flow was admitted (e.g. a failure study):
    # progressive filling now allocates rate 0 and the flow can never finish.
    link.bandwidth = 0.0
    with pytest.raises(SimulationError, match="stalled"):
        sim.run()


def test_stall_detection_spares_runs_bounded_by_until():
    sim = FlowSimulator()
    link = make_link(bandwidth=100.0)
    flow = sim.add_flow([link], size_bytes=1000.0, start_time=0.0)
    stop = sim.run(until=5.0)
    # Stopping early with work left is not a stall: a completion is scheduled.
    assert stop == 5.0
    assert not flow.done
    assert sim.engine.pending == 1


def test_negative_flow_size_is_rejected():
    sim = FlowSimulator()
    with pytest.raises(SimulationError):
        sim.add_flow([make_link()], size_bytes=-1.0)


def test_foreign_same_instant_events_do_not_defer_reallocation():
    # The simulator may share its engine with other event sources; an
    # unrelated event at a flow's arrival instant must not be mistaken for a
    # sibling arrival (which would skip the reallocation and stall the flow).
    from repro.simulator.engine import SimulationEngine

    engine = SimulationEngine()
    sim = FlowSimulator(engine=engine)
    flow = sim.add_flow([make_link(bandwidth=100.0)], size_bytes=1000.0, start_time=0.0)
    engine.schedule(0.0, lambda _e, _p: None)
    sim.run()
    assert flow.done
    assert flow.finish_time == pytest.approx(10.0)


# --------------------------------------------------------------------------- #
# Allocator counters and sealed batches
# --------------------------------------------------------------------------- #


def test_allocator_stats_count_invocations_and_epsilon_skips():
    from repro.simulator.flows import AllocatorStats

    stats = AllocatorStats()
    link = make_link(bandwidth=100.0)
    sim = FlowSimulator(stats=stats)
    # One short flow among ten long ones: its completion re-rates the ten
    # survivors sharing the link.
    sim.add_flow((link,), 2.0 * 100.0 / 11.0, start_time=0.0)
    longs = [sim.add_flow((link,), 1000.0, start_time=0.0) for _ in range(10)]
    sim.run()
    assert stats.allocator_invocations > 0
    as_dict = stats.as_dict()
    assert as_dict["allocator_invocations"] == stats.allocator_invocations
    assert as_dict["rerated_flows"] >= as_dict["rerated_components"]
    assert as_dict["epsilon_skips"] == 0
    assert all(flow.finish_time is not None for flow in longs)


def _uniform_batch(sim, link_count=2, flows_per_link=40):
    """A self-contained batch large enough to take the sealed fast path."""
    links = [
        make_link(bandwidth=100.0, link_id=i, src=f"s{i}", dst=f"d{i}")
        for i in range(link_count)
    ]
    flows = []
    for link in links:
        flows.extend(
            sim.add_flow((link,), 1000.0, start_time=0.0)
            for _ in range(flows_per_link)
        )
    return links, flows


def test_sealed_batch_completes_in_bulk_and_replays_identically():
    # Two identical injections of the same batch shape: the second run
    # replays the memoized allocation (phantom markers) yet must finish at
    # exactly the same per-flow times as the first.
    sim = FlowSimulator()
    _links, first = _uniform_batch(sim)
    sim.run()
    first_times = sorted(flow.finish_time for flow in first)
    assert sim._sealed_outstanding == 0
    assert not sim._phantoms
    assert not sim._link_users

    again = FlowSimulator()
    _links, warmup = _uniform_batch(again)
    again.run()
    offset = again.engine.now
    _links, replayed = _uniform_batch_at(again, offset)
    again.run()
    assert sorted(
        flow.finish_time - offset for flow in replayed
    ) == pytest.approx(first_times)
    assert not again._phantoms  # replay retired its markers


def _uniform_batch_at(sim, start_time, link_count=2, flows_per_link=40):
    links = [
        make_link(bandwidth=100.0, link_id=i, src=f"s{i}", dst=f"d{i}")
        for i in range(link_count)
    ]
    flows = []
    for link in links:
        flows.extend(
            sim.add_flow((link,), 1000.0, start_time=start_time)
            for _ in range(flows_per_link)
        )
    return links, flows


def test_disturbed_sealed_batch_falls_back_to_exact_processing():
    # A straggler joining one of the sealed batch's links mid-flight forces
    # the seal to fall back: everyone still finishes at the exact times.
    sim = FlowSimulator()
    links, batch = _uniform_batch(sim, link_count=1, flows_per_link=40)
    straggler = sim.add_flow((links[0],), 100.0, start_time=100.0)
    sim.run()
    assert straggler.finish_time is not None
    assert all(flow.finish_time is not None for flow in batch)
    # 40 flows at 2.5 B/s each for 100 s leaves 750 B; the straggler makes
    # 41 sharers at 100/41 B/s.
    reference = FlowSimulator()
    ref_links, ref_batch = _uniform_batch(reference, 1, 40)
    ref_straggler = reference.add_flow((ref_links[0],), 100.0, start_time=100.0)
    reference.run()
    assert straggler.finish_time == ref_straggler.finish_time
    assert sorted(f.finish_time for f in batch) == sorted(
        f.finish_time for f in ref_batch
    )
