"""Simulator benchmark: host time end to end and per layer.

Run from the root of a checkout::

    python3 perfbench/run.py --workload fattree_moe_1k --seed 0 --seconds 20 --trace 0

One run builds the workload's scenarios from ``--seed``, runs one warm-up
pass, then repeats passes while another fits in ``--seconds`` and prints, as
its last line, one JSON object ``{"correct", "attempted", "failed",
"metrics"}``.

* ``--trace 0`` reports the end-to-end metrics (host time of the fastest
  timed pass): ``wall_s``, ``setup_s``, ``first_iter_s``, ``steady_iter_s``
  and ``peak_rss_mb``.
* ``--trace 1`` alternates untraced passes with passes traced by
  :mod:`spans` and reports the per-layer metrics of the traced pass whose
  wall time is the median, plus the tracing overhead.

Every pass counts as attempted.  A pass fails on an exception, on simulated
outputs whose digest differs from the one pinned in ``digests.json`` for
its seed (or, for an unpinned seed, from that seed's first pass), or on a
failed paper-claim check; ``fail_rate`` is ``failed / attempted``.  The
warm-up pass runs ``--seed`` if it is pinned and the default seed otherwise,
so every run checks outputs against a pin.  The host times of a pass that
ran to the end are reported even when its outputs failed a check; a run
whose every pass raised exits with status 1.
``--pin`` records the warm-up digest for the seed in ``digests.json``.

The simulator is imported from ``src/`` next to this directory; without it
the run exits with status 2 before measuring anything.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path
from typing import Dict, List, Optional, Tuple

ROOT = Path(__file__).resolve().parent.parent
SOURCE = ROOT / "src"
DIGESTS = Path(__file__).resolve().with_name("digests.json")

#: The default seed; ``digests.json`` pins it for every workload.
DEFAULT_SEED = 0
#: Timed passes a run makes even when ``--seconds`` runs out first.
MIN_PASSES = 3
#: Traced (and interleaved untraced) passes a ``--trace 1`` run makes at least.
MIN_TRACED_PASSES = 2

#: Per-layer counts the layer table predicts to be zero on a workload; a
#: traced run reports whether each prediction holds.
PREDICTED_ZERO = {
    "photonic_llama_128": ("solver.calls",),
    "fattree_moe_1k": ("opus.ensure_calls",),
    "fattree_faulted_128": ("opus.ensure_calls",),
    "fig8_analytic": ("flows.events",),
}


def load_simulator() -> bool:
    """Put the checkout's ``src/`` first on the path and import from it."""
    package = SOURCE / "repro" / "experiments"
    if not (package / "__init__.py").is_file():
        print(f"perfbench: no simulator sources at {package}", file=sys.stderr)
        return False
    sys.path.insert(0, str(SOURCE))
    import repro.experiments

    imported = Path(repro.experiments.__file__).resolve().parent
    if imported != package.resolve():
        print(f"perfbench: imported the simulator from {imported}", file=sys.stderr)
        return False
    return True


class Run:
    """Attempted and failed passes of one benchmark run."""

    def __init__(self, workload: str, seed: int, pinned: Dict[str, str]) -> None:
        self.workload = workload
        self.seed = seed
        #: Seed -> expected digest: the pins, then each unpinned seed's
        #: first pass.
        self.references = {int(key): digest for key, digest in pinned.items()}
        self.attempted = 0
        self.failed = 0

    def run_pass(self, tracer=None, seed: Optional[int] = None):
        """One checked pass; its record, or ``None`` if it raised.

        A pass whose outputs fail a check still returns its record, so its
        host times are reported next to ``correct: false``.
        """
        import scenarios

        seed = self.seed if seed is None else seed
        self.attempted += 1
        try:
            record = scenarios.run_pass(self.workload, seed, tracer=tracer)
        except Exception:
            traceback.print_exc()
            self.failed += 1
            return None
        digest = scenarios.result_digest(record.results)
        expected = self.references.setdefault(seed, digest)
        problems = list(record.claim_failures)
        if digest != expected:
            problems.append(f"seed {seed}: digest {digest} != expected {expected}")
        if tracer is not None:
            accounted = sum(tracer.self_s.values()) + tracer.other_s
            if abs(accounted - record.wall_s) > 1e-6 * max(record.wall_s, 1.0):
                problems.append(
                    f"span self times + other ({accounted!r}) != wall "
                    f"({record.wall_s!r})"
                )
        for problem in problems:
            print(f"perfbench: failed pass: {problem}", file=sys.stderr)
        self.failed += bool(problems)
        return record


def _metric(value: float, unit: str) -> Dict[str, object]:
    return {"value": value, "unit": unit}


def end_to_end(records) -> Tuple[Dict[str, Dict[str, object]], int]:
    """The fastest pass's host times, and the steady-iteration sample count.

    Each time is the minimum over the run's timed passes of that pass's
    value; for ``steady_iter_s`` a pass's value is its median steady
    iteration.  Other tenants on the host only ever add time, and their load
    comes and goes in stretches of seconds, so the fastest pass is the
    figure that repeats from run to run; a median moves with the share of
    the run the host spent loaded.
    """
    per_pass = {
        "wall_s": [record.wall_s for record in records],
        "setup_s": [record.setup_s for record in records],
        "first_iter_s": [record.first_iter_s for record in records],
        "steady_iter_s": [statistics.median(r.steady_iter_s) for r in records],
    }
    # Every pass's values, so a reader can tell a noisy run from a slow one.
    for name, values in per_pass.items():
        print(f"{name} per pass: {[round(value, 5) for value in values]}")
    metrics = {name: _metric(min(values), "s") for name, values in per_pass.items()}
    metrics["peak_rss_mb"] = _metric(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"
    )
    return metrics, sum(len(record.steady_iter_s) for record in records)


def per_layer(tracer, record, untraced_wall: float) -> Dict[str, Dict[str, object]]:
    """Per-layer metrics of one traced pass."""
    self_s, calls, counts = tracer.self_s, tracer.calls, tracer.counts
    lookups = calls["route.lookup"]
    misses = tracer.nested[("route.lookup", "route.search")]
    reconfigs = sum(sum(result.reconfigurations) for result in record.results)
    ensures = calls["opus.ensure"]

    def flow_stat(key: str) -> float:
        return sum(result.metrics.get(key, 0.0) for result in record.results)

    values = [
        ("parallelism.dag_s", self_s["parallelism.dag"], "s"),
        ("parallelism.groups_s", self_s["parallelism.groups"], "s"),
        ("parallelism.ops", counts["parallelism.ops"], "count"),
        ("backends.create_network_s", self_s["backends.create_network"], "s"),
        ("executor.self_s", self_s["executor"], "s"),
        ("network.hooks_s", self_s["network.hooks"], "s"),
        ("collectives.expand_s", self_s["collectives.expand"], "s"),
        ("collectives.expand_calls", calls["collectives.expand"], "count"),
        ("collectives.expand_unique", len(tracer.expansions), "count"),
        ("route.search_s", self_s["route.search"], "s"),
        ("route.searches", calls["route.search"], "count"),
        ("route.lookup_s", self_s["route.lookup"], "s"),
        ("route.lookups", lookups, "count"),
        ("route.hit_ratio", (lookups - misses) / lookups if lookups else 0.0, "ratio"),
        ("flow_network.begin_s", self_s["flow_network.begin"], "s"),
        ("flow_network.begin_calls", calls["flow_network.begin"], "count"),
        ("flow_network.step_items_s", self_s["flow_network.step_items"], "s"),
        ("flows.event_s", self_s["flows.event"], "s"),
        ("flows.events", calls["flows.event"], "count"),
        ("flows.add_s", self_s["flows.add"], "s"),
        ("flows.added", counts["flows.added"], "count"),
        ("flows.allocator_invocations", flow_stat("allocator_invocations"), "count"),
        ("flows.rerated_flows", flow_stat("rerated_flows"), "count"),
        ("solver.s", self_s["solver"], "s"),
        ("solver.calls", calls["solver"], "count"),
        ("solver.flows", counts["solver.flows"], "count"),
        ("opus.ensure_s", self_s["opus.ensure"], "s"),
        ("opus.ensure_calls", ensures, "count"),
        ("opus.notify_s", self_s["opus.notify"], "s"),
        ("opus.shim_s", self_s["opus.shim"], "s"),
        ("opus.reconfigs", reconfigs, "count"),
        ("opus.reconfigs_per_ensure", reconfigs / ensures if ensures else 0.0, "ratio"),
        ("analytic.timing_s", self_s["analytic.timing"], "s"),
        ("analytic.timing_calls", calls["analytic.timing"], "count"),
        ("faults.apply_s", self_s["faults.apply"], "s"),
        ("faults.apply_calls", calls["faults.apply"], "count"),
        ("trace.other_s", tracer.other_s, "s"),
        ("trace.wall_s", record.wall_s, "s"),
        ("trace.overhead_ratio", record.wall_s / untraced_wall, "ratio"),
    ]
    return {name: _metric(value, unit) for name, value, unit in values}


def _fits(deadline: float, started: float) -> bool:
    """Whether one more round as long as the one since ``started`` ends in time."""
    now = time.perf_counter()
    return now + (now - started) <= deadline


def measure(run: Run, seconds: float) -> Optional[Dict[str, Dict[str, object]]]:
    """Timed untraced passes for ``seconds``; end-to-end metrics."""
    records = []
    deadline = time.perf_counter() + seconds
    started = deadline
    while (
        len(records) < MIN_PASSES and run.attempted < 3 * MIN_PASSES
    ) or _fits(deadline, started):
        started = time.perf_counter()
        record = run.run_pass()
        if record is not None:
            records.append(record)
    if not records:
        return None
    metrics, samples = end_to_end(records)
    print(
        f"{run.workload} seed {run.seed}: {len(records)} timed passes, "
        f"{samples} steady-iteration samples"
    )
    return metrics


def measure_traced(run: Run, seconds: float) -> Optional[Dict[str, Dict[str, object]]]:
    """Untraced and traced passes in turn; per-layer metrics."""
    from spans import Tracer

    untraced: List[float] = []
    traced: List[tuple] = []
    deadline = time.perf_counter() + seconds
    started = deadline
    while (
        min(len(untraced), len(traced)) < MIN_TRACED_PASSES
        and run.attempted < 3 * MIN_TRACED_PASSES
    ) or _fits(deadline, started):
        started = time.perf_counter()
        record = run.run_pass()
        if record is not None:
            untraced.append(record.wall_s)
        tracer = Tracer()
        tracer.install()
        try:
            record = run.run_pass(tracer=tracer)
        finally:
            tracer.uninstall()
        if record is not None:
            traced.append((record.wall_s, tracer, record))
    if not (untraced and traced):
        return None
    traced.sort(key=lambda entry: entry[0])
    _, tracer, record = traced[(len(traced) - 1) // 2]
    metrics = per_layer(tracer, record, statistics.median(untraced))
    for name in PREDICTED_ZERO.get(run.workload, ()):
        value = metrics[name]["value"]
        verdict = "holds" if value == 0 else "does not hold"
        print(f"{run.workload}: predicted {name} = 0 {verdict} (measured {value})")
    print(
        f"{run.workload} seed {run.seed}: {len(traced)} traced passes, "
        f"{len(untraced)} untraced"
    )
    return metrics


def pin(workload: str, seed: int, digest: str) -> None:
    table = json.loads(DIGESTS.read_text()) if DIGESTS.is_file() else {}
    table.setdefault(workload, {})[str(seed)] = digest
    DIGESTS.write_text(json.dumps(table, indent=2, sort_keys=True) + "\n")


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--pin", action="store_true")
    args = parser.parse_args(argv)
    if not load_simulator():
        return 2
    import scenarios

    if args.workload not in scenarios.WORKLOADS:
        parser.error(
            f"unknown workload {args.workload!r}; "
            f"choose from {sorted(scenarios.WORKLOADS)}"
        )
    table = json.loads(DIGESTS.read_text()) if DIGESTS.is_file() else {}
    pins = {} if args.pin else table.get(args.workload, {})
    run = Run(args.workload, args.seed, pins)
    # Warm-up: imports and first-use allocations; checked but not timed.  It
    # runs a pinned seed, so every run compares the program's outputs with a
    # pinned digest even when --seed has none.
    pinned = args.pin or str(args.seed) in pins
    run.run_pass(seed=args.seed if pinned else DEFAULT_SEED)
    if args.pin:
        if run.failed:
            return 1
        pin(args.workload, args.seed, run.references[args.seed])
        print(f"pinned {args.workload} seed {args.seed}: {run.references[args.seed]}")
        return 0
    if args.trace:
        metrics = measure_traced(run, args.seconds)
    else:
        metrics = measure(run, args.seconds)
    if metrics is None:
        print(f"perfbench: every pass of {args.workload} raised", file=sys.stderr)
        return 1
    check = "pinned" if pinned else f"self-consistent (seed {DEFAULT_SEED} pinned)"
    print(
        f"{args.workload} seed {args.seed}: digest {check}, fail_rate "
        f"{run.failed / run.attempted!r} ({run.failed}/{run.attempted})"
    )
    print(
        json.dumps(
            {
                "correct": run.failed == 0,
                "attempted": run.attempted,
                "failed": run.failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
