"""CI perf-regression gate over the benchmarks' ``BENCH`` JSON lines.

The benchmarks emit one ``BENCH {...}`` JSON line per measurement.  This
script distills them into **machine-normalized ratios** — numbers that stay
comparable between a laptop and a cold CI runner because both sides of each
division ran on the same machine seconds apart:

* ``flow_mode:<fabric>:<gpus>`` — flow-mode wall time divided by analytic
  wall time for the same scenario (how expensive the flow-level machinery is
  relative to the alpha-beta pricing);
* ``max_min_fair:<flows>`` — shipped allocator time divided by the inline
  legacy allocator time (how fast the vectorized water-filling is relative
  to the original algorithm);
* ``fork_sweep:<backend>:<gpus>`` — wall time of a severity sweep run via
  shared-prefix forking divided by the same sweep run straight-through
  (how much of the common prefix the fork path actually amortizes; well
  below 1 when healthy).

Each ratio is compared against ``benchmarks/baseline.json``: the gate fails
when ``current > baseline * tolerance`` (default tolerance 1.3, i.e. a 30%
relative slowdown of the measured machinery).  A deliberate 2x slowdown of
the flow simulator roughly doubles every ``flow_mode`` ratio and trips the
gate on any runner.  The baseline's optional ``tolerance_overrides`` and
``slack_overrides`` maps loosen (or tighten) individual identities — keys
match exactly or, with a trailing ``*``, as a prefix — and both are
preserved verbatim across ``--update``.  Slack overrides exist for
identities whose two sides run the *same* code (e.g. the
``routing_overhead`` default-lane gate): the global absolute slack would
swamp a tight 1.05x tolerance there, so those identities pin slack to 0,
and ``--update`` pins their baseline reference at the identity 1.0 (the
true value by construction) instead of recording one run's noise.

Simulation *results* are also pinned: the flow-mode ``steady_iteration_s``
values are bitwise-deterministic for a given code version, so they are
compared exactly (within 1e-9 relative) to catch accidental semantic drift
riding along with a perf change.

Usage::

    PYTHONPATH=src python benchmarks/bench_flow_mode.py --quick | tee bench.txt
    PYTHONPATH=src python benchmarks/bench_max_min_fair.py 500 1000 | tee -a bench.txt
    python benchmarks/check_regression.py bench.txt

    # After an intentional perf or semantics change:
    python benchmarks/check_regression.py bench.txt --update

Only identities present in **both** the baseline and the current output are
compared (CI's ``--quick`` run covers a subset of the full baseline); the
gate fails if nothing matched at all, which catches a silently broken
benchmark step.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path
from typing import Dict, Iterable, List, Tuple

DEFAULT_BASELINE = Path(__file__).resolve().parent / "baseline.json"
DEFAULT_TOLERANCE = 1.3
#: Absolute slack added on top of the relative tolerance.  The quick-mode
#: flow/analytic ratios sit near 1.3 over millisecond wall times, where
#: constant per-run overhead and simulation work scale differently across
#: machines; a genuine 2x hot-path slowdown multiplies every flow-mode ratio
#: several-fold, so the slack costs no sensitivity.
DEFAULT_ABSOLUTE_SLACK = 0.75
#: Relative tolerance for simulated-time equality (results are deterministic;
#: this only absorbs printing round-trips).
STEADY_REL_TOL = 1e-9
#: Ratio identities whose two sides run the *same* code (e.g. the
#: routing-policy default lane vs an explicit ``routing_policy="single"``).
#: Their true ratio is 1.0 by construction, so ``--update`` pins the
#: reference there instead of recording one run's noise — the measurement
#: only has to stay under the (tight, zero-slack) tolerance.
IDENTITY_RATIO_PREFIXES = ("routing_overhead:",)


def parse_bench_lines(lines: Iterable[str]) -> List[dict]:
    """Extract the JSON payload of every ``BENCH {...}`` line."""
    records = []
    for line in lines:
        line = line.strip()
        if not line.startswith("BENCH "):
            continue
        try:
            records.append(json.loads(line[len("BENCH "):]))
        except json.JSONDecodeError as exc:
            raise SystemExit(f"malformed BENCH line: {line!r} ({exc})")
    return records


def distill(records: List[dict]) -> Tuple[Dict[str, float], Dict[str, float]]:
    """Reduce BENCH records to (machine-normalized ratios, steady times)."""
    ratios: Dict[str, float] = {}
    steady: Dict[str, float] = {}
    flow_walls: Dict[Tuple[str, int], Dict[str, float]] = {}
    for record in records:
        bench = record.get("bench")
        if bench == "max_min_fair":
            ratios[f"max_min_fair:{record['flows']}"] = (
                record["shipped_s"] / record["legacy_s"]
            )
        elif bench == "fork_sweep":
            ratios[f"fork_sweep:{record['backend']}:{record['gpus']}"] = record[
                "ratio"
            ]
        elif bench == "routing_overhead":
            ratios[
                f"routing_overhead:{record['fabric']}:{record['gpus']}"
            ] = record["ratio"]
        elif bench == "flow_mode":
            identity = (record["fabric"], record["gpus"])
            flow_walls.setdefault(identity, {})[record["network_mode"]] = record[
                "wall_time_s"
            ]
            steady[
                f"flow_mode:{record['fabric']}:{record['gpus']}:"
                f"{record['network_mode']}"
            ] = record["steady_iteration_s"]
    for (fabric, gpus), walls in flow_walls.items():
        if "flow" in walls and "analytic" in walls:
            ratios[f"flow_mode:{fabric}:{gpus}"] = walls["flow"] / max(
                walls["analytic"], 1e-12
            )
    return ratios, steady


def tolerance_for(key: str, default: float, overrides: Dict[str, float]) -> float:
    """Resolve ``key``'s value against per-identity baseline overrides.

    An override key either matches exactly or, with a trailing ``*``, as a
    prefix (``"flow_mode:fattree-faulted*"`` covers every GPU count of that
    variant).  Exact matches win over prefixes; among prefixes the longest
    wins, so narrower overrides beat broader ones.  Shared by the tolerance
    and the absolute-slack override maps — the resolution rules are
    identical.
    """
    exact = overrides.get(key)
    if exact is not None:
        return exact
    best: Tuple[int, float] = (-1, default)
    for pattern, value in overrides.items():
        if pattern.endswith("*") and key.startswith(pattern[:-1]):
            if len(pattern) > best[0]:
                best = (len(pattern), value)
    return best[1]


def check(
    ratios: Dict[str, float],
    steady: Dict[str, float],
    baseline: dict,
    tolerance: float,
) -> List[str]:
    """Return a list of human-readable failures (empty = gate passes)."""
    failures: List[str] = []
    matched = 0
    slack = baseline.get("absolute_slack", DEFAULT_ABSOLUTE_SLACK)
    overrides = baseline.get("tolerance_overrides", {})
    slack_overrides = baseline.get("slack_overrides", {})
    for key, reference in sorted(baseline.get("ratios", {}).items()):
        current = ratios.get(key)
        if current is None:
            continue  # baseline covers more configs than this run measured
        matched += 1
        limit_tolerance = tolerance_for(key, tolerance, overrides)
        limit_slack = tolerance_for(key, slack, slack_overrides)
        # Slack is capped at the reference itself so small ratios (e.g. the
        # sub-1 allocator ratios) keep a meaningful gate: the limit never
        # exceeds (tolerance + 1) x baseline.
        limit = reference * limit_tolerance + min(limit_slack, reference)
        if current > limit:
            failures.append(
                f"perf regression: {key} ratio {current:.3f} exceeds "
                f"baseline {reference:.3f} x tolerance {limit_tolerance:g} "
                f"(limit {limit:.3f})"
            )
    for key, reference in sorted(baseline.get("steady", {}).items()):
        current = steady.get(key)
        if current is None:
            continue
        matched += 1
        if not math.isclose(current, reference, rel_tol=STEADY_REL_TOL):
            failures.append(
                f"semantic drift: {key} simulated {current!r}, "
                f"baseline {reference!r} (simulation results must only "
                "change together with a baseline refresh)"
            )
    if matched == 0:
        failures.append(
            "no benchmark measurement matched the baseline; the benchmark "
            "step is broken or the baseline needs regenerating (--update)"
        )
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "bench_output",
        nargs="+",
        help="file(s) containing BENCH lines, or '-' for stdin",
    )
    parser.add_argument(
        "--baseline", type=Path, default=DEFAULT_BASELINE, help="baseline JSON path"
    )
    parser.add_argument(
        "--tolerance",
        type=float,
        default=None,
        help="override the baseline's tolerance factor",
    )
    parser.add_argument(
        "--update",
        action="store_true",
        help="rewrite the baseline from the current BENCH output and exit",
    )
    args = parser.parse_args(argv)

    lines: List[str] = []
    for source in args.bench_output:
        if source == "-":
            lines.extend(sys.stdin.readlines())
        else:
            lines.extend(Path(source).read_text().splitlines())
    ratios, steady = distill(parse_bench_lines(lines))
    if not ratios and not steady:
        print("check_regression: no BENCH lines found", file=sys.stderr)
        return 2

    if args.update:
        baseline = {
            "tolerance": args.tolerance or DEFAULT_TOLERANCE,
            "absolute_slack": DEFAULT_ABSOLUTE_SLACK,
            "ratios": {
                key: (
                    1.0
                    if key.startswith(IDENTITY_RATIO_PREFIXES)
                    else round(value, 6)
                )
                for key, value in sorted(ratios.items())
            },
            "steady": {
                key: value for key, value in sorted(steady.items())
            },
        }
        # Hand-maintained per-identity tolerances and slacks (see
        # ``tolerance_for``) survive a baseline refresh — only the
        # measurements regenerate.
        if args.baseline.exists():
            previous = json.loads(args.baseline.read_text())
            for overrides_key in ("tolerance_overrides", "slack_overrides"):
                overrides = previous.get(overrides_key)
                if overrides:
                    baseline[overrides_key] = overrides
        args.baseline.write_text(json.dumps(baseline, indent=2) + "\n")
        print(f"baseline updated: {args.baseline} ({len(ratios)} ratios)")
        return 0

    if not args.baseline.exists():
        print(
            f"check_regression: baseline {args.baseline} missing; run with "
            "--update to create it",
            file=sys.stderr,
        )
        return 2
    baseline = json.loads(args.baseline.read_text())
    tolerance = args.tolerance or baseline.get("tolerance", DEFAULT_TOLERANCE)
    failures = check(ratios, steady, baseline, tolerance)
    for failure in failures:
        print(f"check_regression: {failure}", file=sys.stderr)
    if not failures:
        compared = [key for key in baseline.get("ratios", {}) if key in ratios]
        print(
            f"check_regression: OK — {len(compared)} ratio(s) within "
            f"{tolerance:g}x of baseline"
        )
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
