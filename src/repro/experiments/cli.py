"""``repro-sim``: run workloads on any registered fabric backend.

Subcommands
-----------

* ``repro-sim backends`` — list the registered fabric backends and their knobs.
* ``repro-sim run`` — simulate one scenario and emit its metrics::

      repro-sim run --backend photonic --workload tiny --cluster perlmutter:2 \\
          --knob reconfiguration_delay=0.015 --iterations 3 --format json

  ``--network-mode flow`` switches a backend from analytic alpha–beta
  pricing to flow-level simulation with max–min fair link sharing; on the
  circuit-switched backends (photonic, ocs) it additionally simulates
  reconfigurations as time-domain events.  It also works as a sweep
  dimension (``--grid network_mode=analytic,flow``).

* ``repro-sim sweep`` — fan a parameter grid out over parallel workers::

      repro-sim sweep --backend photonic --workload tiny --cluster perlmutter:2 \\
          --grid reconfiguration_delay=1e-5,0.007,0.015 \\
          --grid provisioning=false,true --workers 4 --format csv

  ``--fork`` turns on delta-sweeps: grid points that differ only in their
  fault schedules share one simulation up to the first diverging event,
  then branch from an in-memory fork instead of re-simulating from t=0.
  Results are bit-for-bit identical to a straight sweep.

* ``repro-sim snapshot`` — simulate part of one scenario and spill the live
  session (pending events included) to a versioned checkpoint file::

      repro-sim snapshot --backend fattree --network-mode flow \\
          --iterations 8 --at 4 --checkpoint ckpt.bin

* ``repro-sim resume`` — load a checkpoint, continue bit-for-bit where it
  stopped, and emit the finished scenario's metrics::

      repro-sim resume --checkpoint ckpt.bin --format json

* ``repro-sim serve`` — run the persistent experiment service: an HTTP/JSON
  API over a validated job queue, a shared worker-process pool, and an
  on-disk content-addressed result store (see :mod:`repro.service`)::

      repro-sim serve --port 8070 --store /var/tmp/repro-store --workers 4

* ``repro-sim submit`` — submit a sweep to a running service (same scenario
  flags as ``sweep``; ``--wait`` polls to completion and emits results)::

      repro-sim submit --url http://127.0.0.1:8070 --backend electrical \\
          --grid network_mode=analytic,flow --wait

* ``repro-sim status`` — fetch (or ``--wait`` on) a submitted job by id.

* ``repro-sim fetch`` — fetch one stored result envelope by configuration
  hash, straight from the service's content-addressed store.

* ``repro-sim fig8`` — the paper's Fig. 8 reconfiguration-latency sweep
  (normalized against the electrical baseline) through the experiment runner.

* ``repro-sim scale`` — the large-scale scenario family (1k/4k/10k-endpoint
  fabrics, multi-collective MoE steady state) in flow or analytic mode,
  fanned out over parallel workers::

      repro-sim scale --endpoints 1000,10000 --backends fattree,photonic \\
          --network-mode flow --workers 4 --format csv

Workload presets: ``tiny``, ``paper-trace``, ``moe``, ``llama3-405b``
(tune with repeatable ``--workload-arg pp=2`` overrides).  Clusters are
``perlmutter:<nodes>`` or ``dgx-h200:<gpus>[:<nic_ports>]``.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
from typing import Dict, List, Optional, Sequence

from ..errors import ConfigurationError, ReproError
from ..simulator.routing import ROUTING_POLICIES
from .backends import NETWORK_MODES, all_backends, get_backend
from .runner import ExperimentRunner, Scenario, ScenarioResult
from .spec import WORKLOAD_PRESETS, parse_value, scenarios_from_spec


def _emit(
    rows: List[Dict[str, object]],
    fmt: str,
    output: Optional[str],
    single: bool = False,
) -> None:
    """Write rows as JSON or CSV to ``output`` (or stdout).

    ``single`` emits a bare JSON object (the ``run`` subcommand); list-shaped
    subcommands always emit a JSON array, even for one-point grids.
    """
    if fmt == "json":
        text = json.dumps(rows[0] if single else rows, indent=2)
    else:
        fieldnames: List[str] = []
        for row in rows:
            for key in row:
                if key not in fieldnames:
                    fieldnames.append(key)
        buffer = io.StringIO()
        writer = csv.DictWriter(buffer, fieldnames=fieldnames)
        writer.writeheader()
        for row in rows:
            writer.writerow(row)
        text = buffer.getvalue().rstrip("\n")
    if output:
        with open(output, "w") as handle:
            handle.write(text + "\n")
    else:
        print(text)


def _result_rows(results: Sequence[ScenarioResult], fmt: str) -> List[Dict[str, object]]:
    if fmt == "csv":
        return [result.to_row() for result in results]
    return [result.to_dict() for result in results]


# --------------------------------------------------------------------------- #
# Subcommands
# --------------------------------------------------------------------------- #


def _add_scenario_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--backend", default="electrical", help="fabric backend name (see `backends`)"
    )
    parser.add_argument(
        "--workload", default="tiny", help=f"preset: {sorted(WORKLOAD_PRESETS)}"
    )
    parser.add_argument(
        "--workload-arg",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="override a workload factory argument (repeatable), e.g. pp=2",
    )
    parser.add_argument(
        "--cluster",
        default="perlmutter:2",
        help="cluster spec: perlmutter:<nodes> or dgx-h200:<gpus>[:<nic_ports>]",
    )
    parser.add_argument(
        "--iterations", type=int, default=3, help="training iterations to simulate"
    )
    parser.add_argument(
        "--mfu", type=float, default=0.40, help="model FLOPs utilization"
    )
    parser.add_argument(
        "--knob",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="backend knob (repeatable), e.g. reconfiguration_delay=0.015",
    )
    parser.add_argument(
        "--network-mode",
        choices=NETWORK_MODES,
        default=None,
        help="how collectives are timed: 'analytic' alpha-beta pricing or "
        "'flow' max-min fair flow simulation with link contention and, on "
        "circuit-switched backends, time-domain reconfiguration events "
        "(shorthand for --knob network_mode=...; every backend except ideal)",
    )
    parser.add_argument(
        "--routing-policy",
        choices=ROUTING_POLICIES,
        default=None,
        help="flow-mode multipath policy on the packet fabrics: 'single' "
        "(default one-path routing), 'ecmp' (deterministic per-flow hashing "
        "over equal-cost paths), 'adaptive' (least-congested equal-cost path "
        "at flow start), or 'spray' (stripe each transfer across equal-cost "
        "paths) — shorthand for --knob routing_policy=...",
    )
    parser.add_argument(
        "--fault-plan",
        default=None,
        metavar="FAULTS.JSON",
        help="JSON fault plan injected as timed simulation events: link "
        "failure/recovery, bandwidth degradation, OCS port failure, compute "
        "slowdown (shorthand for the 'faults' backend knob; see the README's "
        "Fault injection section for the schema)",
    )
    parser.add_argument("--format", choices=("json", "csv"), default="json")
    parser.add_argument("--output", default=None, help="write to file instead of stdout")


def _key_values(pairs: Sequence[str], what: str) -> Dict[str, object]:
    """Parse repeated ``key=value`` flags into a mapping of parsed values."""
    parsed: Dict[str, object] = {}
    for pair in pairs:
        key, sep, value = pair.partition("=")
        if not sep:
            raise ConfigurationError(f"{what} {pair!r} must look like key=value")
        parsed[key.strip()] = parse_value(value)
    return parsed


def spec_from_args(args: argparse.Namespace) -> dict:
    """Turn scenario flags into the JSON spec of :mod:`repro.experiments.spec`.

    The one place flags become a scenario: ``run``, ``sweep``, ``snapshot``,
    ``fig8`` and ``submit`` all build their scenarios from this spec —
    locally through :func:`~repro.experiments.spec.scenarios_from_spec`, or
    (``submit``) on the service through the same function — so every front
    door hashes the same flags to the same configuration.  Values stay
    JSON-native: the parser resolves technology names and fault plans.
    """
    knobs = _key_values(getattr(args, "knob", ()), "knob")
    for flag in ("network_mode", "routing_policy"):
        value = getattr(args, flag, None)
        if value is None:
            continue
        existing = knobs.get(flag)
        if existing is not None and existing != value:
            raise ConfigurationError(
                f"--{flag.replace('_', '-')} {value} conflicts with "
                f"--knob {flag}={existing}"
            )
        knobs[flag] = value
    fault_plan = getattr(args, "fault_plan", None)
    if fault_plan is not None:
        if "faults" in knobs:
            raise ConfigurationError(
                "--fault-plan conflicts with --knob faults=...; pick one way "
                "to inject faults"
            )
        try:
            with open(fault_plan) as handle:
                knobs["faults"] = json.load(handle)
        except (OSError, ValueError) as exc:
            raise ConfigurationError(
                f"cannot read fault plan {fault_plan!r}: {exc}"
            ) from exc
    grid: Dict[str, List[object]] = {}
    for pair in getattr(args, "grid", ()):
        key, sep, values = pair.partition("=")
        if not sep or not values:
            raise ConfigurationError(f"grid {pair!r} must look like key=v1,v2,...")
        grid[key.strip()] = [parse_value(value) for value in values.split(",")]
    scenario: Dict[str, object] = {
        "workload": args.workload,
        "cluster": args.cluster,
        "backend": getattr(args, "backend", "electrical"),
        "iterations": args.iterations,
        "mfu": getattr(args, "mfu", 0.40),
    }
    workload_args = _key_values(args.workload_arg, "workload override")
    if workload_args:
        scenario["workload_args"] = workload_args
    if knobs:
        scenario["knobs"] = knobs
    spec: Dict[str, object] = {"scenario": scenario}
    if grid:
        spec["grid"] = grid
    if getattr(args, "fork", False):
        spec["fork"] = True
    return spec


def _scenario_from_spec(args: argparse.Namespace) -> Scenario:
    """The single scenario a grid-less subcommand's flags describe."""
    (scenario,) = scenarios_from_spec(spec_from_args(args)).scenarios
    return scenario


def _cmd_backends(args: argparse.Namespace) -> int:
    rows = [
        {
            "name": spec.name,
            "description": spec.description,
            "knobs": list(spec.knobs),
        }
        for spec in all_backends()
    ]
    if args.format == "json":
        print(json.dumps(rows, indent=2))
    else:
        for row in rows:
            knobs = ", ".join(row["knobs"]) or "-"
            print(f"{row['name']:<12} {row['description']}  [knobs: {knobs}]")
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    scenario = _scenario_from_spec(args)
    runner = ExperimentRunner(max_workers=1, executor="serial")
    result = runner.run(scenario)
    _emit(_result_rows([result], args.format), args.format, args.output, single=True)
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    spec = spec_from_args(args)
    if "grid" not in spec:
        raise ConfigurationError("a sweep needs at least one --grid key=v1,v2,...")
    sweep = scenarios_from_spec(spec)
    runner = ExperimentRunner(max_workers=args.workers, executor=args.executor)
    results = runner.run_many(sweep.scenarios, fork=sweep.fork)
    _emit(_result_rows(results, args.format), args.format, args.output)
    print(
        f"sweep: {len(results)} points, {runner.cache_misses} simulated, "
        f"{runner.cache_hits} cache hits, {runner.max_workers} workers"
        + (" (fork)" if args.fork else ""),
        file=sys.stderr,
    )
    return 0


def _cmd_snapshot(args: argparse.Namespace) -> int:
    from .session import SimulationSession

    scenario = _scenario_from_spec(args)
    stop_at = scenario.num_iterations if args.at is None else args.at
    if not 0 <= stop_at <= scenario.num_iterations:
        raise ConfigurationError(
            f"--at {stop_at} must be between 0 and --iterations "
            f"({scenario.num_iterations})"
        )
    session = SimulationSession.start(scenario)
    session.run_to(stop_at)
    session.save(args.checkpoint)
    _emit(
        [
            {
                "checkpoint": args.checkpoint,
                "scenario": scenario.name,
                "backend": scenario.backend,
                "completed_iterations": session.completed,
                "remaining_iterations": scenario.num_iterations - session.completed,
                "clock": session.clock,
            }
        ],
        args.format,
        args.output,
        single=True,
    )
    return 0


def _cmd_resume(args: argparse.Namespace) -> int:
    from dataclasses import replace

    from .session import SimulationSession

    session = SimulationSession.load(args.checkpoint)
    scenario = session.scenario
    if args.iterations is not None:
        if args.iterations < session.completed:
            raise ConfigurationError(
                f"--iterations {args.iterations} is below the checkpoint's "
                f"{session.completed} already-completed iterations"
            )
        scenario = replace(scenario, num_iterations=args.iterations)
    session.run_to(scenario.num_iterations)
    result = session.result(scenario=scenario)
    _emit(_result_rows([result], args.format), args.format, args.output, single=True)
    return 0


def _cmd_scale(args: argparse.Namespace) -> int:
    from .contention import scale_scenario

    try:
        endpoints = [int(value) for value in args.endpoints.split(",")]
    except ValueError as exc:
        raise ConfigurationError(
            f"--endpoints must be comma-separated GPU counts, got {args.endpoints!r}"
        ) from exc
    backends = [name.strip() for name in args.backends.split(",") if name.strip()]
    for name in backends:
        get_backend(name)  # fail fast on unknown backends
    scenarios = [
        scale_scenario(
            num_endpoints=count,
            backend=name,
            network_mode=args.network_mode,
            num_iterations=args.iterations,
        )
        for count in endpoints
        for name in backends
    ]
    runner = ExperimentRunner(max_workers=args.workers, executor=args.executor)
    results = runner.run_many(scenarios)
    _emit(_result_rows(results, args.format), args.format, args.output)
    print(
        f"scale: {len(results)} points, {runner.cache_misses} simulated, "
        f"{runner.max_workers} workers",
        file=sys.stderr,
    )
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    import signal

    from ..service import ExperimentServer, ExperimentService

    service = ExperimentService(
        store_dir=args.store,
        max_workers=args.workers,
        job_workers=args.job_workers,
        max_grid_points=args.max_grid_points,
        executor=args.executor,
    )
    server = ExperimentServer(service, host=args.host, port=args.port)
    # One machine-readable ready line on stdout: harnesses (the CI smoke
    # test) read the actual URL from it, which makes --port 0 usable.
    print(
        json.dumps(
            {
                "serving": server.url,
                "store": str(service.store.root),
                "workers": service.num_workers,
                "pid": os.getpid(),
            }
        ),
        flush=True,
    )

    def _terminate(signum, frame):  # noqa: ARG001
        raise KeyboardInterrupt

    signal.signal(signal.SIGTERM, _terminate)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        print("repro-sim serve: shutting down", file=sys.stderr)
    finally:
        server.httpd.shutdown()
        server.httpd.server_close()
        service.close()
    return 0


def _emit_job(job: dict, args: argparse.Namespace) -> None:
    """Emit a finished job's results as rows, or the raw job record."""
    if job.get("state") == "done" and job.get("results"):
        results = [ScenarioResult.from_dict(row) for row in job["results"]]
        _emit(_result_rows(results, args.format), args.format, args.output)
        print(
            f"job {job['id']}: {job['num_points']} points, "
            f"{job['points_simulated']} simulated, cache "
            f"{job.get('points_from_cache') or {}}",
            file=sys.stderr,
        )
    else:
        _emit([job], args.format, args.output, single=True)


def _cmd_submit(args: argparse.Namespace) -> int:
    from ..service import ServiceClient

    spec = spec_from_args(args)
    client = ServiceClient(args.url)
    job = client.submit(spec)
    if args.wait:
        job = client.wait(job["id"], timeout=args.timeout, raise_on_failure=False)
    _emit_job(job, args)
    return 0 if job.get("state") != "failed" else 1


def _cmd_status(args: argparse.Namespace) -> int:
    from ..service import ServiceClient

    client = ServiceClient(args.url)
    if args.wait:
        job = client.wait(args.job, timeout=args.timeout, raise_on_failure=False)
    else:
        job = client.job(args.job)
    _emit_job(job, args)
    return 0 if job.get("state") != "failed" else 1


def _cmd_fetch(args: argparse.Namespace) -> int:
    from ..service import ServiceClient

    envelope = ServiceClient(args.url).result(args.hash)
    _emit([envelope], args.format, args.output, single=True)
    return 0


def _cmd_fig8(args: argparse.Namespace) -> int:
    from ..core.system import reconfiguration_latency_sweep

    scenario = _scenario_from_spec(args)
    try:
        delays = [float(value) for value in args.delays.split(",")]
    except ValueError as exc:
        raise ConfigurationError(
            f"--delays must be comma-separated seconds, got {args.delays!r}"
        ) from exc
    points = reconfiguration_latency_sweep(
        scenario.workload,
        scenario.cluster,
        delays,
        num_iterations=args.iterations,
        max_workers=args.workers,
    )
    rows = [
        {
            "reconfiguration_delay": point.reconfiguration_delay,
            "provisioning": point.provisioning,
            "iteration_time": point.iteration_time,
            "normalized_iteration_time": point.normalized_iteration_time,
            "reconfigurations_per_iteration": point.reconfigurations_per_iteration,
            "exposed_reconfig_time": point.exposed_reconfig_time,
        }
        for point in points
    ]
    _emit(rows, args.format, args.output)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-sim",
        description="Simulate ML training workloads on photonic, electrical, "
        "fat-tree, rail-optimized, OCS, or ideal fabrics.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    backends_parser = subparsers.add_parser(
        "backends", help="list registered fabric backends"
    )
    backends_parser.add_argument("--format", choices=("json", "text"), default="text")
    backends_parser.set_defaults(func=_cmd_backends)

    run_parser = subparsers.add_parser("run", help="simulate one scenario")
    _add_scenario_arguments(run_parser)
    run_parser.set_defaults(func=_cmd_run)

    sweep_parser = subparsers.add_parser(
        "sweep", help="simulate a parameter grid in parallel"
    )
    _add_scenario_arguments(sweep_parser)
    sweep_parser.add_argument(
        "--grid",
        action="append",
        default=[],
        metavar="KEY=V1,V2",
        help="sweep dimension (repeatable); scenario fields or backend knobs",
    )
    sweep_parser.add_argument("--workers", type=int, default=None)
    sweep_parser.add_argument(
        "--executor", choices=("thread", "process", "serial"), default="process"
    )
    sweep_parser.add_argument(
        "--fork",
        action="store_true",
        help="delta-sweep: simulate the shared prefix of fault-schedule "
        "grids once, then branch from in-memory forks (bit-identical "
        "results, less wall-clock when schedules diverge late)",
    )
    sweep_parser.set_defaults(func=_cmd_sweep)

    snapshot_parser = subparsers.add_parser(
        "snapshot",
        help="simulate part of one scenario and save a resumable checkpoint",
    )
    _add_scenario_arguments(snapshot_parser)
    snapshot_parser.add_argument(
        "--checkpoint",
        required=True,
        metavar="PATH",
        help="file the live session is spilled to",
    )
    snapshot_parser.add_argument(
        "--at",
        type=int,
        default=None,
        metavar="N",
        help="iterations to simulate before saving (default: all of "
        "--iterations, i.e. a finished-run checkpoint)",
    )
    snapshot_parser.set_defaults(func=_cmd_snapshot)

    resume_parser = subparsers.add_parser(
        "resume",
        help="load a checkpoint, finish the run, and emit its metrics",
    )
    resume_parser.add_argument(
        "--checkpoint",
        required=True,
        metavar="PATH",
        help="file written by `repro-sim snapshot` (or SimulationSession.save)",
    )
    resume_parser.add_argument(
        "--iterations",
        type=int,
        default=None,
        help="total iterations to finish at (default: the scenario's own "
        "count; may exceed it to simulate further)",
    )
    resume_parser.add_argument("--format", choices=("json", "csv"), default="json")
    resume_parser.add_argument("--output", default=None)
    resume_parser.set_defaults(func=_cmd_resume)

    scale_parser = subparsers.add_parser(
        "scale",
        help="the large-scale scenario family (1k/4k/10k-endpoint fabrics)",
    )
    scale_parser.add_argument(
        "--endpoints",
        default="1000",
        help="comma-separated GPU counts (multiples of 40, e.g. 1000,4000,10000)",
    )
    scale_parser.add_argument(
        "--backends",
        default="fattree",
        help="comma-separated backends (fattree, railopt, photonic, ...)",
    )
    scale_parser.add_argument(
        "--network-mode", choices=NETWORK_MODES, default="flow"
    )
    scale_parser.add_argument("--iterations", type=int, default=2)
    scale_parser.add_argument("--workers", type=int, default=None)
    scale_parser.add_argument(
        "--executor", choices=("thread", "process", "serial"), default="process"
    )
    scale_parser.add_argument("--format", choices=("json", "csv"), default="json")
    scale_parser.add_argument("--output", default=None)
    scale_parser.set_defaults(func=_cmd_scale)

    serve_parser = subparsers.add_parser(
        "serve",
        help="run the persistent experiment service (HTTP API + job queue "
        "+ content-addressed result store)",
    )
    serve_parser.add_argument("--host", default="127.0.0.1")
    serve_parser.add_argument(
        "--port",
        type=int,
        default=8070,
        help="listening port (0 binds an ephemeral port; the ready line on "
        "stdout reports the actual URL)",
    )
    serve_parser.add_argument(
        "--store",
        default=".repro-store",
        metavar="DIR",
        help="directory of the persistent result store and quarantine log",
    )
    serve_parser.add_argument(
        "--workers",
        type=int,
        default=None,
        help="simulation worker processes (default: CPU count, capped at 8)",
    )
    serve_parser.add_argument(
        "--job-workers",
        type=int,
        default=4,
        help="jobs allowed to run concurrently",
    )
    serve_parser.add_argument(
        "--max-grid-points",
        type=int,
        default=None,
        help="largest grid one submission may expand into (default 256)",
    )
    serve_parser.add_argument(
        "--executor",
        choices=("process", "serial"),
        default="process",
        help="'serial' simulates inline on the job thread (debugging)",
    )
    serve_parser.set_defaults(func=_cmd_serve)

    submit_parser = subparsers.add_parser(
        "submit", help="submit a sweep to a running experiment service"
    )
    _add_scenario_arguments(submit_parser)
    submit_parser.add_argument(
        "--url", required=True, help="service base URL, e.g. http://127.0.0.1:8070"
    )
    submit_parser.add_argument(
        "--grid",
        action="append",
        default=[],
        metavar="KEY=V1,V2",
        help="sweep dimension (repeatable); scenario fields or backend knobs",
    )
    submit_parser.add_argument(
        "--fork",
        action="store_true",
        help="ask the service to delta-sweep fault-schedule grids",
    )
    submit_parser.add_argument(
        "--wait",
        action="store_true",
        help="poll the job to completion and emit its results",
    )
    submit_parser.add_argument(
        "--timeout", type=float, default=600.0, help="--wait timeout in seconds"
    )
    submit_parser.set_defaults(func=_cmd_submit)

    status_parser = subparsers.add_parser(
        "status", help="fetch a submitted job's state (and results when done)"
    )
    status_parser.add_argument("--url", required=True)
    status_parser.add_argument("--job", required=True, metavar="JOB_ID")
    status_parser.add_argument("--wait", action="store_true")
    status_parser.add_argument("--timeout", type=float, default=600.0)
    status_parser.add_argument("--format", choices=("json", "csv"), default="json")
    status_parser.add_argument("--output", default=None)
    status_parser.set_defaults(func=_cmd_status)

    fetch_parser = subparsers.add_parser(
        "fetch",
        help="fetch one stored result envelope by configuration hash",
    )
    fetch_parser.add_argument("--url", required=True)
    fetch_parser.add_argument("--hash", required=True, metavar="CONFIG_HASH")
    fetch_parser.add_argument("--format", choices=("json", "csv"), default="json")
    fetch_parser.add_argument("--output", default=None)
    fetch_parser.set_defaults(func=_cmd_fetch)

    fig8_parser = subparsers.add_parser(
        "fig8", help="the paper's Fig. 8 reconfiguration-latency sweep"
    )
    fig8_parser.add_argument(
        "--workload", default="tiny", help=f"preset: {sorted(WORKLOAD_PRESETS)}"
    )
    fig8_parser.add_argument(
        "--workload-arg", action="append", default=[], metavar="KEY=VALUE"
    )
    fig8_parser.add_argument("--cluster", default="perlmutter:2")
    fig8_parser.add_argument(
        "--delays",
        default="1e-8,7e-6,1e-5,0.015,0.025,0.1",
        help="comma-separated OCS switching delays in seconds (Table 3)",
    )
    fig8_parser.add_argument("--iterations", type=int, default=3)
    fig8_parser.add_argument("--workers", type=int, default=None)
    fig8_parser.add_argument("--format", choices=("json", "csv"), default="json")
    fig8_parser.add_argument("--output", default=None)
    fig8_parser.set_defaults(func=_cmd_fig8)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Console-script entry point."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ReproError as exc:
        print(f"repro-sim: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
