"""Experiment-service benchmark: cold vs memo vs persistent-store serving.

Boots an in-process :class:`~repro.service.ExperimentService` behind a real
HTTP server and times the same sweep submission three ways:

* **cold** — nothing cached: every grid point is simulated;
* **memory** — resubmitted to the same server: answered from the runner's
  in-memory memo;
* **store** — resubmitted to a *fresh* server on the same store directory:
  answered from the persistent content-addressed result store with zero
  simulations.

Each phase is emitted as one ``BENCH {...}`` JSON line::

    BENCH {"bench": "service", "phase": "cold", "points": 4,
           "simulated": 4, "cache_hits": 0, "wall_time_s": 1.9}
    BENCH {"bench": "service", "phase": "store", "points": 4,
           "simulated": 0, "cache_hits": 4, "wall_time_s": 0.02,
           "speedup": 95.0}

Not wired into the CI perf-regression baseline (cache-hit latency is
dominated by HTTP polling, which would gate noise, not simulation): run it
by hand when touching the service stack::

    PYTHONPATH=src python benchmarks/bench_service.py [--points N]
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
import time
from pathlib import Path

from repro.service import ExperimentServer, ExperimentService, ServiceClient


def bench_line(payload: dict) -> None:
    print("BENCH " + json.dumps(payload))
    sys.stdout.flush()


def spec(points: int) -> dict:
    return {
        "scenario": {
            "workload": "tiny",
            "cluster": "perlmutter:2",
            "backend": "fattree",
            "iterations": 2,
            "knobs": {"network_mode": "flow"},
        },
        "grid": {"oversubscription": [1.0 + k for k in range(points)]},
    }


def run_phase(url: str, phase: str, points: int, baseline: float = 0.0) -> float:
    client = ServiceClient(url)
    started = time.perf_counter()
    job = client.wait(client.submit(spec(points))["id"], timeout=600.0, poll=0.01)
    wall = time.perf_counter() - started
    payload = {
        "bench": "service",
        "phase": phase,
        "points": points,
        "simulated": job["points_simulated"],
        "cache_hits": sum(job["points_from_cache"].values()),
        "wall_time_s": round(wall, 4),
    }
    if baseline:
        payload["speedup"] = round(baseline / wall, 1)
    bench_line(payload)
    return wall


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--points", type=int, default=4, help="grid points")
    parser.add_argument(
        "--workers", type=int, default=2, help="simulation worker processes"
    )
    args = parser.parse_args()

    with tempfile.TemporaryDirectory(prefix="bench-service-") as tmp:
        store = Path(tmp) / "store"
        server = ExperimentServer(
            ExperimentService(store, max_workers=args.workers)
        ).start()
        try:
            cold = run_phase(server.url, "cold", args.points)
            run_phase(server.url, "memory", args.points, baseline=cold)
        finally:
            server.stop()

        server = ExperimentServer(
            ExperimentService(store, max_workers=args.workers)
        ).start()
        try:
            run_phase(server.url, "store", args.points, baseline=cold)
        finally:
            server.stop()
    return 0


if __name__ == "__main__":
    sys.exit(main())
