"""The experiment service core: validated jobs over a shared worker pool.

:class:`ExperimentService` is the HTTP-agnostic heart of ``repro-sim
serve``: it owns the persistent :class:`~repro.service.store.ResultStore`,
the quarantine log, the telemetry counters, one long-lived
:class:`~repro.experiments.runner.ExperimentRunner` (with its in-memory
memo), and a shared ``ProcessPoolExecutor`` the runner shards every job's
cache misses across.  A small thread pool drives jobs concurrently — each
job is one validated sweep submission flowing queued → running →
done/failed, with every grid point answered from the memo, the store, or a
fresh simulation on the worker pool.

Submissions are validated *before* a job exists
(:func:`~repro.service.validation.validate_sweep_spec`); rejected specs are
recorded in the quarantine log with their rejection code and never reach a
worker.  A scenario that fails *mid-simulation* fails its job — the
exception is captured on the job record and the service (queue, pool,
other jobs) keeps running.
"""

from __future__ import annotations

import json
import os
import threading
import time
from collections import Counter, deque
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

from ..errors import ConfigurationError, SpecValidationError
from ..experiments.runner import ExperimentRunner, ScenarioResult
from .store import ResultStore
from .telemetry import ServiceTelemetry
from .validation import SweepSpec, spec_excerpt, validate_sweep_spec

@dataclass
class Job:
    """One submitted sweep: lifecycle, accounting, and (eventually) results."""

    id: str
    name: str
    num_points: int
    fork: bool
    submitted_at: float
    state: str = "queued"
    started_at: Optional[float] = None
    finished_at: Optional[float] = None
    error: Optional[str] = None
    results: Optional[List[ScenarioResult]] = None
    #: Grid points freshly simulated for this job.
    points_simulated: int = 0
    #: Grid points served without simulating, by tier.
    points_from_cache: Dict[str, int] = field(default_factory=dict)

    def to_dict(self, include_results: bool = True) -> dict:
        payload: dict = {
            "id": self.id,
            "name": self.name,
            "state": self.state,
            "num_points": self.num_points,
            "fork": self.fork,
            "submitted_at": self.submitted_at,
            "started_at": self.started_at,
            "finished_at": self.finished_at,
            "error": self.error,
            "points_simulated": self.points_simulated,
            "points_from_cache": dict(sorted(self.points_from_cache.items())),
        }
        if self.results is not None:
            payload["result_hashes"] = [r.config_hash for r in self.results]
            if include_results:
                payload["results"] = [r.to_dict() for r in self.results]
        return payload


class QuarantineLog:
    """Append-only JSONL record of rejected submissions.

    Every rejection lands as one line — timestamp, stable rejection code,
    human-readable error, bounded spec excerpt — in
    ``<store>/quarantine.jsonl``, and feeds in-memory per-code counters
    (rehydrated from the file on startup, so counts survive restarts).
    """

    def __init__(self, path: "Path | str", recent: int = 50) -> None:
        self.path = Path(path)
        self._lock = threading.Lock()
        self.by_code: Counter = Counter()
        self.recent: deque = deque(maxlen=recent)
        if self.path.exists():
            for line in self.path.read_text().splitlines():
                try:
                    entry = json.loads(line)
                except ValueError:
                    continue  # a torn tail line cannot poison startup
                self.by_code[entry.get("code", "unknown")] += 1
                self.recent.append(entry)

    def record(self, code: str, error: str, spec: str) -> dict:
        entry = {
            "time": time.time(),
            "code": code,
            "error": error,
            "spec": spec,
        }
        with self._lock:
            with self.path.open("a") as handle:
                handle.write(json.dumps(entry) + "\n")
            self.by_code[code] += 1
            self.recent.append(entry)
        return entry

    def snapshot(self) -> dict:
        with self._lock:
            return {
                "total": sum(self.by_code.values()),
                "by_code": dict(sorted(self.by_code.items())),
                "recent": list(self.recent),
            }


class ExperimentService:
    """Long-running sweep execution behind an in-process API.

    Parameters
    ----------
    store_dir:
        Directory holding the persistent result store and quarantine log.
    max_workers:
        Size of the shared simulation worker-process pool (default: CPU
        count, capped at 8 — the service is long-lived, not a batch job).
    job_workers:
        How many jobs may be in the ``running`` state concurrently; each
        occupies one dispatcher thread and shards its cache misses across
        the shared worker pool.
    max_grid_points:
        Per-submission cap enforced by spec validation.
    executor:
        ``"process"`` (default) runs simulations on the shared pool;
        ``"serial"`` runs them inline on the dispatcher thread (tests,
        debugging).
    """

    def __init__(
        self,
        store_dir: "Path | str",
        max_workers: Optional[int] = None,
        job_workers: int = 4,
        max_grid_points: Optional[int] = None,
        executor: str = "process",
    ) -> None:
        if executor not in ("process", "serial"):
            raise ConfigurationError(
                f"service executor must be 'process' or 'serial', got {executor!r}"
            )
        if job_workers <= 0:
            raise ConfigurationError("job_workers must be positive")
        self.store = ResultStore(store_dir)
        self.quarantine = QuarantineLog(Path(store_dir) / "quarantine.jsonl")
        self.telemetry = ServiceTelemetry()
        self.max_grid_points = max_grid_points
        self.num_workers = (
            max_workers if max_workers else min(os.cpu_count() or 2, 8)
        )
        self._pool: Optional[ProcessPoolExecutor] = (
            ProcessPoolExecutor(max_workers=self.num_workers)
            if executor == "process"
            else None
        )
        self.runner = ExperimentRunner(
            max_workers=self.num_workers,
            executor="serial" if executor == "serial" else "process",
            store=self.store,
            pool=self._pool,
        )
        self.job_workers = job_workers
        self._dispatch = ThreadPoolExecutor(
            max_workers=job_workers, thread_name_prefix="job"
        )
        self._lock = threading.Lock()
        self._jobs: Dict[str, Job] = {}
        self._counter = 0
        self._closed = False

    # ------------------------------------------------------------------ #
    # Submission
    # ------------------------------------------------------------------ #

    def submit_text(self, body: str) -> Job:
        """Validate and enqueue a raw JSON submission body."""
        try:
            payload = json.loads(body)
        except ValueError as exc:
            error = SpecValidationError(
                "malformed-json", f"request body is not valid JSON: {exc}"
            )
            self._reject(error, spec_excerpt(body))
            raise error
        return self.submit(payload, raw=body)

    def submit(self, payload: object, raw: Optional[str] = None) -> Job:
        """Validate ``payload`` and enqueue it as a job.

        Raises :class:`~repro.errors.SpecValidationError` (after recording
        the rejection in the quarantine log) when the spec is refused.
        """
        if self._closed:
            raise ConfigurationError("the service is shut down")
        kwargs = (
            {}
            if self.max_grid_points is None
            else {"max_grid_points": self.max_grid_points}
        )
        try:
            spec = validate_sweep_spec(payload, **kwargs)
        except SpecValidationError as exc:
            self._reject(exc, spec_excerpt(raw, payload))
            raise
        with self._lock:
            self._counter += 1
            job = Job(
                id=f"job-{self._counter:06d}",
                name=spec.name,
                num_points=len(spec.scenarios),
                fork=spec.fork,
                submitted_at=time.time(),
            )
            self._jobs[job.id] = job
        self.telemetry.job_submitted()
        self._dispatch.submit(self._run_job, job, spec)
        return job

    def _reject(self, error: SpecValidationError, spec: str) -> None:
        self.quarantine.record(error.code, str(error), spec)
        self.telemetry.job_rejected(error.code)

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #

    def get_job(self, job_id: str) -> Optional[Job]:
        with self._lock:
            return self._jobs.get(job_id)

    def jobs(self) -> List[Job]:
        with self._lock:
            return list(self._jobs.values())

    def wait(self, job_id: str, timeout: float = 60.0, poll: float = 0.02) -> Job:
        """Block until ``job_id`` leaves the queue (tests and CLIs)."""
        deadline = time.monotonic() + timeout
        while True:
            job = self.get_job(job_id)
            if job is None:
                raise ConfigurationError(f"unknown job {job_id!r}")
            if job.state in ("done", "failed"):
                return job
            if time.monotonic() >= deadline:
                raise TimeoutError(
                    f"job {job_id} still {job.state} after {timeout:g}s"
                )
            time.sleep(poll)

    def metrics(self) -> dict:
        """The ``GET /metrics`` payload: telemetry + cache + pool gauges."""
        payload = self.telemetry.snapshot()
        payload["store"] = {
            "root": str(self.store.root),
            "results": len(self.store),
        }
        payload["runner"] = {
            "memo_results": self.runner.cache_size,
            "cache_hits": self.runner.cache_hits,
            "cache_misses": self.runner.cache_misses,
            "store_hits": self.runner.store_hits,
        }
        payload["workers"] = {
            "processes": self.num_workers if self._pool is not None else 0,
            "job_slots": self.job_workers,
        }
        payload["rejections"]["recent_codes"] = self.quarantine.snapshot()["by_code"]
        return payload

    # ------------------------------------------------------------------ #
    # Execution & shutdown
    # ------------------------------------------------------------------ #

    def _run_job(self, job: Job, spec: SweepSpec) -> None:
        job.state = "running"
        job.started_at = time.time()
        self.telemetry.job_started()

        def on_simulated(result: ScenarioResult) -> None:
            job.points_simulated += 1
            self.telemetry.record_simulated(result)

        def on_hit(result: ScenarioResult, tier: str) -> None:
            job.points_from_cache[tier] = job.points_from_cache.get(tier, 0) + 1
            self.telemetry.record_hit(tier)

        failed = False
        try:
            results = self.runner.run_many(
                list(spec.scenarios),
                fork=spec.fork,
                on_simulated=on_simulated,
                on_hit=on_hit,
            )
            job.results = results
            job.state = "done"
        except Exception as exc:  # noqa: BLE001 — a bad point must not kill the service
            failed = True
            job.error = f"{type(exc).__name__}: {exc}"
            job.state = "failed"
        finally:
            job.finished_at = time.time()
            self.telemetry.job_finished(failed)

    def close(self, wait: bool = True) -> None:
        """Drain the dispatcher and shut the worker pool down."""
        if self._closed:
            return
        self._closed = True
        self._dispatch.shutdown(wait=wait)
        if self._pool is not None:
            self._pool.shutdown(wait=wait)
