"""A small stdlib HTTP client for the experiment service.

Wraps ``urllib.request`` so scripts, tests, and the ``repro-sim
submit/status/fetch`` subcommands talk to ``repro-sim serve`` without any
dependency.  Non-2xx responses carrying the service's structured error body
surface as :class:`ServiceError` with the stable ``code`` attached.
"""

from __future__ import annotations

import json
import time
import urllib.error
import urllib.request

from ..errors import ReproError


class ServiceError(ReproError):
    """An experiment-service request failed.

    ``status`` is the HTTP status (0 for transport failures); ``code`` is
    the service's structured error code when the body carried one
    (``"unknown-backend"``, ``"oversized-grid"``, ``"not-found"``, ...).
    """

    def __init__(self, message: str, status: int = 0, code: str = "") -> None:
        super().__init__(message)
        self.status = status
        self.code = code


class ServiceClient:
    """Talks JSON to one ``repro-sim serve`` endpoint."""

    def __init__(self, url: str, timeout: float = 30.0) -> None:
        self.url = url.rstrip("/")
        self.timeout = timeout

    def _request(self, method: str, path: str, payload: object = None) -> dict:
        data = None
        headers = {"Accept": "application/json"}
        if payload is not None:
            data = json.dumps(payload).encode("utf-8")
            headers["Content-Type"] = "application/json"
        request = urllib.request.Request(
            self.url + path, data=data, headers=headers, method=method
        )
        try:
            with urllib.request.urlopen(request, timeout=self.timeout) as response:
                return json.loads(response.read().decode("utf-8"))
        except urllib.error.HTTPError as exc:
            body = exc.read().decode("utf-8", errors="replace")
            try:
                parsed = json.loads(body)
            except ValueError:
                parsed = {}
            raise ServiceError(
                parsed.get("message", body.strip() or str(exc)),
                status=exc.code,
                code=parsed.get("error", ""),
            ) from exc
        except urllib.error.URLError as exc:
            raise ServiceError(
                f"cannot reach {self.url}: {exc.reason}", status=0
            ) from exc

    # ------------------------------------------------------------------ #
    # API
    # ------------------------------------------------------------------ #

    def healthz(self) -> dict:
        return self._request("GET", "/healthz")

    def metrics(self) -> dict:
        return self._request("GET", "/metrics")

    def quarantine(self) -> dict:
        return self._request("GET", "/quarantine")

    def submit(self, spec: dict) -> dict:
        """Submit a sweep spec; returns the job record (state ``queued``)."""
        return self._request("POST", "/sweeps", payload=spec)["job"]

    def jobs(self) -> list:
        return self._request("GET", "/sweeps")["jobs"]

    def job(self, job_id: str) -> dict:
        return self._request("GET", f"/sweeps/{job_id}")

    def result(self, config_hash: str) -> dict:
        """The stored result envelope for one configuration hash."""
        return self._request("GET", f"/results/{config_hash}")

    def wait(
        self,
        job_id: str,
        timeout: float = 300.0,
        poll: float = 0.1,
        raise_on_failure: bool = True,
    ) -> dict:
        """Poll ``job_id`` until it finishes; returns the final job record."""
        deadline = time.monotonic() + timeout
        while True:
            job = self.job(job_id)
            if job["state"] in ("done", "failed"):
                if job["state"] == "failed" and raise_on_failure:
                    raise ServiceError(
                        f"job {job_id} failed: {job.get('error')}", code="job-failed"
                    )
                return job
            if time.monotonic() >= deadline:
                raise ServiceError(
                    f"job {job_id} still {job['state']} after {timeout:g}s",
                    code="timeout",
                )
            time.sleep(poll)


def wait_until_healthy(
    url: str, timeout: float = 30.0, poll: float = 0.1
) -> ServiceClient:
    """Poll ``/healthz`` until the service answers; returns a bound client."""
    client = ServiceClient(url)
    deadline = time.monotonic() + timeout
    while True:
        try:
            client.healthz()
            return client
        except ServiceError:
            if time.monotonic() >= deadline:
                raise
            time.sleep(poll)
