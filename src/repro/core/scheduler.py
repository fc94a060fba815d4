"""First-come-first-serve (FC-FS) request scheduling for the Opus controller.

The paper argues (§4) that a simple FC-FS policy is sufficient for the
control plane because rail bandwidth is not shared across jobs and the job's
framework already defines a sequential ordering of traffic demands.  What the
policy must guarantee is:

* requests are served in issue order *within a communication-group domain*
  (a communication kernel issued first by the application is served first);
* a reconfiguration never disrupts ongoing traffic (it waits for the circuits
  it would tear down to drain);
* no control divergence across rails for collectives spanning multiple rails
  (all rails of one request are handled as a unit).

This module provides the request bookkeeping: per-group-domain FIFO
validation of each admitted request.  The actual time arithmetic lives in
:class:`~repro.core.controller.OpusController`, which admits every request
here before serving it, in the order the executor issues them.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, FrozenSet, Tuple

from ..errors import SchedulingError

_REQUEST_COUNTER = itertools.count()


@dataclass(frozen=True)
class ReconfigurationRequest:
    """One reconfiguration request issued by the shim to the controller."""

    request_id: int
    group_key: FrozenSet[int]
    axis: str
    rails: Tuple[int, ...]
    issue_time: float
    provisioned: bool = False

    @staticmethod
    def create(
        group_key: FrozenSet[int],
        axis: str,
        rails: Tuple[int, ...],
        issue_time: float,
        provisioned: bool = False,
    ) -> "ReconfigurationRequest":
        """Build a request with a fresh monotonically increasing id."""
        return ReconfigurationRequest(
            request_id=next(_REQUEST_COUNTER),
            group_key=group_key,
            axis=axis,
            rails=rails,
            issue_time=issue_time,
            provisioned=provisioned,
        )


class FCFSScheduler:
    """Orders reconfiguration requests first-come-first-serve.

    The scheduler tracks, per communication-group domain (the member-set key),
    the issue time of the last admitted request and raises
    :class:`~repro.errors.SchedulingError` if a caller tries to admit requests
    of the same group out of order — the invariant the paper's Objective 3
    depends on.
    """

    def __init__(self) -> None:
        self._last_issue_per_group: Dict[FrozenSet[int], float] = {}

    def submit(self, request: ReconfigurationRequest) -> None:
        """Admit one request, enforcing per-group FIFO order."""
        last = self._last_issue_per_group.get(request.group_key)
        if last is not None and request.issue_time < last:
            raise SchedulingError(
                f"request {request.request_id} for group {sorted(request.group_key)} "
                f"was issued at {request.issue_time:.6f}, before the previously "
                f"admitted request at {last:.6f} (FC-FS violation)"
            )
        self._last_issue_per_group[request.group_key] = request.issue_time

    def reset(self) -> None:
        """Clear all scheduler state (new job)."""
        self._last_issue_per_group.clear()
