"""Sweep-spec validation at the service door.

Every submission is a JSON document; nothing from the wire reaches a worker
process until it has been parsed, typed, expanded, and capability-checked.
Anything wrong raises :class:`~repro.errors.SpecValidationError` with a
stable machine-readable ``code`` — the service records the rejection in its
quarantine log and the HTTP layer returns it as a structured 400, so a
malformed or capability-violating spec can never crash a worker.

The spec format and its parser live in :mod:`repro.experiments.spec`; the
``repro-sim`` CLI builds its scenarios through the same
:func:`~repro.experiments.spec.scenarios_from_spec`, so HTTP submissions and
CLI runs share configuration hashes — and one result store.
"""

from __future__ import annotations

from typing import Optional

from ..experiments.spec import SweepSpec, scenarios_from_spec

#: Default cap on the number of grid points one submission may expand into.
MAX_GRID_POINTS = 256


def validate_sweep_spec(
    payload: object, max_grid_points: int = MAX_GRID_POINTS
) -> SweepSpec:
    """Validate a submitted sweep spec and expand it into scenarios.

    :func:`~repro.experiments.spec.scenarios_from_spec` under the service's
    grid-size cap.
    """
    return scenarios_from_spec(payload, max_grid_points=max_grid_points)


def spec_excerpt(raw: Optional[str], payload: object = None, limit: int = 2048) -> str:
    """A bounded excerpt of a submission for the quarantine log."""
    if raw is None:
        try:
            import json

            raw = json.dumps(payload, default=repr)
        except (TypeError, ValueError):
            raw = repr(payload)
    return raw if len(raw) <= limit else raw[:limit] + "...[truncated]"
