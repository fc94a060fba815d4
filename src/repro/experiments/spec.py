"""The scenario spec: one JSON document, one parser, every front door.

Both the ``repro-sim`` CLI and the experiment service build their
:class:`~repro.experiments.runner.Scenario` objects here.  The CLI turns its
flags into a spec (:func:`repro.experiments.cli.spec_from_args`) and the
service receives one over HTTP; both hand it to :func:`scenarios_from_spec`,
so the two can never drift apart on configuration hashes.  Anything wrong
raises :class:`~repro.errors.SpecValidationError` with a stable
machine-readable ``code``.

A spec looks like::

    {
      "scenario": {
        "workload": "tiny",               // preset name
        "workload_args": {"pp": 2},       // optional factory overrides
        "cluster": "perlmutter:2",        // cluster spec string
        "backend": "electrical",          // registered backend name
        "knobs": {"network_mode": "flow"},
        "iterations": 2,
        "mfu": 0.4,
        "name": "my-sweep"                // optional, presentation only
      },
      "grid": {"reconfiguration_delay": [1e-5, 0.015]},   // optional
      "fork": false                                       // optional
    }

``grid`` follows :func:`~repro.experiments.runner.expand_grid` semantics:
keys naming a :class:`Scenario` field override that field, every other key
becomes a backend knob.  A key may be fixed in ``knobs`` or swept in
``grid``, not both.  Values are JSON-native: ``technology`` names resolve to
OCS catalog entries and ``faults`` plans to
:class:`~repro.simulator.faults.FaultPlan` objects here.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Mapping, Optional, Sequence, Tuple

from ..errors import ConfigurationError, SpecValidationError
from ..parallelism.config import WorkloadConfig
from ..parallelism.workloads import (
    llama3_405b_workload,
    moe_workload,
    paper_trace_workload,
    small_test_workload,
)
from ..simulator.executor import SimulationConfig
from ..simulator.faults import FaultPlan, as_fault_plan
from ..topology.devices import (
    OCS_CATALOG,
    ClusterSpec,
    dgx_h200_cluster,
    perlmutter_testbed,
)
from .backends import NETWORK_MODES, fault_support, get_backend
from .runner import Scenario, expand_grid

WORKLOAD_PRESETS: Dict[str, Callable[..., WorkloadConfig]] = {
    "tiny": small_test_workload,
    "paper-trace": paper_trace_workload,
    "moe": moe_workload,
    "llama3-405b": llama3_405b_workload,
}

#: JSON scalar types a knob or grid value may carry.
_SCALARS = (bool, int, float, str, type(None))

_SPEC_KEYS = frozenset({"scenario", "grid", "fork"})
_SCENARIO_KEYS = frozenset(
    {
        "workload",
        "workload_args",
        "cluster",
        "backend",
        "knobs",
        "iterations",
        "mfu",
        "name",
    }
)


def parse_value(text: str) -> object:
    """Parse a CLI value: bool / None / int / float, falling back to str."""
    lowered = text.strip().lower()
    if lowered in ("true", "yes", "on"):
        return True
    if lowered in ("false", "no", "off"):
        return False
    if lowered in ("none", "null", "default"):
        return None
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        pass
    return text


def parse_cluster(spec: str) -> ClusterSpec:
    """Parse ``perlmutter:<nodes>`` or ``dgx-h200:<gpus>[:<nic_ports>]``."""
    parts = spec.split(":")
    family = parts[0].lower()
    try:
        numbers = [int(part) for part in parts[1:]]
    except ValueError as exc:
        raise ConfigurationError(f"invalid cluster spec {spec!r}") from exc
    if family == "perlmutter":
        return perlmutter_testbed(num_nodes=numbers[0] if numbers else 4)
    if family == "dgx-h200":
        if not numbers:
            raise ConfigurationError("dgx-h200 needs a GPU count, e.g. dgx-h200:16")
        nic_ports = numbers[1] if len(numbers) > 1 else 1
        return dgx_h200_cluster(numbers[0], nic_ports_per_gpu=nic_ports)
    raise ConfigurationError(
        f"unknown cluster family {family!r}; use perlmutter:<nodes> or "
        f"dgx-h200:<gpus>[:<nic_ports>]"
    )


def _fail(code: str, message: str) -> None:
    raise SpecValidationError(code, message)


@dataclass(frozen=True)
class SweepSpec:
    """A validated spec: expanded scenarios plus run options."""

    scenarios: Tuple[Scenario, ...]
    fork: bool
    name: str


def _resolve_knob(key: str, value: object) -> object:
    """Type-check one knob value, resolving the special-cased knobs."""
    if key == "faults":
        if isinstance(value, FaultPlan):
            return value
        if not isinstance(value, (dict, list)):
            _fail(
                "bad-fault-plan",
                "knob 'faults' must be a fault-plan object or an event list, "
                f"got {type(value).__name__}",
            )
        try:
            return as_fault_plan(value)
        except ConfigurationError as exc:
            _fail("bad-fault-plan", f"invalid fault plan: {exc}")
    if not isinstance(value, _SCALARS):
        _fail(
            "bad-knobs",
            f"knob {key!r} must be a JSON scalar, got {type(value).__name__}",
        )
    if key == "technology" and isinstance(value, str):
        if value not in OCS_CATALOG:
            _fail(
                "bad-knobs",
                f"unknown OCS technology {value!r}; known: {sorted(OCS_CATALOG)}",
            )
        return OCS_CATALOG[value]
    if key == "reconfiguration_delay" and not isinstance(
        value, (int, float, type(None))
    ):
        _fail(
            "bad-knobs",
            f"knob reconfiguration_delay must be a number in seconds, got {value!r}",
        )
    return value


def _check_scenario_point(scenario: Scenario) -> None:
    """Validate one expanded grid point against its backend's capabilities."""
    try:
        spec = get_backend(scenario.backend)
    except ConfigurationError as exc:
        _fail("unknown-backend", str(exc))
    unknown = sorted(set(scenario.knobs) - set(spec.knobs))
    if unknown:
        _fail(
            "unknown-knob",
            f"backend {scenario.backend!r} does not accept knobs {unknown}; "
            f"accepted: {sorted(spec.knobs)}",
        )
    mode = scenario.knobs.get("network_mode")
    if mode is not None and mode not in NETWORK_MODES:
        _fail(
            "bad-knobs",
            f"network_mode must be one of {NETWORK_MODES}, got {mode!r}",
        )
    faults = scenario.knobs.get("faults")
    if faults is not None:
        plan = faults if isinstance(faults, FaultPlan) else as_fault_plan(faults)
        supported = fault_support(scenario.backend, mode)
        if supported is not None and not plan.is_empty:
            try:
                plan.require_supported(
                    supported,
                    context=(
                        f"backend {scenario.backend!r} in "
                        f"{mode or 'analytic'} network mode"
                    ),
                )
            except ConfigurationError as exc:
                _fail("capability-violation", str(exc))


def scenarios_from_spec(
    payload: object, max_grid_points: Optional[int] = None
) -> SweepSpec:
    """Validate a spec and expand it into fully capability-checked scenarios.

    ``max_grid_points`` caps how many points the grid may expand into
    (``None`` = no cap).  Raises :class:`~repro.errors.SpecValidationError`
    (with a stable ``code``) on the first violation.
    """
    if not isinstance(payload, Mapping):
        _fail("bad-spec", "a sweep spec must be a JSON object")
    unknown = sorted(set(payload) - _SPEC_KEYS)
    if unknown:
        _fail(
            "bad-spec",
            f"unknown spec fields {unknown}; known: {sorted(_SPEC_KEYS)}",
        )
    scenario_spec = payload.get("scenario")
    if not isinstance(scenario_spec, Mapping):
        _fail("bad-spec", "'scenario' must be an object")
    unknown = sorted(set(scenario_spec) - _SCENARIO_KEYS)
    if unknown:
        _fail(
            "bad-spec",
            f"unknown scenario fields {unknown}; known: {sorted(_SCENARIO_KEYS)}",
        )
    fork = payload.get("fork", False)
    if not isinstance(fork, bool):
        _fail("bad-spec", "'fork' must be a boolean")

    # Workload ------------------------------------------------------------- #
    workload_name = scenario_spec.get("workload", "tiny")
    if workload_name not in WORKLOAD_PRESETS:
        _fail(
            "unknown-workload",
            f"unknown workload {workload_name!r}; presets: "
            f"{sorted(WORKLOAD_PRESETS)}",
        )
    workload_args = scenario_spec.get("workload_args", {})
    if not isinstance(workload_args, Mapping):
        _fail("bad-workload-args", "'workload_args' must be an object")
    try:
        workload = WORKLOAD_PRESETS[workload_name](**dict(workload_args))
    except (TypeError, ConfigurationError) as exc:
        _fail(
            "bad-workload-args",
            f"workload {workload_name!r} rejected arguments "
            f"{sorted(workload_args)}: {exc}",
        )

    # Cluster -------------------------------------------------------------- #
    cluster_spec = scenario_spec.get("cluster", "perlmutter:2")
    if not isinstance(cluster_spec, str):
        _fail("bad-cluster", "'cluster' must be a spec string")
    try:
        cluster = parse_cluster(cluster_spec)
    except ConfigurationError as exc:
        _fail("bad-cluster", str(exc))

    # Backend & knobs ------------------------------------------------------ #
    backend_name = scenario_spec.get("backend", "electrical")
    if not isinstance(backend_name, str):
        _fail("unknown-backend", "'backend' must be a string")
    try:
        get_backend(backend_name)
    except ConfigurationError as exc:
        _fail("unknown-backend", str(exc))
    raw_knobs = scenario_spec.get("knobs", {})
    if not isinstance(raw_knobs, Mapping):
        _fail("bad-knobs", "'knobs' must be an object")
    knobs = {str(key): _resolve_knob(str(key), value) for key, value in raw_knobs.items()}

    # Iterations & simulator ----------------------------------------------- #
    iterations = scenario_spec.get("iterations", 2)
    if not isinstance(iterations, int) or isinstance(iterations, bool) or iterations < 1:
        _fail("bad-iterations", "'iterations' must be a positive integer")
    mfu = scenario_spec.get("mfu", 0.40)
    if not isinstance(mfu, (int, float)) or isinstance(mfu, bool) or not 0 < mfu <= 1:
        _fail("bad-spec", "'mfu' must be a number in (0, 1]")

    name = scenario_spec.get("name") or f"{workload_name}@{backend_name}"
    if not isinstance(name, str):
        _fail("bad-spec", "'name' must be a string")

    # Grid ----------------------------------------------------------------- #
    raw_grid = payload.get("grid", {})
    if not isinstance(raw_grid, Mapping):
        _fail("bad-grid", "'grid' must be an object mapping keys to value lists")
    grid = {}
    points = 1
    for key, values in raw_grid.items():
        key = str(key)
        if not isinstance(values, Sequence) or isinstance(values, (str, bytes)):
            _fail("bad-grid", f"grid key {key!r} must map to a list of values")
        if not values:
            _fail("bad-grid", f"grid key {key!r} has no values")
        if key in knobs:
            _fail(
                "bad-spec",
                f"{key!r} is both a fixed knob and a grid dimension; pick one "
                "way to set it",
            )
        grid[key] = [_resolve_knob(key, value) for value in values]
        points *= len(values)
    if max_grid_points is not None and points > max_grid_points:
        _fail(
            "oversized-grid",
            f"grid expands into {points} points; this service accepts at "
            f"most {max_grid_points} per submission — split the sweep",
        )

    # Expansion & per-point capability checks ------------------------------ #
    try:
        base = Scenario(
            workload=workload,
            cluster=cluster,
            backend=backend_name,
            knobs=knobs,
            num_iterations=iterations,
            simulation=SimulationConfig(mfu=float(mfu)),
            name=name,
        )
        scenarios = expand_grid(base, grid)
    except ConfigurationError as exc:
        _fail("bad-scenario", str(exc))
    for scenario in scenarios:
        _check_scenario_point(scenario)
    return SweepSpec(scenarios=tuple(scenarios), fork=fork, name=name)
