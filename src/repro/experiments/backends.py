"""Registry of fabric backends: every network technology behind one interface.

A *backend* adapts one scale-out fabric into the
:class:`~repro.simulator.network.NetworkModel` interface the DAG executor
consumes, so the same workload can be simulated end-to-end on any fabric by
name.  The registry ships with six backends:

========== ==================================================================
``photonic``   photonic rails driven by the Opus control plane (the paper's
               proposal; knobs: ``reconfiguration_delay``, ``provisioning``
               — a bool, or ``"profile"``/``"none"``/``"reactive"`` where
               ``"reactive"`` drives reconfiguration from live telemetry —
               ``technology``, ``network_mode``, ``faults``)
``electrical`` fully-connected electrical rails, the Fig. 8 baseline
               (knobs: ``use_tree_collectives``, ``network_mode``,
               ``routing_policy``, ``faults``)
``ideal``      zero-cost network — the communication-free lower bound
               (knobs: ``faults``)
``fattree``    transfers routed through the k-ary fat-tree graph (knobs:
               ``network_mode``, ``oversubscription``, ``routing_policy``,
               ``faults``)
``railopt``    transfers routed through the leaf/spine rail-optimized graph
               (knobs: ``always_spine``, ``network_mode``,
               ``routing_policy``, ``faults``)
``ocs``        bare OCS rails without Opus: every circuit-schedule change
               blocks for the switching delay (knobs:
               ``reconfiguration_delay``, ``technology``, ``network_mode``,
               ``faults``)
========== ==================================================================

Every backend except ``ideal`` accepts a ``network_mode`` knob selecting how
collectives are timed: ``"analytic"`` (default) prices each collective
independently with the alpha–beta cost model, while ``"flow"`` expands
scale-out collectives into point-to-point transfers simulated with max–min
fair sharing (:class:`~repro.simulator.flow_network.FlowNetworkModel`), so
concurrent collectives contend for shared fabric links.  On the
circuit-switched backends (``photonic``, ``ocs``) flow mode additionally
makes topology change a time-domain event: collectives gate on the Opus
controller's switching events, routes resolve over whatever circuits are
installed when the flows start, and real flow drains feed the controller's
busy-circuit bookkeeping
(:class:`~repro.simulator.flow_network.PhotonicFlowNetworkModel`).

The packet-routed backends (``electrical``, ``fattree``, ``railopt``)
additionally accept a ``routing_policy`` knob in flow mode — ``"single"``
(default, today's one-path routing), ``"ecmp"`` (deterministic per-flow
hashing over every equal-cost path), ``"adaptive"`` (least-congested
equal-cost path at flow start), or ``"spray"`` (split each transfer across
equal-cost paths as sub-flows); see :mod:`repro.simulator.routing`.

Every backend additionally accepts a ``faults`` knob — a
:class:`~repro.simulator.faults.FaultPlan` (or its dict/list JSON form) of
timed fabric faults: link failure/recovery, bandwidth degradation, OCS port
failure, per-device compute slowdown.  Each backend/mode combination
validates that it can apply the plan's event kinds (link events need a
routed topology, port failures a circuit control plane; compute slowdowns
work everywhere).

Third parties register additional fabrics with the :func:`backend` decorator
(or :func:`register_backend`); the experiment runner and the ``repro-sim`` CLI
pick them up automatically.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from ..errors import ConfigurationError
from ..parallelism.groups import GroupRegistry
from ..parallelism.mesh import DeviceMesh
from ..simulator.faults import (
    LINK_FAULT_KINDS,
    FaultKind,
    as_fault_plan,
)
from ..simulator.fabric_network import (
    FatTreeNetworkModel,
    OCSReconfigurableNetworkModel,
    RailOptimizedNetworkModel,
)
from ..simulator.flow_network import (
    bare_ocs_flow_network,
    electrical_flow_network,
    fat_tree_flow_network,
    photonic_flow_network,
    rail_optimized_flow_network,
    shim_options_for_provisioning,
)
from ..simulator.routing import ROUTING_POLICIES
from ..simulator.network import (
    ElectricalRailNetworkModel,
    IdealNetworkModel,
    NetworkModel,
)
from ..topology.devices import ClusterSpec, OCSTechnology

#: A backend factory builds a network model for one (cluster, mesh) pair.
BackendFactory = Callable[..., NetworkModel]


@dataclass(frozen=True)
class FabricBackend:
    """One registered fabric: a named, knob-validated network-model factory."""

    name: str
    description: str
    factory: BackendFactory = field(repr=False)
    #: Names of the keyword knobs the factory accepts (beyond cluster/mesh).
    knobs: Tuple[str, ...] = ()

    def create(
        self,
        cluster: ClusterSpec,
        mesh: DeviceMesh,
        registry: Optional[GroupRegistry] = None,
        **knobs: object,
    ) -> NetworkModel:
        """Instantiate the network model, rejecting knobs the backend lacks."""
        unknown = sorted(set(knobs) - set(self.knobs))
        if unknown:
            raise ConfigurationError(
                f"backend {self.name!r} does not accept knobs {unknown}; "
                f"accepted: {sorted(self.knobs)}"
            )
        return self.factory(cluster, mesh, registry=registry, **knobs)


_REGISTRY: Dict[str, FabricBackend] = {}


def register_backend(spec: FabricBackend, replace: bool = False) -> FabricBackend:
    """Add a backend to the registry; re-registering a name raises unless ``replace``."""
    if spec.name in _REGISTRY and not replace:
        raise ConfigurationError(f"backend {spec.name!r} is already registered")
    _REGISTRY[spec.name] = spec
    return spec


def backend(
    name: str, description: str, knobs: Tuple[str, ...] = ()
) -> Callable[[BackendFactory], BackendFactory]:
    """Decorator form of :func:`register_backend` for factory functions."""

    def wrap(factory: BackendFactory) -> BackendFactory:
        register_backend(
            FabricBackend(
                name=name, description=description, factory=factory, knobs=tuple(knobs)
            )
        )
        return factory

    return wrap


def get_backend(name: str) -> FabricBackend:
    """Return the backend registered under ``name``."""
    if name not in _REGISTRY:
        raise ConfigurationError(
            f"unknown backend {name!r}; registered: {available_backends()}"
        )
    return _REGISTRY[name]


def available_backends() -> List[str]:
    """Sorted names of every registered backend."""
    return sorted(_REGISTRY)


def all_backends() -> List[FabricBackend]:
    """Every registered backend, sorted by name."""
    return [_REGISTRY[name] for name in available_backends()]


def create_network(
    name: str,
    cluster: ClusterSpec,
    mesh: DeviceMesh,
    registry: Optional[GroupRegistry] = None,
    **knobs: object,
) -> NetworkModel:
    """Build the network model of backend ``name`` for one simulation."""
    return get_backend(name).create(cluster, mesh, registry=registry, **knobs)


# --------------------------------------------------------------------------- #
# Built-in backends
# --------------------------------------------------------------------------- #

#: Values accepted by the ``network_mode`` knob.
NETWORK_MODES = ("analytic", "flow")


def _check_network_mode(network_mode: object) -> str:
    mode = "analytic" if network_mode is None else network_mode
    if mode not in NETWORK_MODES:
        raise ConfigurationError(
            f"network_mode must be one of {NETWORK_MODES}, got {network_mode!r}"
        )
    return str(mode)


def _routing_policy_knob(mode: str, backend: str, routing_policy: object) -> str:
    """Validate the ``routing_policy`` knob for one backend instantiation.

    Routing policies select paths per flow, so they only exist in flow mode —
    the analytic models never route individual transfers.  A non-default
    policy under ``analytic`` is a configuration error rather than a silent
    no-op.
    """
    policy = "single" if routing_policy is None else str(routing_policy)
    if policy not in ROUTING_POLICIES:
        raise ConfigurationError(
            f"routing_policy must be one of {ROUTING_POLICIES}, got "
            f"{routing_policy!r}"
        )
    if mode != "flow" and policy != "single":
        raise ConfigurationError(
            f"routing_policy={policy!r} only applies to network_mode='flow'; "
            f"backend {backend!r} is in {mode} mode"
        )
    return policy


# Fault kinds each backend/mode combination can apply through its ``faults``
# knob.  Compute slowdowns work everywhere (the executor applies them); link
# events need a routed topology; OCS port failures need a circuit control
# plane.
_COMPUTE_FAULTS = frozenset({FaultKind.COMPUTE_SLOWDOWN})
_LINK_FAULTS = _COMPUTE_FAULTS | LINK_FAULT_KINDS
_CIRCUIT_FLOW_FAULTS = _LINK_FAULTS | {FaultKind.OCS_PORT_FAIL}
_CIRCUIT_ANALYTIC_FAULTS = _COMPUTE_FAULTS | {FaultKind.OCS_PORT_FAIL}

#: (backend, network_mode) -> fault kinds that combination can apply.
_FAULT_SUPPORT: Dict[Tuple[str, str], frozenset] = {
    ("photonic", "flow"): _CIRCUIT_FLOW_FAULTS,
    ("photonic", "analytic"): _CIRCUIT_ANALYTIC_FAULTS,
    ("electrical", "flow"): _LINK_FAULTS,
    ("electrical", "analytic"): _COMPUTE_FAULTS,
    ("ideal", "analytic"): _COMPUTE_FAULTS,
    ("fattree", "flow"): _LINK_FAULTS,
    ("fattree", "analytic"): _LINK_FAULTS,
    ("railopt", "flow"): _LINK_FAULTS,
    ("railopt", "analytic"): _LINK_FAULTS,
    ("ocs", "flow"): _CIRCUIT_FLOW_FAULTS,
    ("ocs", "analytic"): _CIRCUIT_ANALYTIC_FAULTS,
}


def fault_support(
    backend_name: str, network_mode: object = None
) -> Optional[frozenset]:
    """Fault kinds backend ``backend_name`` supports in ``network_mode``.

    Mirrors the ``supported`` sets the built-in factories pass to their
    ``faults``-knob validation, so callers extending a *live* model's fault
    plan (fork-sweeps; see :meth:`repro.experiments.session.SimulationSession.
    extend_faults`) can reject unsupported event kinds with the same error as
    an up-front ``faults=`` knob would.  Returns ``None`` for third-party
    backends the table does not know, leaving validation to the model itself.
    """
    mode = "analytic" if network_mode is None else str(network_mode)
    return _FAULT_SUPPORT.get((str(backend_name), mode))


def _install_faults(
    model: NetworkModel,
    faults: object,
    supported: frozenset,
    backend: str,
    mode: str,
) -> NetworkModel:
    """Validate and bind a ``faults=`` knob value onto a fresh model."""
    if faults is None:
        return model
    plan = as_fault_plan(faults)
    if plan.is_empty:
        # A zero-event plan is *exactly* no plan: binding an injector anyway
        # would still flip flow-mode behavior (failure policy, the rewind
        # guard) and break the documented bit-for-bit equivalence.
        return model
    plan.require_supported(
        supported, context=f"backend {backend!r} in {mode} network mode"
    )
    model.install_fault_plan(plan)
    return model


@backend(
    "photonic",
    "Photonic rails driven by the Opus control plane (the paper's proposal)",
    knobs=(
        "reconfiguration_delay",
        "provisioning",
        "technology",
        "network_mode",
        "faults",
    ),
)
def _photonic_backend(
    cluster: ClusterSpec,
    mesh: DeviceMesh,
    registry: Optional[GroupRegistry] = None,
    reconfiguration_delay: Optional[float] = None,
    provisioning: object = True,
    technology: Optional[OCSTechnology] = None,
    network_mode: Optional[str] = None,
    faults: object = None,
) -> NetworkModel:
    mode = _check_network_mode(network_mode)
    # Validate the provisioning knob (bool, or "profile"/"none"/"reactive")
    # up front so both modes reject bad values with the same error.
    shim_options = shim_options_for_provisioning(provisioning)
    if mode == "flow":
        return _install_faults(
            photonic_flow_network(
                cluster,
                mesh,
                reconfiguration_delay=reconfiguration_delay,
                provisioning=provisioning,
                technology=technology,
                registry=registry,
            ),
            faults,
            _CIRCUIT_FLOW_FAULTS,
            "photonic",
            "flow",
        )
    if shim_options.reactive:
        raise ConfigurationError(
            "provisioning='reactive' needs the telemetry loop of "
            "network_mode='flow'; the analytic photonic model has no "
            "link-load counters to sample"
        )
    # Imported lazily: repro.core imports this module back through
    # repro.core.system, so a module-level import would be circular.
    from ..core.network import PhotonicRailNetworkModel
    from ..topology.photonic import build_photonic_rail_fabric

    fabric = build_photonic_rail_fabric(cluster, technology=technology)
    return _install_faults(
        PhotonicRailNetworkModel(
            cluster=cluster,
            mesh=mesh,
            fabric=fabric,
            reconfiguration_delay=reconfiguration_delay,
            shim_options=shim_options,
            registry=registry,
        ),
        faults,
        _CIRCUIT_ANALYTIC_FAULTS,
        "photonic",
        "analytic",
    )


@backend(
    "electrical",
    "Fully-connected electrical rails (the Fig. 8 baseline)",
    knobs=("use_tree_collectives", "network_mode", "routing_policy", "faults"),
)
def _electrical_backend(
    cluster: ClusterSpec,
    mesh: DeviceMesh,
    registry: Optional[GroupRegistry] = None,
    use_tree_collectives: bool = False,
    network_mode: Optional[str] = None,
    routing_policy: object = None,
    faults: object = None,
) -> NetworkModel:
    mode = _check_network_mode(network_mode)
    policy = _routing_policy_knob(mode, "electrical", routing_policy)
    if mode == "flow":
        if use_tree_collectives:
            raise ConfigurationError(
                "network_mode='flow' expands ring algorithms only; "
                "use_tree_collectives is not supported in flow mode"
            )
        return _install_faults(
            electrical_flow_network(cluster, mesh, routing_policy=policy),
            faults,
            _LINK_FAULTS,
            "electrical",
            "flow",
        )
    return _install_faults(
        ElectricalRailNetworkModel(
            cluster, mesh, use_tree_collectives=bool(use_tree_collectives)
        ),
        faults,
        _COMPUTE_FAULTS,
        "electrical",
        "analytic",
    )


@backend(
    "ideal",
    "Zero-cost network: the communication-free lower bound",
    knobs=("faults",),
)
def _ideal_backend(
    cluster: ClusterSpec,
    mesh: DeviceMesh,
    registry: Optional[GroupRegistry] = None,
    faults: object = None,
) -> NetworkModel:
    return _install_faults(
        IdealNetworkModel(cluster, mesh), faults, _COMPUTE_FAULTS, "ideal", "analytic"
    )


@backend(
    "fattree",
    "Packet transfers routed through the k-ary fat-tree graph",
    knobs=("network_mode", "oversubscription", "routing_policy", "faults"),
)
def _fattree_backend(
    cluster: ClusterSpec,
    mesh: DeviceMesh,
    registry: Optional[GroupRegistry] = None,
    network_mode: Optional[str] = None,
    oversubscription: float = 1.0,
    routing_policy: object = None,
    faults: object = None,
) -> NetworkModel:
    oversubscription = float(oversubscription)
    mode = _check_network_mode(network_mode)
    policy = _routing_policy_knob(mode, "fattree", routing_policy)
    if mode == "flow":
        model: NetworkModel = fat_tree_flow_network(
            cluster,
            mesh,
            oversubscription=oversubscription,
            routing_policy=policy,
        )
        return _install_faults(model, faults, _LINK_FAULTS, "fattree", "flow")
    model = FatTreeNetworkModel(cluster, mesh, oversubscription=oversubscription)
    return _install_faults(model, faults, _LINK_FAULTS, "fattree", "analytic")


@backend(
    "railopt",
    "Packet transfers routed through the leaf/spine rail-optimized graph",
    knobs=("always_spine", "network_mode", "routing_policy", "faults"),
)
def _railopt_backend(
    cluster: ClusterSpec,
    mesh: DeviceMesh,
    registry: Optional[GroupRegistry] = None,
    always_spine: bool = True,
    network_mode: Optional[str] = None,
    routing_policy: object = None,
    faults: object = None,
) -> NetworkModel:
    mode = _check_network_mode(network_mode)
    policy = _routing_policy_knob(mode, "railopt", routing_policy)
    if mode == "flow":
        model: NetworkModel = rail_optimized_flow_network(
            cluster,
            mesh,
            always_spine=bool(always_spine),
            routing_policy=policy,
        )
        return _install_faults(model, faults, _LINK_FAULTS, "railopt", "flow")
    model = RailOptimizedNetworkModel(cluster, mesh, always_spine=bool(always_spine))
    return _install_faults(model, faults, _LINK_FAULTS, "railopt", "analytic")


@backend(
    "ocs",
    "Bare OCS rails without Opus: schedule changes block for the switch time",
    knobs=("reconfiguration_delay", "technology", "network_mode", "faults"),
)
def _ocs_backend(
    cluster: ClusterSpec,
    mesh: DeviceMesh,
    registry: Optional[GroupRegistry] = None,
    reconfiguration_delay: Optional[float] = None,
    technology: Optional[OCSTechnology] = None,
    network_mode: Optional[str] = None,
    faults: object = None,
) -> NetworkModel:
    mode = _check_network_mode(network_mode)
    if mode == "flow":
        return _install_faults(
            bare_ocs_flow_network(
                cluster,
                mesh,
                reconfiguration_delay=reconfiguration_delay,
                technology=technology,
                registry=registry,
            ),
            faults,
            _CIRCUIT_FLOW_FAULTS,
            "ocs",
            "flow",
        )
    return _install_faults(
        OCSReconfigurableNetworkModel(
            cluster,
            mesh,
            reconfiguration_delay=reconfiguration_delay,
            technology=technology,
        ),
        faults,
        _CIRCUIT_ANALYTIC_FAULTS,
        "ocs",
        "analytic",
    )
