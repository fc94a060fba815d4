"""Exception hierarchy for the photonic-rails reproduction.

All library-specific errors derive from :class:`ReproError` so applications can
catch a single base class.  Sub-classes are grouped by subsystem (configuration,
topology, circuits, simulation, control plane) so tests and callers can assert
on the precise failure mode.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every error raised by the ``repro`` library."""


class ConfigurationError(ReproError):
    """An invalid model, parallelism, or cluster configuration was supplied."""


class TopologyError(ReproError):
    """A topology is malformed or an operation referenced a missing element."""


class CircuitError(ReproError):
    """An optical circuit operation violated OCS constraints.

    Raised for example when two circuits are requested on the same OCS port,
    when a circuit references ports outside the switch radix, or when a
    tear-down targets a circuit that is not installed.
    """


class CircuitConflictError(CircuitError):
    """A requested circuit configuration conflicts with installed circuits."""


class SchedulingError(ReproError):
    """The Opus controller was asked to violate its scheduling invariants.

    Example: :meth:`~repro.core.controller.OpusController.ensure` receiving a
    communication group's requests out of FC-FS issue order.
    """


class SimulationError(ReproError):
    """The discrete-event simulator reached an inconsistent state."""


class DeadlockError(SimulationError):
    """The executor detected that no runnable operation remains while
    unfinished operations still exist (a dependency cycle or an impossible
    communication pattern)."""


class FaultError(SimulationError):
    """A fault-injection event could not be applied.

    Raised when a :class:`~repro.simulator.faults.FaultPlan` event matches
    nothing (a typo'd node pattern), targets a component the backend cannot
    fault, or leaves the fabric in a state no healthy assignment can serve
    (e.g. a ring that needs two NIC ports on a domain with one healthy OCS
    port left).
    """


class LinkFailedError(SimulationError):
    """A flow's path crosses a link that failed mid-simulation.

    Carries the affected flow id and link key so policies and tests can react
    to the precise casualty instead of parsing the message.  Raised by the
    flow simulator when a fault (or a circuit tear-down) kills a link under a
    pending or in-flight flow and the failure policy is ``"fail"`` — or when
    the ``"reroute"`` policy finds no surviving path.
    """

    def __init__(
        self,
        message: str,
        flow_id: "int | None" = None,
        link_key: "tuple | None" = None,
    ) -> None:
        super().__init__(message)
        self.flow_id = flow_id
        self.link_key = link_key


class SnapshotError(SimulationError):
    """Simulation state could not be captured or restored.

    Raised when a snapshot would contain a non-serializable callback (a
    lambda or unregistered closure — forking those would silently keep
    mutating the original simulation), when a checkpoint file has the wrong
    format or version, or when a restore targets an incompatible object.
    """


class StoreError(ReproError):
    """A persistent result-store entry could not be read or written.

    Raised when an on-disk envelope is not a repro-sim result at all, was
    written by an incompatible store format version, does not match the
    content hash it is filed under, or when a requested hash is malformed.
    Absent entries are *not* errors — lookups return ``None`` for those.
    """


class SpecValidationError(ReproError):
    """A submitted experiment spec was rejected at the service door.

    Carries a stable machine-readable ``code`` (``"malformed-json"``,
    ``"unknown-backend"``, ``"capability-violation"``, ``"oversized-grid"``,
    ...) next to the human-readable message, so HTTP clients and the
    quarantine log can track rejection reasons without parsing prose.
    """

    def __init__(self, code: str, message: str) -> None:
        super().__init__(message)
        self.code = code


class ScenarioError(ReproError):
    """A scenario failed to simulate.

    Raised by the experiment runner with the failing scenario's name attached,
    so that one bad point in a parallel sweep is attributable instead of
    surfacing as a bare traceback from a worker process.
    """


class ControlPlaneError(ReproError):
    """An Opus control-plane component received an invalid request."""


class ProfileError(ControlPlaneError):
    """The traffic profiler was queried for a pattern it has not learned."""
