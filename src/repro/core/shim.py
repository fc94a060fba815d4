"""The Opus shim runtime: interception, profiling, and provisioning.

The shim is the per-job runtime of Fig. 6.  It sits between the application
(the workload DAG being executed) and the collective communication library
(the simulator's transfer model) and:

1. **intercepts** every scale-out collective call and asks the
   :class:`~repro.core.controller.OpusController` for the circuits it needs;
2. during the first iteration, **profiles** the traffic pattern
   (:class:`~repro.core.profiles.TrafficProfiler`);
3. translates the demand into circuit configurations via the
   :class:`~repro.core.circuits.CircuitPlanner` and asks the controller to
   install them — on the critical path during profiling, or
   **speculatively (provisioning)** in later iterations, as soon as the
   previous parallelism phase's traffic finishes (Fig. 5b);
4. keeps the reconfiguration frequency low by requesting the coalesced
   per-axis configuration and only when the upcoming phase's parallelism
   differs from the one currently installed (Objective 2).

One *mode* fixes the shim's behaviour (the Fig. 8 ablation axes):

* ``"profile"`` — profile the first iteration, then provision from it;
* ``"none"`` — profile but never provision (every phase change pays its
  switching delay on demand);
* ``"reactive"`` — no profiling iteration: phase structure is learned online
  and speculation is driven by telemetry (see
  :class:`~repro.core.controller.ReactiveReconfigurator`);
* ``"bare"`` — the bare-OCS baseline: no profiling, no provisioning, and every
  communication group reconfigures for its own circuits instead of its
  axis's coalesced configuration.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Dict, FrozenSet, List, Optional, Tuple

from ..collectives.primitives import CollectiveOp
from ..errors import ConfigurationError, ControlPlaneError
from ..parallelism.groups import GroupRegistry
from ..parallelism.mesh import DeviceMesh
from ..parallelism.trace import ReconfigRecord
from ..topology.ocs import CircuitConfiguration
from ..topology.photonic import PhotonicRailFabric
from .circuits import CircuitPlanner
from .controller import OpusController
from .profiles import PhaseTracker, TrafficProfiler

#: Every shim mode (see the module docstring).
SHIM_MODES = ("profile", "none", "reactive", "bare")


def shim_mode_for_provisioning(provisioning: object) -> str:
    """Validate the ``provisioning`` knob and return the shim mode it selects.

    Booleans keep their historical meaning (``True`` = ``"profile"``,
    ``False`` = ``"none"``); the strings ``"profile"``, ``"none"`` and
    ``"reactive"`` name their mode.  The internal ``"bare"`` mode is not a
    provisioning choice and is rejected like any other unknown value.
    """
    if not isinstance(provisioning, str):
        return "profile" if provisioning else "none"
    if provisioning in ("profile", "none", "reactive"):
        return provisioning
    raise ConfigurationError(
        f"unknown provisioning mode {provisioning!r}; expected a boolean or "
        "one of 'profile', 'none', 'reactive'"
    )


@dataclass
class CircuitGrant:
    """The shim's answer to "when can this collective use the rails?"."""

    ready_time: float
    records: Tuple[ReconfigRecord, ...] = ()


class OpusShim:
    """Per-job Opus shim: the glue between interception and the controller."""

    def __init__(
        self,
        fabric: PhotonicRailFabric,
        mesh: DeviceMesh,
        controller: Optional[OpusController] = None,
        planner: Optional[CircuitPlanner] = None,
        registry: Optional[GroupRegistry] = None,
        mode: str = "profile",
    ) -> None:
        if mode not in SHIM_MODES:
            raise ConfigurationError(
                f"unknown shim mode {mode!r}; expected one of {SHIM_MODES}"
            )
        self.fabric = fabric
        self.mesh = mesh
        self.registry = registry or GroupRegistry(mesh)
        self.controller = controller or OpusController(fabric)
        self.planner = planner or CircuitPlanner(fabric, mesh, self.registry)
        self.mode = mode
        self._profiles = mode in ("profile", "none")
        self._coalesce_axis = mode != "bare"
        self._provisioning = mode == "profile"
        self._reactive = mode == "reactive"
        self.profiler = TrafficProfiler()
        self.tracker = PhaseTracker(self.profiler)
        #: Optional veto on speculative installs: ``guard(rail, config)``
        #: returns False when installing ``config`` on ``rail`` would tear a
        #: circuit that is *currently* carrying traffic.  The analytic models
        #: never need it (the controller's busy times fully describe traffic),
        #: but the flow-level model has circuits whose drain time is unknown
        #: while their flows are still on the wire, so it skips provisioning
        #: against them rather than tearing live circuits.
        self.circuit_guard: Optional[Callable[[int, CircuitConfiguration], bool]] = None
        self._provisioned_records: List[ReconfigRecord] = []
        #: Provisioning budget bookkeeping: speculative reconfigurations issued
        #: per rail in the current iteration.  Capped at the number of phases
        #: the profile learned, so a transient misprediction (caused by large
        #: switching delays re-ordering concurrent groups) cannot degenerate
        #: into a reconfiguration thrash loop.
        self._provisions_this_iteration: Dict[int, int] = {}
        #: Latest provisioned issue time per rail.  Completion notifications
        #: arrive in simulator event order, whose *logical* end times (event
        #: time + path latency) need not be monotone across collectives, while
        #: the controller's FC-FS check requires per-group issue order — so speculative
        #: requests are clamped to never move backwards on a rail.
        self._last_provision_issue: Dict[int, float] = {}
        #: Member set per group tuple: the controller's FC-FS key, built and
        #: hashed once per group instead of once per request.
        self._members: Dict[Tuple[int, ...], FrozenSet[int]] = {}

    # ------------------------------------------------------------------ #
    # Iteration lifecycle
    # ------------------------------------------------------------------ #

    @property
    def profiling(self) -> bool:
        """Whether the shim is still in its profiling iteration."""
        return self._profiles and not self.profiler.frozen

    def start_iteration(self, iteration: int, time: float) -> None:
        """Notify the shim that a new iteration starts."""
        self._provisions_this_iteration.clear()
        if self.profiler.frozen:
            self.tracker.reset()

    def end_iteration(self, iteration: int, time: float) -> None:
        """Notify the shim that an iteration finished."""
        if self.profiling:
            self.profiler.finalize()
            self.tracker.reset()
        if self._reactive and self.controller.reactive is not None:
            # Close the reactive loop's per-iteration books: speculation is
            # judged by the blocking it left versus the on-demand baseline.
            self.controller.reactive.end_iteration()

    # ------------------------------------------------------------------ #
    # Collective interception
    # ------------------------------------------------------------------ #

    def target_for(self, op: CollectiveOp) -> Dict[int, CircuitConfiguration]:
        """The circuits per rail the controller would install to serve ``op``.

        Keyed in ascending rail order.  Exposed so the flow-level model can
        inspect (and guard against live conflicts with) the target before
        committing to a request.
        """
        if self._coalesce_axis:
            return self.planner.target_for_op(op)
        return self.planner.configuration_for_op(op)

    def request_circuits(
        self,
        op: CollectiveOp,
        ready_time: float,
        target: Dict[int, CircuitConfiguration],
    ) -> CircuitGrant:
        """Serve one intercepted scale-out collective call.

        ``target`` is :meth:`target_for` of ``op``.  Returns when the
        circuits it needs are usable, together with every reconfiguration
        record produced on its behalf (including buffered records from
        provisioning decisions taken earlier).
        """
        group = self._members.get(op.group)
        if group is None:
            group = self._members[op.group] = frozenset(op.group)
        records: List[ReconfigRecord] = []
        ready = ready_time
        for rail, configuration in target.items():
            rail_ready, record = self.controller.ensure(
                rail, configuration, ready_time, group, op.parallelism
            )
            ready = max(ready, rail_ready)
            if record is not None:
                exposed = max(0.0, record.end - ready_time)
                records.append(replace(record, blocking=exposed))
                if self._reactive and self.controller.reactive is not None:
                    # Blocking on the critical path is the reactive loop's
                    # primary arming signal: switching demonstrably hurts
                    # this rail, so hiding it is worth speculating for.
                    self.controller.reactive.note_blocking(rail, exposed)

        buffered = self._provisioned_records
        self._provisioned_records = []
        return CircuitGrant(ready_time=ready, records=tuple(buffered + records))

    def notify_transfer(
        self,
        op: CollectiveOp,
        start: float,
        end: float,
        target: Dict[int, CircuitConfiguration],
    ) -> None:
        """Record the executed window of a collective and mark its circuits busy.

        ``target`` is :meth:`target_for` of ``op``.
        """
        if self.profiling:
            _, rails, scaleout = self.mesh.group_placement(op.group)
            if scaleout:
                self.profiler.record_completion(start, op.parallelism, rails)
        for rail, configuration in target.items():
            self.controller.notify_traffic(rail, configuration, end)

    def notify_completion(self, op: CollectiveOp, end_time: float) -> None:
        """Provisioning hook: called when a scale-out collective finishes.

        If the learned profile predicts that the next phase on the rails this
        collective used belongs to a *different* parallelism axis, the shim
        immediately issues a speculative (provisioned) reconfiguration so the
        switching delay overlaps with the upcoming idle window.

        In reactive mode the same decision point runs against the
        telemetry-driven online model instead of the profile: the learned
        phase structure comes from the completion stream itself, and the
        rail must additionally be *armed* by blocking or hotspot evidence.
        """
        axis = op.parallelism
        if not axis:
            return
        _, rails, scaleout = self.mesh.group_placement(op.group)
        if not scaleout:
            return
        if self._reactive and self.controller.reactive is not None:
            reactive = self.controller.reactive
            for rail in rails:
                predicted = reactive.observe_completion(rail, axis, end_time)
                if predicted is None or predicted == axis:
                    continue
                if not reactive.armed(rail):
                    # No blocking or hotspot evidence yet: switching is not
                    # demonstrably hurting this rail, so do not speculate.
                    continue
                if not reactive.should_speculate(rail):
                    # The iteration-level control says speculation has been
                    # leaving more blocking than on-demand switching alone:
                    # stay quiet rather than thrash below the
                    # no-provisioning baseline.
                    continue
                if (
                    self._provisions_this_iteration.get(rail, 0)
                    >= reactive.budget(rail)
                ):
                    continue
                if self._speculate(rail, predicted, end_time):
                    reactive.note_speculation(rail, predicted)
            return
        if not self._provisioning or not self.profiler.frozen:
            return
        for rail in rails:
            try:
                self.tracker.observe(rail, axis)
            except ControlPlaneError:
                continue
            if not self.tracker.current_phase_complete(rail):
                # The phase still has collectives that need its circuits;
                # reconfiguring now would disrupt them (Objective 3).
                continue
            predicted = self.tracker.predicted_next_axis(rail)
            if predicted is None or predicted == axis:
                continue
            budget = len(self.profiler.profile(rail).phases)
            if self._provisions_this_iteration.get(rail, 0) >= budget:
                # Mispredictions (possible when very large switching delays
                # re-order concurrent groups relative to the profiling
                # iteration) must not turn into a reconfiguration thrash loop:
                # never issue more speculative reconfigurations per iteration
                # than the profile has phases.
                continue
            self._speculate(rail, predicted, end_time)

    def _speculate(self, rail: int, predicted: str, end_time: float) -> bool:
        """Issue one speculative (provisioned) reconfiguration on ``rail``.

        Shared by the profile-driven and reactive paths: planner lookup,
        live-circuit guard, the monotonic issue-time clamp, and record
        buffering are identical — only the predictor differs.  Returns
        whether a request was actually issued (guarded-off speculations
        must not enter the reactive scorecard).
        """
        axis_config = self.planner.axis_configuration(predicted)
        if axis_config is None or rail not in axis_config:
            return False
        if self.circuit_guard is not None and not self.circuit_guard(
            rail, axis_config[rail]
        ):
            # Installing the predicted axis would tear a circuit whose
            # flows are still on the wire (drain time unknown at flow
            # level).  Skip the speculation; the collective that actually
            # needs the circuits will request them on demand.
            return False
        issue_time = max(end_time, self._last_provision_issue.get(rail, 0.0))
        self._last_provision_issue[rail] = issue_time
        _, record = self.controller.ensure(
            rail,
            axis_config[rail],
            issue_time,
            frozenset({-(rail + 1)}),
            predicted,
            provisioned=True,
        )
        self._provisions_this_iteration[rail] = (
            self._provisions_this_iteration.get(rail, 0) + 1
        )
        if record is not None:
            self._provisioned_records.append(record)
        return True
