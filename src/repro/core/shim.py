"""The Opus shim runtime: interception, profiling, and provisioning.

The shim is the per-job runtime of Fig. 6.  It sits between the application
(the workload DAG being executed) and the collective communication library
(the simulator's transfer model) and:

1. **intercepts** every collective call, turning it into a
   :class:`~repro.core.intents.CommIntent`;
2. during the first iteration, **profiles** the traffic pattern
   (:class:`~repro.core.profiles.TrafficProfiler`);
3. translates the demand into circuit configurations via the
   :class:`~repro.core.circuits.CircuitPlanner` and asks the
   :class:`~repro.core.controller.OpusController` to install them —
   on the critical path during profiling, or **speculatively (provisioning)**
   in later iterations, as soon as the previous parallelism phase's traffic
   finishes (Fig. 5b);
4. keeps the reconfiguration frequency low by requesting the coalesced
   per-axis configuration and only when the upcoming phase's parallelism
   differs from the one currently installed (Objective 2).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Dict, List, Optional, Tuple

from ..collectives.primitives import CollectiveOp
from ..errors import ConfigurationError, ControlPlaneError
from ..parallelism.groups import GroupRegistry
from ..parallelism.mesh import DeviceMesh
from ..parallelism.trace import ReconfigRecord
from ..topology.ocs import CircuitConfiguration
from ..topology.photonic import PhotonicRailFabric
from .circuits import CircuitPlanner, RailConfiguration
from .controller import OpusController
from .intents import intent_from_collective
from .profiles import PhaseTracker, TrafficProfiler
from .scheduler import ReconfigurationRequest


@dataclass
class ShimOptions:
    """Behavioural switches of the shim (the Fig. 8 ablation axes)."""

    #: Enable speculative provisioning after the profiling iteration.
    provisioning: bool = True
    #: Treat iteration 0 as the profiling iteration (reconfigure on demand,
    #: learn the phase sequence).  When False the shim never profiles and
    #: always reconfigures on demand.
    profile_first_iteration: bool = True
    #: Reconfigure at per-axis granularity (coalesced) when possible.  When
    #: False every communication group gets its own reconfiguration — the
    #: "reconfigure per collective group" ablation.
    coalesce_axis: bool = True
    #: Drive speculative reconfiguration from live telemetry instead of an
    #: a-priori profile: phase structure is learned online from the
    #: completion stream, and speculation only starts once blocking or
    #: hotspot evidence has accumulated (see
    #: :class:`~repro.core.controller.ReactiveReconfigurator`).  Usually
    #: paired with ``provisioning=False`` and ``profile_first_iteration=False``
    #: — the whole point is needing no profiling iteration.
    reactive: bool = False


def shim_options_for_provisioning(provisioning: object) -> ShimOptions:
    """Map the ``provisioning`` knob onto shim options.

    Booleans keep their historical meaning (``True`` = profile-driven
    speculative provisioning, ``False`` = profile but reconfigure on
    demand); the string values spell the full mode space out:

    * ``"profile"`` — profile the first iteration, then provision from it;
    * ``"none"`` — profile but never provision (every phase change pays its
      switching delay on demand);
    * ``"reactive"`` — no profiling iteration at all: phase structure is
      learned online and speculation is driven by telemetry (blocking +
      hotspot evidence).
    """
    if not isinstance(provisioning, str):
        return ShimOptions(provisioning=bool(provisioning))
    if provisioning == "profile":
        return ShimOptions(provisioning=True)
    if provisioning == "none":
        return ShimOptions(provisioning=False)
    if provisioning == "reactive":
        return ShimOptions(
            provisioning=False,
            profile_first_iteration=False,
            reactive=True,
        )
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
        options: Optional[ShimOptions] = None,
    ) -> None:
        self.fabric = fabric
        self.mesh = mesh
        self.registry = registry or GroupRegistry(mesh)
        self.controller = controller or OpusController(fabric)
        self.planner = planner or CircuitPlanner(fabric, mesh, self.registry)
        self.options = options or ShimOptions()
        self.profiler = TrafficProfiler(mesh)
        self.tracker = PhaseTracker(self.profiler)
        #: Optional veto on speculative installs: ``guard(rail, config)``
        #: returns False when installing ``config`` on ``rail`` would tear a
        #: circuit that is *currently* carrying traffic.  The analytic models
        #: never need it (the controller's busy times fully describe traffic),
        #: but the flow-level model has circuits whose drain time is unknown
        #: while their flows are still on the wire, so it skips provisioning
        #: against them rather than tearing live circuits.
        self.circuit_guard: Optional[Callable[[int, CircuitConfiguration], bool]] = None
        self._iteration = 0
        self._provisioned_records: List[ReconfigRecord] = []
        #: Number of provisioning requests issued (for reporting/tests).
        self.provision_requests = 0
        #: Provisioning budget bookkeeping: speculative reconfigurations issued
        #: per rail in the current iteration.  Capped at the number of phases
        #: the profile learned, so a transient misprediction (caused by large
        #: switching delays re-ordering concurrent groups) cannot degenerate
        #: into a reconfiguration thrash loop.
        self._provisions_this_iteration: Dict[int, int] = {}
        #: Latest provisioned issue time per rail.  Completion notifications
        #: arrive in simulator event order, whose *logical* end times (event
        #: time + path latency) need not be monotone across collectives, while
        #: the FC-FS scheduler requires per-group issue order — so speculative
        #: requests are clamped to never move backwards on a rail.
        self._last_provision_issue: Dict[int, float] = {}

    # ------------------------------------------------------------------ #
    # Iteration lifecycle
    # ------------------------------------------------------------------ #

    @property
    def iteration(self) -> int:
        """Index of the iteration currently executing."""
        return self._iteration

    @property
    def profiling(self) -> bool:
        """Whether the shim is still in its profiling iteration."""
        return self.options.profile_first_iteration and not self.profiler.frozen

    def start_iteration(self, iteration: int, time: float) -> None:
        """Notify the shim that a new iteration starts."""
        self._iteration = iteration
        self._provisions_this_iteration.clear()
        if self.profiler.frozen:
            self.tracker.reset()

    def end_iteration(self, iteration: int, time: float) -> None:
        """Notify the shim that an iteration finished."""
        if self.options.profile_first_iteration and not self.profiler.frozen:
            self.profiler.finalize()
            self.tracker.reset()
        if self.options.reactive and self.controller.reactive is not None:
            # Close the reactive loop's per-iteration books: speculation is
            # judged by the blocking it left versus the on-demand baseline.
            self.controller.reactive.end_iteration()

    # ------------------------------------------------------------------ #
    # Collective interception
    # ------------------------------------------------------------------ #

    def target_for(self, op: CollectiveOp) -> RailConfiguration:
        """The circuit configuration the controller would install to serve ``op``.

        Exposed so the flow-level model can inspect (and guard against live
        conflicts with) the target before committing to a request.
        """
        if self.options.coalesce_axis:
            return self.planner.target_for_op(op)
        return self.planner.configuration_for_op(op)

    def request_circuits(self, op: CollectiveOp, ready_time: float) -> CircuitGrant:
        """Serve one intercepted scale-out collective call.

        Returns when the circuits it needs are usable, together with every
        reconfiguration record produced on its behalf (including buffered
        records from provisioning decisions taken earlier).
        """
        intent = intent_from_collective(op, self.mesh, issued_at=ready_time)
        target = self.target_for(op)
        records: List[ReconfigRecord] = []
        ready = ready_time
        for rail in target.rails():
            configuration = target.configuration(rail)
            request = ReconfigurationRequest.create(
                group_key=intent.group_key,
                axis=op.parallelism,
                rails=(rail,),
                issue_time=ready_time,
                provisioned=False,
            )
            rail_ready, record = self.controller.ensure(rail, configuration, request)
            ready = max(ready, rail_ready)
            if record is not None:
                exposed = max(0.0, record.end - ready_time)
                records.append(replace(record, blocking=exposed))
                if self.options.reactive and self.controller.reactive is not None:
                    # Blocking on the critical path is the reactive loop's
                    # primary arming signal: switching demonstrably hurts
                    # this rail, so hiding it is worth speculating for.
                    self.controller.reactive.note_blocking(rail, exposed)

        buffered = self._provisioned_records
        self._provisioned_records = []
        return CircuitGrant(ready_time=ready, records=tuple(buffered + records))

    def notify_transfer(self, op: CollectiveOp, start: float, end: float) -> None:
        """Record the executed window of a collective and mark circuits busy."""
        if self.profiling:
            intent = intent_from_collective(op, self.mesh, issued_at=start)
            self.profiler.record_completion(intent, start, end)
        target = self.target_for(op)
        for rail in target.rails():
            circuits = target.configuration(rail).circuits
            installed = self.controller.installed_configuration(rail).circuits
            self.controller.notify_traffic(rail, circuits & installed, end)

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
        if self.options.reactive and self.controller.reactive is not None:
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
        if not self.options.provisioning or not self.profiler.frozen:
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
        request = ReconfigurationRequest.create(
            group_key=frozenset({-(rail + 1)}),
            axis=predicted,
            rails=(rail,),
            issue_time=issue_time,
            provisioned=True,
        )
        _, record = self.controller.ensure(rail, axis_config[rail], request)
        self.provision_requests += 1
        self._provisions_this_iteration[rail] = (
            self._provisions_this_iteration.get(rail, 0) + 1
        )
        if record is not None:
            self._provisioned_records.append(record)
        return True
