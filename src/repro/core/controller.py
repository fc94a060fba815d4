"""The Opus controller: per-rail reconfiguration decisions and timing.

The controller is the component of Fig. 6 that "orchestrates each rail's
OCSes to perform reconfiguration upon receiving requests".  Which circuits a
rail carries is recorded once, by the fabric's
:class:`~repro.topology.photonic.PhotonicRail`; the controller decides what to
tear and install, applies that delta through the fabric, and owns the timing,
per rail:

* the time each installed circuit becomes usable (a circuit installed by a
  switching event is usable when the event finishes);
* the time each installed circuit is busy carrying traffic (a reconfiguration
  that would tear a busy circuit waits for it to drain — Objective 3),
  marked per configuration and applied to the circuits when the rail's
  ledger next changes;
* the serialization of switching events on the rail's OCS.

Its single entry point, :meth:`OpusController.ensure`, answers: *given that a
communication group needs this circuit configuration on this rail, and the
request was issued at time t, when will the circuits be usable?* — creating a
switching event if needed.  The same method serves on-demand requests
(issued when the collective is ready to run) and provisioned requests (issued
speculatively as soon as the previous phase's traffic finished), which is how
provisioning hides the switching delay inside the inter-phase window (Fig. 5).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from numbers import Real
from typing import Container, Dict, FrozenSet, Iterable, Optional, Set, Tuple

from ..errors import (
    ConfigurationError,
    ControlPlaneError,
    FaultError,
    SchedulingError,
)
from ..parallelism.trace import ReconfigRecord
from ..topology.ocs import Circuit, CircuitConfiguration
from ..topology.photonic import PhotonicRailFabric


@dataclass
class RailCircuitState:
    """Switching timing for one rail.

    The rail's :class:`~repro.topology.photonic.PhotonicRail` records which
    circuits are installed; this keeps only when they are usable and busy.
    """

    rail: int
    #: Time each installed circuit becomes usable.
    usable_at: Dict[Circuit, float] = field(default_factory=dict)
    #: Time until which each installed circuit is busy carrying traffic, as
    #: of the rail's last ledger change: traffic marked since then waits in
    #: :attr:`pending` (:meth:`OpusController.rail_state` applies it).
    busy_until: Dict[Circuit, float] = field(default_factory=dict)
    #: Latest traffic end per configuration marked since the last ledger
    #: change.  The installed circuits stay the same until that change, so
    #: applying a mark then equals applying it per circuit when it was made.
    pending: Dict[CircuitConfiguration, float] = field(default_factory=dict)
    #: Time the rail's OCS finishes its latest switching event.
    switch_free_at: float = 0.0
    #: Number of switching events performed on this rail.
    reconfigurations: int = 0

    def apply_pending(self, installed: Container[Circuit]) -> None:
        """Apply the pending traffic marks to the ``installed`` circuits."""
        busy = self.busy_until
        for configuration, end in self.pending.items():
            for circuit in configuration.circuits:
                if circuit in installed:
                    busy[circuit] = max(busy.get(circuit, 0.0), end)
        self.pending.clear()

    def forget(self, circuit: Circuit) -> None:
        """Drop the timing of a torn circuit."""
        self.usable_at.pop(circuit, None)
        self.busy_until.pop(circuit, None)

    def drain_time(self, circuits: Iterable[Circuit]) -> float:
        """Latest time any of ``circuits`` is still carrying traffic.

        This is the earliest instant a reconfiguration tearing them down may
        start (Objective 3).  Circuits without recorded traffic drain at 0.
        """
        return max(
            (self.busy_until.get(circuit, 0.0) for circuit in circuits),
            default=0.0,
        )


class ReactiveReconfigurator:
    """Telemetry-driven reconfiguration state: hotspots and phases, learned live.

    The profile-driven provisioning path knows the phase sequence a priori
    (it ran a profiling iteration).  The reactive path learns the same two
    facts *online*, from the completion stream and the telemetry feed,
    without any profiling iteration:

    * **phase structure** — per rail, how many collective completions one
      parallelism axis's phase runs for, and which axis follows it
      (transition counts).  A phase length is learned the first time the
      axis hands over to a different one; from then on, a completion that
      reaches the learned run length predicts the most-frequent successor.
    * **evidence of pain** — the rail is only *armed* for speculative
      reconfiguration once blocking has actually been observed (an exposed
      switching delay on the critical path) or the hotspot detector flagged
      sustained link congestion.  An unarmed rail never speculates: a
      workload whose switching is already hidden gets no extra events.

    The shim consults this through its completion hook exactly where the
    profile-driven path consults the :class:`~repro.core.profiles.PhaseTracker`,
    so both modes share the budget clamp, the circuit guard, and the
    monotonic issue-time clamp.

    Speculation additionally **self-limits**, at iteration granularity and
    on the metric that matters: exposed blocking.  Iterations that ran
    without speculation establish a baseline (the best such iteration's
    total exposed switching time); an iteration whose speculations left
    *more* blocking than that baseline demonstrates the online model is
    mispredicting — tearing circuits the workload wanted costs switches
    instead of hiding them — so speculation is switched off.  It is
    retried after a geometrically growing number of quiet iterations (the
    model keeps learning from the completion stream while suppressed), so
    a model that comes good after its learning runway earns speculation
    back within a couple of iterations, while a workload it never predicts
    right degrades to the no-provisioning behaviour at a vanishing probe
    cost instead of thrashing below it.
    """

    #: Quiet iterations before a disabled speculation lane's first probe
    #: iteration; doubles after every probe that fails to beat the
    #: no-speculation baseline, resets once a probe succeeds.
    PROBE_BACKOFF_START = 1

    def __init__(self, min_phase_length: int = 1) -> None:
        self.min_phase_length = int(min_phase_length)
        #: Axis currently running per rail, and its completion count so far.
        self._current_axis: Dict[int, str] = {}
        self._run_length: Dict[int, int] = {}
        #: Learned phase length per (rail, axis): completions before handover.
        self._phase_lengths: Dict[Tuple[int, str], int] = {}
        #: Successor-transition counts per (rail, axis).
        self._transitions: Dict[Tuple[int, str], Dict[str, int]] = {}
        #: Distinct axes seen per rail — the reactive provisioning budget,
        #: mirroring the profiled path's phases-per-profile clamp.
        self._axes_seen: Dict[int, Set[str]] = {}
        #: Rails with observed blocking or hotspot evidence (latched).
        self._armed: Set[int] = set()
        #: Iteration-level speculation control (see :meth:`end_iteration`):
        #: whether the lane is on, this iteration's exposed blocking and
        #: whether it speculated, the best blocking of any non-speculating
        #: iteration, and the probe backoff while disabled.
        self._speculation_enabled = True
        self._iter_blocking = 0.0
        self._iter_speculated = False
        self._baseline_blocking: Optional[float] = None
        self._quiet_iterations = 0
        self._probe_wait = self.PROBE_BACKOFF_START
        #: Totals for reporting/tests.
        self.blocking_observed = 0.0
        self.hotspot_events = 0

    # -- evidence ------------------------------------------------------- #

    def note_blocking(self, rail: int, exposed: float) -> None:
        """An on-demand reconfiguration exposed ``exposed`` seconds on ``rail``."""
        if exposed > 0.0:
            self._armed.add(rail)
            self.blocking_observed += exposed
            self._iter_blocking += exposed

    def note_hotspots(self, links: Iterable[Tuple[str, str, int]]) -> None:
        """The hotspot detector flagged sustained congestion; arm every rail."""
        flagged = list(links)
        if flagged:
            self.hotspot_events += 1
            self._armed.update(self._axes_seen)

    def armed(self, rail: int) -> bool:
        """Whether ``rail`` has accumulated evidence that switching hurts."""
        return rail in self._armed

    # -- iteration-level speculation control ---------------------------- #

    def note_speculation(self, rail: int, axis: str) -> None:
        """A speculative reconfiguration for ``axis`` was issued on ``rail``."""
        self._iter_speculated = True

    def should_speculate(self, rail: int) -> bool:
        """Whether the speculation lane is currently on (see class docs)."""
        return self._speculation_enabled

    def end_iteration(self) -> None:
        """Close one iteration's books: judge speculation by its blocking.

        Non-speculating iterations tighten the baseline (the best exposed
        blocking the workload achieves on demand alone) and count toward
        the probe backoff.  Speculating iterations must not leave more
        blocking than that baseline: more blocking means the predictions
        tore circuits the workload wanted, so the lane shuts off and the
        next probe iteration moves geometrically further out.
        """
        if self._iter_speculated:
            baseline = self._baseline_blocking
            if baseline is None:
                # Speculation cannot be judged without an on-demand
                # reference: run the next iteration quiet to calibrate one.
                self._speculation_enabled = False
                self._quiet_iterations = 0
            elif self._iter_blocking > baseline:
                self._speculation_enabled = False
                self._quiet_iterations = 0
            else:
                # The probe (or steady speculation) held blocking at or
                # under the on-demand baseline: the model is predicting.
                self._probe_wait = self.PROBE_BACKOFF_START
        else:
            if (
                self._baseline_blocking is None
                or self._iter_blocking < self._baseline_blocking
            ):
                self._baseline_blocking = self._iter_blocking
            if not self._speculation_enabled:
                self._quiet_iterations += 1
                if self._quiet_iterations >= self._probe_wait:
                    self._speculation_enabled = True
                    self._quiet_iterations = 0
                    self._probe_wait *= 2
        self._iter_blocking = 0.0
        self._iter_speculated = False

    # -- phase learning ------------------------------------------------- #

    def observe_completion(
        self, rail: int, axis: str, end_time: float
    ) -> Optional[str]:
        """Record one collective completion; maybe predict the next axis.

        Returns the predicted successor axis when the current axis's phase
        has run for at least its learned length (i.e. the phase is complete
        as far as the online model knows), else ``None``.
        """
        current = self._current_axis.get(rail)
        if current != axis:
            if current is not None:
                run = self._run_length.get(rail, 0)
                if run >= self.min_phase_length:
                    self._phase_lengths[(rail, current)] = run
                successors = self._transitions.setdefault((rail, current), {})
                successors[axis] = successors.get(axis, 0) + 1
            self._current_axis[rail] = axis
            self._run_length[rail] = 1
        else:
            self._run_length[rail] = self._run_length.get(rail, 0) + 1
        self._axes_seen.setdefault(rail, set()).add(axis)
        learned = self._phase_lengths.get((rail, axis))
        if learned is None or self._run_length[rail] < learned:
            return None
        successors = self._transitions.get((rail, axis))
        if not successors:
            return None
        # Most-frequent successor; ties break on axis name for determinism.
        return min(successors, key=lambda name: (-successors[name], name))

    def budget(self, rail: int) -> int:
        """Speculative reconfigurations allowed per iteration on ``rail``."""
        return max(1, len(self._axes_seen.get(rail, ())))

    def reset(self) -> None:
        """Forget everything (a new job on the same controller)."""
        self._current_axis.clear()
        self._run_length.clear()
        self._phase_lengths.clear()
        self._transitions.clear()
        self._axes_seen.clear()
        self._armed.clear()
        self._speculation_enabled = True
        self._iter_blocking = 0.0
        self._iter_speculated = False
        self._baseline_blocking = None
        self._quiet_iterations = 0
        self._probe_wait = self.PROBE_BACKOFF_START
        self.blocking_observed = 0.0
        self.hotspot_events = 0


class OpusController:
    """Central controller for every rail's OCS of one job."""

    def __init__(
        self,
        fabric: PhotonicRailFabric,
        reconfiguration_delay: Optional[float] = None,
    ) -> None:
        """Create a controller.

        Parameters
        ----------
        fabric:
            The photonic rail fabric whose OCSes this controller programs.
        reconfiguration_delay:
            Override of the OCS switching time in seconds; defaults to the
            fabric's OCS technology value.  The Fig. 8 benchmark sweeps this.
            Must be a finite, non-negative number (not a bool).
        """
        delay = reconfiguration_delay
        if delay is not None:
            if not isinstance(delay, Real) or isinstance(delay, bool):
                raise ConfigurationError(
                    f"reconfiguration_delay must be a number in seconds, got {delay!r}"
                )
            if not (math.isfinite(delay) and delay >= 0):
                raise ConfigurationError(
                    f"reconfiguration_delay must be non-negative and finite, got {delay!r}"
                )
        self.fabric = fabric
        #: FC-FS admission: issue time of the last request per communication
        #: group (its member set).  The paper's Objective 3 relies on each
        #: group's requests being served in the order the job issued them.
        self._last_issue: Dict[FrozenSet[int], float] = {}
        self._delay_override = reconfiguration_delay
        self._rails: Dict[int, RailCircuitState] = {
            rail: RailCircuitState(rail=rail) for rail in fabric.rails
        }
        #: Fast-path memo for :meth:`ensure`: (rail, configuration identity)
        #: -> (configuration, rail reconfiguration epoch, ready time).  The
        #: planner hands out cached configuration objects, and a coalesced
        #: axis configuration at fabric scale holds thousands of circuits —
        #: rescanning them per collective dominated the control plane.
        self._ensure_cache: Dict[Tuple[int, int], Tuple[CircuitConfiguration, int, float]] = {}
        #: Telemetry-driven reconfiguration state, attached by reactive-mode
        #: owners (see :class:`ReactiveReconfigurator`); ``None`` means the
        #: controller only serves on-demand and profile-provisioned requests.
        self.reactive: Optional[ReactiveReconfigurator] = None

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        # Configuration-identity memo: re-key on the anchored configuration
        # objects.  Pickle and deepcopy keep object identity but change id().
        self._ensure_cache = {
            (rail, id(cached[0])): cached
            for (rail, _), cached in self._ensure_cache.items()
        }

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #

    def reconfiguration_delay(self, rail: int) -> float:
        """Switching time of one reconfiguration on ``rail`` in seconds."""
        if self._delay_override is not None:
            return self._delay_override
        return self.fabric.rail(rail).technology.reconfiguration_time

    def rail_state(self, rail: int) -> RailCircuitState:
        """Return the mutable circuit state of one rail, pending traffic applied."""
        state = self._state(rail)
        state.apply_pending(self.fabric.rails[rail].circuits)
        return state

    def _state(self, rail: int) -> RailCircuitState:
        state = self._rails.get(rail)
        if state is None:
            raise ControlPlaneError(f"rail {rail} is not managed by this controller")
        return state

    def total_reconfigurations(self) -> int:
        """Total switching events across all rails since construction."""
        return sum(state.reconfigurations for state in self._rails.values())

    # ------------------------------------------------------------------ #
    # Circuit requests
    # ------------------------------------------------------------------ #

    def ensure(
        self,
        rail: int,
        target: CircuitConfiguration,
        issue_time: float,
        group: FrozenSet[int],
        axis: str,
        provisioned: bool = False,
    ) -> Tuple[float, Optional[ReconfigRecord]]:
        """Make sure ``target``'s circuits exist on ``rail``.

        The request was issued at ``issue_time`` on behalf of communication
        group ``group`` (its member set) and parallelism ``axis``;
        ``provisioned`` marks a speculative request.  Requests of one group
        must arrive in issue order (first-come first-serve), else
        :class:`~repro.errors.SchedulingError` is raised before any switching.
        ``target`` must be valid (see
        :meth:`~repro.topology.ocs.CircuitConfiguration.validate`), as every
        planner output is.

        Returns ``(ready_time, reconfig_record)`` where ``ready_time`` is when
        every requested circuit is usable, and ``reconfig_record`` describes
        the switching event that had to be performed (``None`` if the circuits
        were already installed).
        """
        state = self._state(rail)
        last = self._last_issue.get(group)
        if last is not None and issue_time < last:
            raise SchedulingError(
                f"request for group {sorted(group)} was issued at "
                f"{issue_time:.6f}, before the previously admitted request at "
                f"{last:.6f} (FC-FS violation)"
            )
        self._last_issue[group] = issue_time

        ready = self._installed_ready(rail, target)
        if ready is not None:
            return max(issue_time, ready), None

        photonic_rail = self.fabric.rails[rail]
        installed = photonic_rail.circuits
        missing = [c for c in target.circuits if c not in installed]
        failed_ports = photonic_rail.failed_ports
        if failed_ports:
            # The planner routes around failed ports, so a missing circuit
            # that still lands on one means no healthy assignment exists (or
            # a stale configuration object leaked past a port failure) —
            # fail loudly instead of pretending the install happened.
            for circuit in missing:
                for port in circuit.ports:
                    if port in failed_ports:
                        raise FaultError(
                            f"rail {rail}: circuit {circuit} needs OCS port "
                            f"{port}, which has failed; no healthy port "
                            "assignment can serve this configuration"
                        )
        if not missing:
            if not target.circuits:
                return issue_time, None
            ready = max(state.usable_at[c] for c in target.circuits)
            if len(self._ensure_cache) >= 4096:
                self._ensure_cache.clear()
            self._ensure_cache[(rail, id(target))] = (target, state.reconfigurations, ready)
            return max(issue_time, ready), None

        # Circuits that must be torn down because they share ports with the
        # circuits we need to add.
        to_tear = {
            conflicting
            for circuit in missing
            for conflicting in photonic_rail.conflicts_with(circuit)
        }
        state.apply_pending(installed)
        drain_time = state.drain_time(to_tear)
        start = max(issue_time, drain_time, state.switch_free_at)
        delay = self.reconfiguration_delay(rail)
        end = start + delay

        # Apply the delta through the fabric, which records the circuits and
        # keeps the topology view (and any flow-level simulation on top of
        # it) in step.
        for circuit in to_tear:
            self.fabric.tear(rail, circuit)
            state.forget(circuit)
        for circuit in missing:
            self.fabric.install(rail, circuit)
            state.usable_at[circuit] = end
        state.switch_free_at = end
        state.reconfigurations += 1

        record = ReconfigRecord(
            rail=rail,
            start=start,
            end=end,
            provisioned=provisioned,
            blocking=0.0,
            group_name=axis,
            num_circuits_changed=len(missing) + len(to_tear),
        )
        ready = max(end, max(state.usable_at[c] for c in target.circuits))
        return ready, record

    def known_installed(self, rail: int, target: CircuitConfiguration) -> bool:
        """Whether ``target`` is known to be fully installed on ``rail``.

        True when :meth:`ensure` last found it installed and no switching
        event or port failure happened on the rail since: one memo lookup.
        ``False`` means "not known", not "missing".
        """
        return self._installed_ready(rail, target) is not None

    def _installed_ready(self, rail: int, target: CircuitConfiguration) -> Optional[float]:
        """The memoized ready time of a fully installed ``target``, if current."""
        cached = self._ensure_cache.get((rail, id(target)))
        if (
            cached is not None
            and cached[0] is target
            and cached[1] == self._rails[rail].reconfigurations
        ):
            return cached[2]
        return None

    def fail_port(self, rail: int, port: int) -> Optional[Circuit]:
        """Take one OCS port on ``rail`` out of service (fault injection).

        The port becomes permanently conflicting: the circuit it carried (if
        any) is torn down immediately — without a switching event, the light
        simply dies — through the fabric, which removes its topology links,
        and every future configuration touching the port is rejected by
        :meth:`ensure`.  Returns the torn circuit, or ``None`` if the port
        was idle.  Callers owning a planner must drop its cached
        configurations so new targets route around the failed port.
        """
        state = self.rail_state(rail)  # the ledger changes: apply pending traffic
        victim = self.fabric.fail_port(rail, port)
        if victim is not None:
            state.forget(victim)
        # Cached ensure() answers may assert targets containing the victim
        # are fully installed; the tear invalidates them all.
        self._ensure_cache.clear()
        return victim

    def notify_traffic(
        self, rail: int, configuration: CircuitConfiguration, busy_until: float
    ) -> None:
        """Mark ``configuration``'s installed circuits busy until ``busy_until``.

        A reconfiguration that would tear one of these circuits cannot start
        before the traffic drains (Objective 3).  The analytic network models
        feed the alpha–beta transfer end here; the flow-level photonic model
        (:class:`~repro.core.network.PhotonicFlowNetworkModel`)
        feeds the *actual* drain time of the collective's flows, so drains
        under contention push subsequent reconfigurations later exactly as
        they would on hardware.  Circuits of ``configuration`` that are not
        installed (a port failure can tear one under its flows) carry no
        mark.

        The mark is kept per configuration and reaches the circuits'
        :attr:`RailCircuitState.busy_until` when the rail's ledger next
        changes, so a call costs the same whatever the configuration's size.
        """
        pending = self._state(rail).pending
        pending[configuration] = max(pending.get(configuration, 0.0), busy_until)

    def reset(self) -> None:
        """Tear down every circuit and forget all timing state (new job).

        Pending traffic marks go with the rest of the timing state.
        """
        for rail in self._rails:
            self._rails[rail] = RailCircuitState(rail=rail)
            self.fabric.clear_rail(rail)
        self._ensure_cache.clear()
        self._last_issue.clear()
        if self.reactive is not None:
            self.reactive.reset()
