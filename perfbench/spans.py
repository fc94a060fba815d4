"""Per-layer spans installed around the simulator's public entry points.

:class:`Tracer` patches module functions and class methods of the
simulator from outside — no program code changes — so that each call into a
layer opens a span.  A span's *self time* is its duration minus the spans
nested inside it; host time outside every span is ``trace.other_s``.  The
simulator is single-threaded, so spans nest strictly and self times plus
``trace.other_s`` add up to the traced pass's wall time.

A call into a layer from inside a span of the same layer (a subclass
``timing`` calling ``super().timing``, ``max_min_fair_rates`` dispatching to
its numpy backend) extends the open span instead of opening a new one, so
calls are counted once.

:meth:`Tracer.install` and :meth:`Tracer.uninstall` bracket one traced pass;
after ``uninstall`` every patched attribute is the original object again,
so untraced passes measure the unpatched program.
"""

from __future__ import annotations

import functools
import time
from collections import Counter
from typing import Callable, Dict, List, Optional, Tuple

from repro.collectives import schedule
from repro.core import controller, shim
from repro.experiments import session
from repro.simulator import executor, flow_network, flows
from repro.simulator import network as sim_network
from repro.topology import base

#: ``(module, function name, layer)``: module-level names the simulator
#: calls through.  ``expand_cached`` is patched both where it is defined and
#: where ``flow_network`` bound it at import time.
FUNCTIONS = (
    (session, "build_iteration_dag", "parallelism.dag"),
    (session, "GroupRegistry", "parallelism.groups"),
    (session, "create_network", "backends.create_network"),
    (schedule, "expand_cached", "collectives.expand"),
    (flow_network, "expand_cached", "collectives.expand"),
    (flows, "max_min_fair_rates", "solver"),
    (flows, "_max_min_fair_rates_numpy", "solver"),
    (flows, "_max_min_fair_rates_python", "solver"),
)

#: ``(base class, method names, layer)``: the methods are wrapped on the base
#: class and on every loaded subclass that overrides them.  ``is_scaleout``
#: stays unwrapped: the executor asks it a quarter-million times per Fig. 8
#: sweep, and a span per call would cost more than the predicate, so it
#: counts toward ``executor.self_s``.
METHODS = (
    (executor.DAGExecutor, ("run_iteration",), "executor"),
    (sim_network.NetworkModel, ("timing",), "analytic.timing"),
    (
        sim_network.NetworkModel,
        (
            "on_iteration_start",
            "on_iteration_end",
            "on_comm_end",
            "can_expand",
            "pop_reconfig_records",
        ),
        "network.hooks",
    ),
    (flow_network.FlowNetworkModel, ("begin_comm",), "flow_network.begin"),
    (flow_network.FlowNetworkModel, ("step_items",), "flow_network.step_items"),
    (flow_network.FlowNetworkModel, ("path_between",), "route.lookup"),
    (flow_network.FlowNetworkModel, ("advance",), "flows.event"),
    (base.Topology, ("shortest_path", "paths_from", "equal_cost_paths"), "route.search"),
    (flows.FlowSimulator, ("add_flows", "add_flow"), "flows.add"),
    (
        flows.FlowSimulator,
        ("apply_link_change", "fail_links", "fail_link_ids"),
        "faults.apply",
    ),
    (controller.OpusController, ("ensure",), "opus.ensure"),
    (controller.OpusController, ("notify_traffic",), "opus.notify"),
    (
        shim.OpusShim,
        ("request_circuits", "notify_transfer", "notify_completion"),
        "opus.shim",
    ),
)


def _count_ops(tracer: "Tracer", args: tuple, result: object) -> None:
    tracer.counts["parallelism.ops"] += len(result.operations())


def _count_solver_flows(tracer: "Tracer", args: tuple, result: object) -> None:
    tracer.counts["solver.flows"] += len(args[0])


def _count_added(tracer: "Tracer", args: tuple, result: object) -> None:
    tracer.counts["flows.added"] += len(result) if isinstance(result, list) else 1


def _count_expansion(tracer: "Tracer", args: tuple, result: object) -> None:
    # Schedules are memoized objects: a new identity is a new expansion.
    tracer.expansions.setdefault(id(result), result)


#: Layer -> hook run inside the span once the wrapped call returns.
COUNTERS: Dict[str, Callable[["Tracer", tuple, object], None]] = {
    "parallelism.dag": _count_ops,
    "solver": _count_solver_flows,
    "flows.add": _count_added,
    "collectives.expand": _count_expansion,
}


def _subclasses(cls: type) -> List[type]:
    """``cls`` and every subclass loaded so far, each once."""
    found = [cls]
    for klass in found:
        found.extend(sub for sub in klass.__subclasses__() if sub not in found)
    return found


class Tracer:
    """Self time, calls and counts per layer over one traced pass."""

    def __init__(self) -> None:
        self.self_s: Dict[str, float] = Counter()
        self.calls: Dict[str, int] = Counter()
        self.counts: Dict[str, int] = Counter()
        #: (parent layer, child layer) -> spans opened directly inside.
        self.nested: Dict[Tuple[str, str], int] = Counter()
        #: Distinct expansion schedules returned (held so ids stay unique).
        self.expansions: Dict[int, object] = {}
        self.other_s = 0.0
        self._stack: List[list] = []
        self._idle_since: Optional[float] = None
        self._patches: List[Tuple[object, str, object]] = []

    # ------------------------------------------------------------------ #
    # Spans
    # ------------------------------------------------------------------ #

    def start(self, now: float) -> None:
        """Begin accounting host time outside every span at ``now``."""
        self._idle_since = now

    def stop(self, now: float) -> None:
        """Close the outside-span account at ``now``, the end of the pass."""
        self.other_s += now - self._idle_since

    def wrap(self, layer: str, fn: Callable) -> Callable:
        """``fn`` with a span of ``layer`` around each call."""
        tracer = self
        stack = self._stack
        counter = COUNTERS.get(layer)

        @functools.wraps(fn, updated=())
        def traced(*args, **kwargs):
            if stack and stack[-1][0] == layer:
                return fn(*args, **kwargs)
            began = time.perf_counter()
            if stack:
                tracer.nested[(stack[-1][0], layer)] += 1
            else:
                tracer.other_s += began - tracer._idle_since
            frame = [layer, began, 0.0]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
                if counter is not None:
                    counter(tracer, args, result)
                return result
            finally:
                ended = time.perf_counter()
                stack.pop()
                elapsed = ended - began
                tracer.self_s[layer] += elapsed - frame[2]
                tracer.calls[layer] += 1
                if stack:
                    stack[-1][2] += elapsed
                else:
                    tracer._idle_since = ended

        return traced

    # ------------------------------------------------------------------ #
    # Patching
    # ------------------------------------------------------------------ #

    def _patch(self, owner: object, name: str, layer: str) -> None:
        original = vars(owner)[name]
        self._patches.append((owner, name, original))
        setattr(owner, name, self.wrap(layer, original))

    def install(self) -> None:
        """Open spans around every entry point in the layer tables."""
        if self._patches:
            raise RuntimeError("tracer spans are already installed")
        for module, name, layer in FUNCTIONS:
            self._patch(module, name, layer)
        for cls, names, layer in METHODS:
            for owner in _subclasses(cls):
                for name in names:
                    if name in vars(owner):
                        self._patch(owner, name, layer)

    def uninstall(self) -> None:
        """Put every patched attribute back and check that it is back."""
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)
            if vars(owner)[name] is not original:
                raise RuntimeError(f"could not restore {owner!r}.{name}")
