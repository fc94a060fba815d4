"""Link telemetry: operational counters from the flow simulator.

The O&M-metrics line of work shows congestion hotspots can be *detected*
from operational counters alone — no application cooperation, no packet
inspection.  The flow-level simulator already computes the ground truth
those counters approximate (per-link allocated rate and active-flow count,
refreshed on every allocation pass), so the telemetry loop here is the
simulation-side analogue:

* :class:`LinkTelemetry` samples per-link utilization (allocated rate over
  live capacity) and queue pressure (active-flow count) into rolling windows
  and exponentially-weighted moving averages;
* :class:`HotspotDetector` flags links whose smoothed utilization has sat
  above a threshold for enough consecutive samples — the EWMA-threshold
  detector of the O&M paper.

Samples are driven from the network model's collective-completion hook (a
deterministic, replayable instant), never from wall-clock timers, so a
telemetry-driven run is exactly reproducible.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Deque, Dict, List, Tuple

from .flows import LinkKey

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .flows import FlowSimulator

#: Default EWMA smoothing factor (weight of the newest sample).
DEFAULT_ALPHA = 0.25

#: Default rolling-window length per link, in samples.
DEFAULT_WINDOW = 32


class LinkStats:
    """One link's telemetry: EWMA utilization and pressure, rolling window."""

    __slots__ = ("key", "utilization", "pressure", "window", "samples", "epoch")

    def __init__(
        self, key: LinkKey, utilization: float, flows: int, window: int, now: float
    ) -> None:
        self.key = key
        #: Smoothed utilization (allocated rate / capacity).
        self.utilization = utilization
        #: Smoothed active-flow count.
        self.pressure = float(flows)
        #: Rolling (time, utilization, flows) window.
        self.window: Deque[Tuple[float, float, int]] = deque(
            ((now, utilization, flows),), maxlen=window
        )
        #: Samples taken of this link, busy or idle.  How many of them sat
        #: at-or-above a threshold is the observer's business.
        self.samples = 1
        #: The collector sample that last saw the link busy.
        self.epoch = 0


class LinkTelemetry:
    """Rolling per-link utilization / queue-pressure collector.

    One :meth:`sample` call walks the simulator's live link registry once.
    Links with no active flows decay toward zero instead of going stale —
    a hotspot that drained stops being a hotspot within a few samples.
    """

    def __init__(
        self,
        simulator: "FlowSimulator",
        alpha: float = DEFAULT_ALPHA,
        window: int = DEFAULT_WINDOW,
    ) -> None:
        if not 0.0 < alpha <= 1.0:
            raise ValueError(f"telemetry alpha must be in (0, 1], got {alpha!r}")
        if window < 1:
            raise ValueError(f"telemetry window must be positive, got {window!r}")
        self.simulator = simulator
        self.alpha = float(alpha)
        self.window = int(window)
        #: Statistics of every link ever sampled busy, keyed by link id.
        self.links: Dict[int, LinkStats] = {}
        #: Total samples taken.
        self.samples = 0

    def sample(self, now: float) -> None:
        """Take one sample of every in-use link at simulated time ``now``."""
        alpha = self.alpha
        decay = 1.0 - alpha
        topology = self.simulator.topology
        links = self.links
        self.samples += 1
        epoch = self.samples
        for link_id, rate, flows in self.simulator.link_loads():
            if topology is None or not topology.has_link(link_id):
                continue  # torn/failed links carry no capacity to utilize
            link = topology.link(link_id)
            capacity = link.bandwidth
            load = rate / capacity if capacity > 0.0 else 0.0
            stats = links.get(link_id)
            if stats is None:
                stats = links[link_id] = LinkStats(
                    link.key, load, flows, self.window, now
                )
            else:
                stats.utilization = stats.utilization * decay + load * alpha
                stats.pressure = stats.pressure * decay + float(flows) * alpha
                stats.window.append((now, load, flows))
                stats.samples += 1
            stats.epoch = epoch
        # Idle links decay: a link absent from the registry has zero load.
        idle = (now, 0.0, 0)
        for stats in links.values():
            if stats.epoch != epoch:
                stats.utilization *= decay
                stats.pressure *= decay
                stats.window.append(idle)
                stats.samples += 1


class HotspotDetector:
    """EWMA-threshold hotspot detection over a :class:`LinkTelemetry` feed.

    A link is a hotspot when its smoothed utilization is at or above
    ``threshold`` and the collector has at least ``min_samples`` samples for
    it — one transient spike is not a hotspot, a sustained one is.
    """

    def __init__(
        self,
        telemetry: LinkTelemetry,
        threshold: float = 0.9,
        min_samples: int = 2,
    ) -> None:
        if threshold <= 0.0:
            raise ValueError(f"hotspot threshold must be positive, got {threshold!r}")
        if min_samples < 1:
            raise ValueError(f"min_samples must be positive, got {min_samples!r}")
        self.telemetry = telemetry
        self.threshold = float(threshold)
        self.min_samples = int(min_samples)

    def hotspots(self) -> List[LinkKey]:
        """Every current hotspot link, in sorted (deterministic) order."""
        return sorted(
            stats.key
            for stats in self.telemetry.links.values()
            if stats.utilization >= self.threshold
            and stats.samples >= self.min_samples
        )
