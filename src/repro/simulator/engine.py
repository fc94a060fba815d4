"""Minimal discrete-event engine used by the flow-level simulator.

The engine is a time-ordered priority queue of events with stable FIFO
ordering among events scheduled for the same instant.  It is deliberately
small: the DAG executor uses list scheduling (it needs resource reasoning, not
arbitrary events), and only the fluid flow simulator drives this queue.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Any, Callable, List, Optional

from ..errors import SimulationError
from .snapshot import Snapshottable, decode_callback, encode_callback


@dataclass(order=True)
class _QueueEntry:
    time: float
    sequence: int
    event: "Event" = field(compare=False)


@dataclass
class Event:
    """One scheduled event: a callback invoked at ``time`` with ``payload``."""

    time: float
    callback: Callable[["SimulationEngine", Any], None]
    payload: Any = None
    cancelled: bool = False
    #: Set by the owning engine so it can keep its live-event count accurate.
    _on_cancel: Optional[Callable[[], None]] = field(
        default=None, repr=False, compare=False
    )

    def cancel(self) -> None:
        """Mark the event as cancelled; it will be skipped when dequeued."""
        if not self.cancelled:
            self.cancelled = True
            if self._on_cancel is not None:
                self._on_cancel()


class SimulationEngine(Snapshottable):
    """A time-ordered event queue with a monotonically advancing clock.

    The engine is snapshottable: its state (heap, clock, sequence counter,
    processed/cancelled counters) captures into a :class:`SimState` and
    restores bit-for-bit.  Pending event callbacks must be bound methods of
    objects inside the captured graph or module-level functions registered
    via :func:`~repro.simulator.snapshot.register_continuation`; raw
    closures are rejected at snapshot/fork time (see ``snapshot.py``).
    """

    def __init__(self) -> None:
        self._queue: List[_QueueEntry] = []
        self._sequence = 0
        self._now = 0.0
        self._processed = 0
        self._cancelled = 0

    def _note_cancel(self) -> None:
        self._cancelled += 1

    # ------------------------------------------------------------------ #
    # Snapshot support
    # ------------------------------------------------------------------ #

    def __getstate__(self) -> dict:
        # Events are flattened to plain tuples with callbacks run through the
        # continuation encoder; _on_cancel (always this engine's bound
        # _note_cancel) is dropped and rewired on restore.
        entries = [
            (
                entry.time,
                entry.sequence,
                encode_callback(entry.event.callback),
                entry.event.payload,
                entry.event.cancelled,
            )
            for entry in self._queue
        ]
        return {
            "entries": entries,
            "sequence": self._sequence,
            "now": self._now,
            "processed": self._processed,
            "cancelled": self._cancelled,
        }

    def __setstate__(self, state: dict) -> None:
        self._queue = []
        for time, sequence, callback, payload, cancelled in state["entries"]:
            event = Event(
                time=time,
                callback=decode_callback(callback),
                payload=payload,
                cancelled=cancelled,
                _on_cancel=None if cancelled else self._note_cancel,
            )
            # The entries were serialized in heap order, so appending
            # preserves the heap invariant without a heapify pass.
            self._queue.append(_QueueEntry(time, sequence, event))
        self._sequence = state["sequence"]
        self._now = state["now"]
        self._processed = state["processed"]
        self._cancelled = state["cancelled"]

    @property
    def now(self) -> float:
        """The current simulation time in seconds."""
        return self._now

    @property
    def events_processed(self) -> int:
        """Number of events executed so far."""
        return self._processed

    @property
    def pending(self) -> int:
        """Number of live (non-cancelled) events still queued.

        Cancelled events stay in the heap until they surface (removing them
        eagerly would be O(n) per cancel), but they are invisible here so
        callers checking for outstanding work are not misled.
        """
        self._purge_cancelled_head()
        return len(self._queue) - self._cancelled

    @property
    def next_event_time(self) -> Optional[float]:
        """Time of the next live event, or ``None`` when the queue is idle."""
        self._purge_cancelled_head()
        return self._queue[0].time if self._queue else None

    def _purge_cancelled_head(self) -> None:
        """Drop cancelled events sitting at the top of the heap."""
        while self._queue and self._queue[0].event.cancelled:
            heapq.heappop(self._queue)
            self._cancelled -= 1

    def schedule(
        self,
        time: float,
        callback: Callable[["SimulationEngine", Any], None],
        payload: Any = None,
    ) -> Event:
        """Schedule ``callback(engine, payload)`` at absolute ``time``."""
        if time < self._now:
            raise SimulationError(
                f"cannot schedule an event at {time} before current time {self._now}"
            )
        event = Event(
            time=time, callback=callback, payload=payload, _on_cancel=self._note_cancel
        )
        sequence = self._sequence
        self._sequence = sequence + 1
        heapq.heappush(self._queue, _QueueEntry(time, sequence, event))
        return event

    def schedule_in(
        self,
        delay: float,
        callback: Callable[["SimulationEngine", Any], None],
        payload: Any = None,
    ) -> Event:
        """Schedule ``callback`` after ``delay`` seconds."""
        if delay < 0:
            raise SimulationError("delay must be non-negative")
        return self.schedule(self._now + delay, callback, payload)

    def step(self) -> bool:
        """Execute the next non-cancelled event; return False when idle."""
        while self._queue:
            entry = heapq.heappop(self._queue)
            if entry.event.cancelled:
                self._cancelled -= 1
                continue
            # The event leaves the queue here: a late cancel() (the common
            # "cancel a possibly-fired timeout" pattern) must no longer touch
            # the live-event counter.
            entry.event._on_cancel = None
            self._now = entry.time
            entry.event.callback(self, entry.event.payload)
            self._processed += 1
            return True
        return False

    def run(self, until: Optional[float] = None, max_events: int = 10_000_000) -> float:
        """Run until the queue drains (or ``until`` / ``max_events`` is hit).

        Returns the simulation time when the run stopped.
        """
        executed = 0
        while self._queue:
            next_time = self.next_event_time
            if next_time is None:
                break
            if until is not None and next_time > until:
                break
            if not self.step():
                break
            executed += 1
            if executed >= max_events:
                raise SimulationError(
                    f"event budget of {max_events} exceeded; likely a runaway loop"
                )
        if until is not None and until > self._now:
            # The clock advances to `until` whether the loop stopped at a
            # later event, drained the queue, or never entered (empty queue):
            # an idle or restored engine reports the time it was run to, not
            # a stale instant.  An `until` in the past never rewinds time.
            self._now = until
        return self._now
