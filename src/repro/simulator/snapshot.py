"""Snapshot/restore/fork support: the state registry behind resumability.

Every stateful layer of the simulator — the event engine, the flow
simulator, the network models, the DAG executor, the control plane — can be
captured into a :class:`SimState` and later restored (or forked) with
bit-for-bit identical continuation.  Two mechanisms make that safe:

* **Named continuations.**  Pending engine events carry callbacks.  Bound
  methods of objects inside the captured graph serialize naturally (pickle
  and :func:`copy.deepcopy` both rebuild ``callback.__self__`` through the
  shared memo, so the copy's events call into the copy's objects).  Plain
  functions and lambdas do **not**: deepcopy treats them as atoms, so a
  closure in a forked snapshot would keep mutating the *original*
  simulation — a silent split-brain.  The registry therefore requires every
  non-method callback stored in persistent state to be a module-level
  function registered under a stable name via :func:`register_continuation`;
  the engine encodes such callbacks by name and anything unregistered is
  rejected at snapshot time with :class:`~repro.errors.SnapshotError`.

* **Whole-graph capture.**  :class:`Snapshottable.snapshot` pickles the
  object (and everything it references) into an opaque payload;
  :meth:`Snapshottable.restore` materializes that payload and adopts its
  state in place.  Restore therefore replaces the object's entire reachable
  state: snapshot and restore at the root object you care about (the
  session, a standalone simulator, a standalone engine) — restoring an
  engine that is *shared* with a live simulator would disconnect the two.

The on-disk checkpoint format (``SimulationSession.save``) wraps the same
payload in a versioned header; see ``repro.experiments.session``.
"""

from __future__ import annotations

import pickle
import types
from dataclasses import dataclass, field
from typing import Any, Callable, Dict

from ..errors import SnapshotError

#: Bumped when the meaning of a pickled payload changes incompatibly.
SNAPSHOT_FORMAT_VERSION = 1

#: name -> module-level callable usable as a persistent event callback.
_CONTINUATIONS: Dict[str, Callable[..., Any]] = {}
#: id(callable) -> name, for O(1) reverse lookups during encoding.
_CONTINUATION_NAMES: Dict[int, str] = {}


def register_continuation(name: str) -> Callable[[Callable], Callable]:
    """Register a module-level function as a named, snapshot-safe callback.

    Use as a decorator::

        @register_continuation("faults.apply_event")
        def _apply_fault_event(engine, payload):
            ...

    Registered continuations are encoded *by name* when an engine is
    snapshotted and looked up again on restore, so the snapshot stays valid
    across processes and releases (as long as the name is stable).
    """

    def decorator(func: Callable) -> Callable:
        existing = _CONTINUATIONS.get(name)
        if existing is not None and existing is not func:
            raise SnapshotError(
                f"continuation name {name!r} is already registered"
            )
        _CONTINUATIONS[name] = func
        _CONTINUATION_NAMES[id(func)] = name
        return func

    return decorator


def continuation(name: str) -> Callable[..., Any]:
    """Look up a registered continuation by name."""
    try:
        return _CONTINUATIONS[name]
    except KeyError:
        raise SnapshotError(
            f"unknown continuation {name!r}; the snapshot was written by a "
            "version that registered it, or the registering module was not "
            "imported"
        ) from None


#: Sentinel wrapper marking an encoded continuation inside serialized state.
@dataclass(frozen=True)
class _EncodedContinuation:
    name: str


def encode_callback(callback: Callable) -> object:
    """Encode one persistent event callback for serialization.

    Bound methods pass through (they serialize via the pickle/deepcopy memo,
    rebinding to the copied owner); registered module-level functions are
    replaced by a named marker; anything else — a lambda, a closure, an
    unregistered function, a ``functools.partial`` — is rejected, because it
    would either fail to pickle or silently keep referencing the original
    simulation after a fork.
    """
    if isinstance(callback, types.MethodType):
        return callback
    name = _CONTINUATION_NAMES.get(id(callback))
    if name is not None:
        return _EncodedContinuation(name)
    raise SnapshotError(
        f"event callback {callback!r} is not snapshot-safe: persistent "
        "callbacks must be bound methods or module-level functions "
        "registered with register_continuation()"
    )


def decode_callback(encoded: object) -> Callable:
    """Invert :func:`encode_callback`."""
    if isinstance(encoded, _EncodedContinuation):
        return continuation(encoded.name)
    return encoded  # a bound method, restored by the pickle/deepcopy memo


@dataclass
class SimState:
    """An opaque captured state: the unit snapshot/restore trades in.

    ``kind`` names the class that produced the state (checked on restore, so
    a topology snapshot cannot be fed to an engine), ``payload`` is a pickle
    of the captured object graph, and ``format_version`` guards against
    incompatible readers.
    """

    kind: str
    payload: bytes = field(repr=False)
    format_version: int = SNAPSHOT_FORMAT_VERSION

    def require(self, kind: str) -> None:
        """Validate that this state can restore an object of ``kind``."""
        if self.format_version != SNAPSHOT_FORMAT_VERSION:
            raise SnapshotError(
                f"snapshot format version {self.format_version} is not "
                f"supported (this build reads version {SNAPSHOT_FORMAT_VERSION})"
            )
        if self.kind != kind:
            raise SnapshotError(
                f"cannot restore a {self.kind!r} snapshot into a {kind!r}"
            )

    def materialize(self) -> Any:
        """Unpickle the captured object graph (a fresh, independent copy)."""
        try:
            return pickle.loads(self.payload)
        except Exception as exc:  # pickle raises a zoo of error types
            raise SnapshotError(f"cannot materialize snapshot: {exc}") from exc


class Snapshottable:
    """Mixin giving a stateful object ``snapshot()`` / ``restore()`` / ``fork()``.

    The default implementation captures the whole object graph by pickling
    ``self``; subclasses with cheaper self-contained state (e.g.
    :class:`~repro.topology.base.Topology`) override ``_snapshot_payload`` /
    ``_adopt``.
    """

    @property
    def snapshot_kind(self) -> str:
        return type(self).__qualname__

    def _snapshot_payload(self) -> Any:
        return self

    def snapshot(self) -> SimState:
        """Capture the current state into an opaque :class:`SimState`."""
        try:
            payload = pickle.dumps(self._snapshot_payload(), protocol=pickle.HIGHEST_PROTOCOL)
        except SnapshotError:
            raise
        except Exception as exc:
            raise SnapshotError(
                f"cannot snapshot {self.snapshot_kind}: {exc}"
            ) from exc
        return SimState(kind=self.snapshot_kind, payload=payload)

    def _adopt(self, materialized: Any) -> None:
        """Replace this object's state with a materialized snapshot's.

        The attribute dict is *shared* (not copied) with the materialized
        object: pending event callbacks are bound methods of the
        materialized graph, so any attribute they rebind must stay visible
        through ``self`` too.
        """
        self.__dict__ = materialized.__dict__

    def restore(self, state: SimState) -> None:
        """Restore a previously captured :class:`SimState` in place.

        The restored state is a *fresh copy* — restoring does not alias the
        snapshot, so one SimState can seed many restores (that is exactly
        what fork-sweeps do with the on-disk checkpoints).
        """
        state.require(self.snapshot_kind)
        self._adopt(state.materialize())

    def fork(self) -> "Snapshottable":
        """An independent deep copy that continues bit-for-bit identically.

        Implemented as an in-memory ``snapshot()`` + ``materialize()`` round
        trip rather than ``copy.deepcopy``: it is roughly twice as fast on
        simulation-sized object graphs (deepcopy pays per-object memo dict
        overhead that the C pickler amortizes), it runs the engine's
        ``__getstate__`` validation so a fork can never smuggle a closure
        that still points at the parent, and it makes fork semantics exactly
        the checkpoint/restore semantics — a fork behaves identically to a
        state that went to disk and came back.
        """
        return self.snapshot().materialize()
