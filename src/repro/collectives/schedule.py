"""Expansion of collectives into per-step point-to-point transfer schedules.

The flow-level simulator can either charge a collective its analytic
alpha–beta time (fast, used for large sweeps) or expand it into the individual
point-to-point transfers of the underlying algorithm and simulate those as
flows (used when link sharing between concurrent collectives matters).  This
module provides the expansion machinery shared by the ring and AllToAll
algorithms.

A schedule is a list of :class:`TransferStep` objects; each step is a set of
:class:`Transfer` objects that may proceed concurrently, and a step only starts
after every transfer of the previous step completed (the synchronous-algorithm
approximation used by most collective simulators).
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import List, Tuple

from ..errors import ConfigurationError
from .primitives import CollectiveOp, CollectiveType


@dataclass(frozen=True)
class Transfer:
    """A single point-to-point transfer: ``size_bytes`` from ``src`` to ``dst``."""

    src: int
    dst: int
    size_bytes: float

    def __post_init__(self) -> None:
        if self.src == self.dst:
            raise ConfigurationError("transfer endpoints must differ")
        if self.size_bytes < 0:
            raise ConfigurationError("transfer size must be non-negative")


@dataclass(frozen=True)
class TransferStep:
    """A set of transfers that proceed concurrently in one algorithm step."""

    transfers: Tuple[Transfer, ...]

    @property
    def total_bytes(self) -> float:
        """Total bytes moved in this step."""
        return sum(t.size_bytes for t in self.transfers)


Schedule = List[TransferStep]


def ring_schedule(op: CollectiveOp) -> Schedule:
    """Expand ``op`` into the standard ring-algorithm transfer schedule.

    The ring order is the order of ``op.group``.  Each rank sends chunks of
    ``size / n`` bytes to its successor; AllReduce performs a reduce-scatter
    pass followed by an all-gather pass (2(n-1) steps), AllGather and
    ReduceScatter perform n-1 steps each.
    """
    ranks = list(op.group)
    n = len(ranks)
    if n <= 1:
        return []
    if op.collective == CollectiveType.SEND_RECV:
        return [TransferStep((Transfer(ranks[0], ranks[1], op.size_bytes),))]
    if op.collective == CollectiveType.BARRIER:
        return [
            TransferStep(
                tuple(
                    Transfer(ranks[i], ranks[(i + 1) % n], 0.0) for i in range(n)
                )
            )
        ]
    chunk = op.size_bytes / n
    if op.collective == CollectiveType.ALL_REDUCE:
        num_steps = 2 * (n - 1)
    elif op.collective in (
        CollectiveType.ALL_GATHER,
        CollectiveType.REDUCE_SCATTER,
        CollectiveType.ALL_TO_ALL,
        CollectiveType.BROADCAST,
        CollectiveType.REDUCE,
    ):
        num_steps = n - 1
    else:
        raise ConfigurationError(f"unknown collective {op.collective!r}")

    if op.collective == CollectiveType.ALL_GATHER:
        # Each rank circulates its full shard: per-step chunk is size_bytes.
        chunk = op.size_bytes
    if op.collective in (CollectiveType.BROADCAST, CollectiveType.REDUCE):
        chunk = op.size_bytes

    schedule: Schedule = []
    for _ in range(num_steps):
        transfers = tuple(
            Transfer(ranks[i], ranks[(i + 1) % n], chunk) for i in range(n)
        )
        schedule.append(TransferStep(transfers))
    return schedule


def direct_alltoall_schedule(op: CollectiveOp) -> Schedule:
    """Expand an AllToAll into ``n-1`` pairwise-exchange steps (direct algorithm).

    In step ``s`` every rank ``i`` sends its ``(i ^ s)``-th chunk-equivalent to
    rank ``(i + s) mod n`` — we use the rotation (linear shift) pattern, which
    keeps every step a perfect matching so the degree requirement is 1 per
    step but ``n-1`` distinct neighbors overall (paper constraint C1: not
    implementable on a static ring without forwarding).
    """
    if op.collective != CollectiveType.ALL_TO_ALL:
        raise ConfigurationError("direct_alltoall_schedule only handles AllToAll")
    ranks = list(op.group)
    n = len(ranks)
    if n <= 1:
        return []
    chunk = op.size_bytes / n
    schedule: Schedule = []
    for shift in range(1, n):
        transfers = tuple(
            Transfer(ranks[i], ranks[(i + shift) % n], chunk) for i in range(n)
        )
        schedule.append(TransferStep(transfers))
    return schedule


def expand(op: CollectiveOp) -> Schedule:
    """Expand ``op`` with the appropriate algorithm.

    AllToAll uses the direct pairwise schedule; every other collective uses
    the ring schedule.
    """
    if op.collective == CollectiveType.ALL_TO_ALL:
        return direct_alltoall_schedule(op)
    return ring_schedule(op)


#: Memoized expansions, keyed by everything the schedule depends on: the
#: collective type, the exact rank group and the payload size.  Tags, parallelism labels, and DAG op ids deliberately do not
#: participate — two FSDP layers with the same group and size share one
#: schedule object.  Bounded LRU so pathological sweeps cannot hoard memory.
_EXPANSION_CACHE: "OrderedDict[Tuple[CollectiveType, Tuple[int, ...], float], Schedule]" = (
    OrderedDict()
)
_EXPANSION_CACHE_MAX = 1024


def expand_cached(op: CollectiveOp) -> Schedule:
    """Memoized :func:`expand` keyed on ``(collective, group, size)``.

    The returned schedule is shared between callers and across iterations;
    treat it as immutable.  The large-scale flow simulations re-expand the
    same (group, size) shape thousands of times per run — once per DAG
    operation per iteration — and expansion is O(steps × group size), so the
    cache turns a quadratic per-iteration cost into a lookup.
    """
    key = (op.collective, op.group, op.size_bytes)
    cached = _EXPANSION_CACHE.get(key)
    if cached is not None:
        _EXPANSION_CACHE.move_to_end(key)
        return cached
    schedule = expand(op)
    _EXPANSION_CACHE[key] = schedule
    if len(_EXPANSION_CACHE) > _EXPANSION_CACHE_MAX:
        _EXPANSION_CACHE.popitem(last=False)
    return schedule


def expansion_cache_clear() -> None:
    """Drop all memoized expansions (test isolation helper)."""
    _EXPANSION_CACHE.clear()
