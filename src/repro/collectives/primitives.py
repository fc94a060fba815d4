"""Collective communication primitives and their traffic-volume accounting.

The paper's Table 2 characterizes each parallelism axis by the collectives it
issues (AllReduce, AllGather, ReduceScatter, AllToAll, Send/Recv), their
frequency (per layer / per operator / per micro-batch), and their payload.
This module defines:

* :class:`CollectiveType` — the collective operations used by ML parallelisms;
* :class:`CollectiveOp` — one instance of a collective issued by a rank group,
  with payload size and issuing metadata;
* per-collective formulas for the number of bytes each rank must send and
  receive under the bandwidth-optimal (ring / pairwise) algorithms, which both
  the analytic cost model and the flow-level expansion build on.

Size conventions follow NCCL: ``size_bytes`` is the size of the *input buffer
per rank* (e.g. the local gradient shard for ReduceScatter, the full gradient
for AllReduce, the local shard to be gathered for AllGather).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from enum import Enum
from typing import Dict, Tuple

from ..errors import ConfigurationError


class CollectiveType(str, Enum):
    """Collective operations issued by ML parallelism strategies."""

    ALL_REDUCE = "all_reduce"
    ALL_GATHER = "all_gather"
    REDUCE_SCATTER = "reduce_scatter"
    ALL_TO_ALL = "all_to_all"
    SEND_RECV = "send_recv"
    BROADCAST = "broadcast"
    REDUCE = "reduce"
    BARRIER = "barrier"

    @property
    def short_name(self) -> str:
        """The abbreviation used in the paper's tables (AR, AG, RS, ...)."""
        return _SHORT_NAMES[self]


_SHORT_NAMES: Dict[CollectiveType, str] = {
    CollectiveType.ALL_REDUCE: "AR",
    CollectiveType.ALL_GATHER: "AG",
    CollectiveType.REDUCE_SCATTER: "RS",
    CollectiveType.ALL_TO_ALL: "A2A",
    CollectiveType.SEND_RECV: "SR",
    CollectiveType.BROADCAST: "BC",
    CollectiveType.REDUCE: "RD",
    CollectiveType.BARRIER: "BAR",
}


_COUNTER = itertools.count()


@dataclass(frozen=True)
class CollectiveOp:
    """One collective operation issued over a communication group.

    Attributes
    ----------
    collective:
        The collective type.
    group:
        Global GPU ranks participating, in group order (ring order for ring
        algorithms; (src, dst) for Send/Recv).
    size_bytes:
        Per-rank input payload in bytes (see module docstring for semantics).
    parallelism:
        The parallelism axis that issued the collective (``"dp"``, ``"pp"``,
        ``"tp"``, ``"cp"``, ``"ep"``); used by Opus to detect parallelism
        shifts.
    tag:
        Free-form description (e.g. ``"layer3.allgather"``) for traces.
    op_id:
        Unique id assigned at construction.
    """

    collective: CollectiveType
    group: Tuple[int, ...]
    size_bytes: float
    parallelism: str = ""
    tag: str = ""
    op_id: int = field(default_factory=lambda: next(_COUNTER))

    def __post_init__(self) -> None:
        if len(self.group) < 1:
            raise ConfigurationError("a collective needs at least one rank")
        if len(set(self.group)) != len(self.group):
            raise ConfigurationError("collective group ranks must be distinct")
        if self.size_bytes < 0:
            raise ConfigurationError("collective size must be non-negative")
        if self.collective == CollectiveType.SEND_RECV and len(self.group) != 2:
            raise ConfigurationError("Send/Recv requires exactly two ranks")

    @property
    def group_size(self) -> int:
        """Number of participating ranks."""
        return len(self.group)

    def __str__(self) -> str:
        return (
            f"{self.collective.short_name}[{self.parallelism or '?'}]"
            f"(n={self.group_size}, {self.size_bytes / 1e6:.1f} MB)"
        )


def bytes_on_wire_per_rank(collective: CollectiveType, size_bytes: float, group_size: int) -> float:
    """Bytes each rank must *send* for one collective under ring/pairwise algorithms.

    These are the standard bandwidth-optimal volumes (Thakur & Gropp [69];
    NCCL documentation):

    * AllReduce: ``2 * (n-1)/n * size``  (ReduceScatter + AllGather phases)
    * AllGather / ReduceScatter: ``(n-1)/n * size_total`` where ``size_total``
      is ``n * size`` for AllGather of per-rank shards of ``size`` bytes; per
      the module's per-rank-input convention this equals ``(n-1) * size`` for
      AllGather and ``(n-1)/n * size`` for ReduceScatter of an input of
      ``size`` bytes.
    * AllToAll: ``(n-1)/n * size`` (each rank keeps 1/n of its buffer).
    * Send/Recv, Broadcast, Reduce: ``size``.
    * Barrier: 0 bytes (latency only).
    """
    if group_size < 1:
        raise ConfigurationError("group_size must be positive")
    if group_size == 1:
        return 0.0
    n = float(group_size)
    if collective == CollectiveType.ALL_REDUCE:
        return 2.0 * (n - 1.0) / n * size_bytes
    if collective == CollectiveType.ALL_GATHER:
        return (n - 1.0) * size_bytes
    if collective == CollectiveType.REDUCE_SCATTER:
        return (n - 1.0) / n * size_bytes
    if collective == CollectiveType.ALL_TO_ALL:
        return (n - 1.0) / n * size_bytes
    if collective in (CollectiveType.SEND_RECV, CollectiveType.BROADCAST, CollectiveType.REDUCE):
        return float(size_bytes)
    if collective == CollectiveType.BARRIER:
        return 0.0
    raise ConfigurationError(f"unknown collective {collective!r}")


def total_traffic_bytes(op: CollectiveOp) -> float:
    """Total bytes crossing the network for one collective (all ranks summed)."""
    per_rank = bytes_on_wire_per_rank(op.collective, op.size_bytes, op.group_size)
    if op.collective == CollectiveType.SEND_RECV:
        # Only the sender transmits.
        return per_rank
    return per_rank * op.group_size


def num_ring_steps(collective: CollectiveType, group_size: int) -> int:
    """Number of ring steps the bandwidth-optimal algorithm uses."""
    if group_size <= 1:
        return 0
    n = group_size
    if collective == CollectiveType.ALL_REDUCE:
        return 2 * (n - 1)
    if collective in (CollectiveType.ALL_GATHER, CollectiveType.REDUCE_SCATTER):
        return n - 1
    if collective == CollectiveType.ALL_TO_ALL:
        return n - 1
    if collective in (CollectiveType.SEND_RECV, CollectiveType.BROADCAST, CollectiveType.REDUCE):
        return 1
    if collective == CollectiveType.BARRIER:
        return 1
    raise ConfigurationError(f"unknown collective {collective!r}")
