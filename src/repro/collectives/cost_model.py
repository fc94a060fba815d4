"""Alpha–beta cost models for collective operations.

The simulator and the analysis code both need an estimate of how long a
collective takes on a given set of links.  We use the classical alpha–beta
(latency–bandwidth) model, parameterized per algorithm:

* ``alpha`` — per-message latency (link propagation + software launch);
* ``beta``  — inverse bandwidth of the bottleneck link (seconds per byte).

For a ring algorithm over ``n`` ranks with per-rank payload ``S``:

* AllReduce:      ``2(n-1) * alpha + 2 S (n-1)/n * beta``
* AllGather:      ``(n-1) * alpha + S (n-1) * beta``
* ReduceScatter:  ``(n-1) * alpha + S (n-1)/n * beta``
* AllToAll (ring/pairwise): ``(n-1) * alpha + S (n-1)/n * beta``
* Send/Recv:      ``alpha + S * beta``

Latency-optimal algorithms (tree, recursive doubling) replace the ``n-1``
latency term with ``log2(n)`` but send more data per rank; they are provided
for the C1 discussion (photonic rails cannot run them because of the degree
constraint) and for the electrical baseline.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..errors import ConfigurationError
from .primitives import CollectiveOp, CollectiveType, bytes_on_wire_per_rank, num_ring_steps


@dataclass(frozen=True)
class LinkParameters:
    """Alpha–beta parameters of the links a collective runs over.

    Attributes
    ----------
    bandwidth:
        Per-rank injection bandwidth available to the collective, bytes/s.
    latency:
        One-hop latency in seconds (propagation + NIC + software).
    per_message_overhead:
        Fixed software overhead added once per algorithm step (kernel launch,
        protocol handshake), seconds.
    """

    bandwidth: float
    latency: float = 2e-6
    per_message_overhead: float = 5e-6

    def __post_init__(self) -> None:
        if self.bandwidth <= 0:
            raise ConfigurationError("bandwidth must be positive")
        if self.latency < 0 or self.per_message_overhead < 0:
            raise ConfigurationError("latencies must be non-negative")

    @property
    def alpha(self) -> float:
        """Per-step latency term (seconds)."""
        return self.latency + self.per_message_overhead

    @property
    def beta(self) -> float:
        """Inverse bandwidth (seconds per byte)."""
        return 1.0 / self.bandwidth


class RingCostModel:
    """Bandwidth-optimal ring algorithm cost model (the photonic-rail default)."""

    name = "ring"

    def collective_time(self, op: CollectiveOp, link: LinkParameters) -> float:
        """Estimated completion time of ``op`` over ``link`` in seconds."""
        if op.group_size <= 1:
            return 0.0
        steps = num_ring_steps(op.collective, op.group_size)
        wire_bytes = bytes_on_wire_per_rank(op.collective, op.size_bytes, op.group_size)
        return steps * link.alpha + wire_bytes * link.beta


class TreeCostModel:
    """Latency-optimized tree / recursive-doubling cost model.

    Only valid on fabrics with full connectivity (electrical rails); the
    photonic rail's degree constraint C1 rules it out.  AllReduce uses the
    two-tree construction [58]; AllGather/ReduceScatter use recursive
    doubling/halving [69].
    """

    name = "tree"

    def collective_time(self, op: CollectiveOp, link: LinkParameters) -> float:
        """Estimated completion time of ``op`` over ``link`` in seconds."""
        if op.group_size <= 1:
            return 0.0
        n = op.group_size
        rounds = max(1, math.ceil(math.log2(n)))
        wire_bytes = bytes_on_wire_per_rank(op.collective, op.size_bytes, op.group_size)
        if op.collective == CollectiveType.ALL_REDUCE:
            # Double binary tree: latency log2(n), bandwidth 2*S.
            return rounds * link.alpha + 2.0 * op.size_bytes * link.beta
        if op.collective in (
            CollectiveType.ALL_GATHER,
            CollectiveType.REDUCE_SCATTER,
            CollectiveType.ALL_TO_ALL,
        ):
            return rounds * link.alpha + wire_bytes * link.beta
        if op.collective in (
            CollectiveType.SEND_RECV,
            CollectiveType.BROADCAST,
            CollectiveType.REDUCE,
        ):
            return link.alpha + wire_bytes * link.beta
        if op.collective == CollectiveType.BARRIER:
            return rounds * link.alpha
        raise ConfigurationError(f"unknown collective {op.collective!r}")
