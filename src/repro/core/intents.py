"""Communication intents: what the Opus shim learns from intercepted collectives.

The Opus shim sits between the application and the collective communication
library (paper Fig. 6).  Every collective call the application issues is
"intercepted" and turned into a :class:`CommIntent` — a provisional intent to
communicate that carries the communication group, the payload, and the
parallelism axis it belongs to.  Intents feed two consumers:

* the :class:`~repro.core.profiles.TrafficProfiler`, which learns the
  per-iteration traffic pattern during the first (profiling) iteration;
* the :class:`~repro.core.controller.OpusController`, which translates the
  demand into circuit configurations.

A :class:`DemandMatrix` aggregates intents into per-(source domain,
destination domain) byte counts per rail, the representation the controller's
reconfiguration decisions are keyed on ("reconfigure only if the demand matrix
of the parallelism changes", §4.1).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, List, Tuple

from ..collectives.primitives import CollectiveOp, CollectiveType, total_traffic_bytes
from ..errors import ControlPlaneError
from ..parallelism.mesh import DeviceMesh

_INTENT_COUNTER = itertools.count()


@dataclass(frozen=True)
class CommIntent:
    """A provisional intent to communicate, derived from one collective call.

    Attributes
    ----------
    intent_id:
        Unique id assigned at interception time.
    collective:
        Collective type of the underlying call.
    group:
        Participating global ranks (ring / issue order).
    size_bytes:
        Per-rank input payload of the collective.
    parallelism:
        Parallelism axis (``"dp"``, ``"pp"``, ...), the key quantity Opus uses
        to detect parallelism shifts.
    rails:
        Rails the group's scale-out traffic will use (empty for intra-domain
        groups).
    issued_at:
        Time the application issued the call (simulation seconds).
    """

    intent_id: int
    collective: CollectiveType
    group: Tuple[int, ...]
    size_bytes: float
    parallelism: str
    rails: Tuple[int, ...]
    issued_at: float

    @property
    def group_key(self) -> FrozenSet[int]:
        """Order-insensitive group identity."""
        return frozenset(self.group)

    @property
    def is_scaleout(self) -> bool:
        """Whether the intent generates rail traffic."""
        return bool(self.rails)


def intent_from_collective(
    op: CollectiveOp, mesh: DeviceMesh, issued_at: float
) -> CommIntent:
    """Build a :class:`CommIntent` from an intercepted collective call."""
    scaleout = mesh.cluster is not None and mesh.is_scaleout_group(op.group)
    rails = mesh.rails_of_group(op.group) if scaleout else ()
    return CommIntent(
        intent_id=next(_INTENT_COUNTER),
        collective=op.collective,
        group=op.group,
        size_bytes=op.size_bytes,
        parallelism=op.parallelism,
        rails=rails,
        issued_at=issued_at,
    )


@dataclass
class DemandMatrix:
    """Per-rail domain-to-domain traffic demand aggregated from intents."""

    #: demand[rail][(src_domain, dst_domain)] = bytes (unordered pair, low first)
    demand: Dict[int, Dict[Tuple[int, int], float]] = field(default_factory=dict)

    def add_intent(self, intent: CommIntent, mesh: DeviceMesh) -> None:
        """Accumulate one intent into the matrix.

        Ring collectives contribute demand between consecutive group members'
        domains; Send/Recv contributes demand between its two endpoints.
        """
        if not intent.is_scaleout:
            return
        domains = [mesh.domain_of(rank) for rank in intent.group]
        total = total_traffic_bytes(
            CollectiveOp(
                collective=intent.collective,
                group=intent.group,
                size_bytes=intent.size_bytes,
                parallelism=intent.parallelism,
            )
        )
        pairs: List[Tuple[int, int]] = []
        if len(domains) == 2:
            pairs = [self._ordered(domains[0], domains[1])]
        else:
            pairs = [
                self._ordered(domains[i], domains[(i + 1) % len(domains)])
                for i in range(len(domains))
            ]
        if not pairs:
            return
        share = total / len(pairs)
        for rail in intent.rails:
            rail_demand = self.demand.setdefault(rail, {})
            for pair in pairs:
                rail_demand[pair] = rail_demand.get(pair, 0.0) + share

    def total_bytes(self) -> float:
        """Total demand across all rails."""
        return sum(sum(rail.values()) for rail in self.demand.values())

    def rails(self) -> Tuple[int, ...]:
        """Rails with any demand."""
        return tuple(sorted(self.demand))

    @staticmethod
    def _ordered(a: int, b: int) -> Tuple[int, int]:
        if a == b:
            raise ControlPlaneError("demand pairs must connect distinct domains")
        return (a, b) if a < b else (b, a)


def demand_matrix_from_intents(
    intents: Iterable[CommIntent], mesh: DeviceMesh
) -> DemandMatrix:
    """Aggregate a sequence of intents into a :class:`DemandMatrix`."""
    matrix = DemandMatrix()
    for intent in intents:
        matrix.add_intent(intent, mesh)
    return matrix
