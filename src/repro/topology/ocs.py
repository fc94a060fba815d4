"""Optical circuit switch (OCS) circuits and circuit configurations.

An OCS is a crossbar of optical ports: at any instant each port is connected
to at most one other port, forming point-to-point *circuits* with no packet
processing in between.  Reconfiguring the crossbar (tearing circuits down and
setting new ones up) takes the technology-dependent switching time surveyed
in the paper's Table 3.

This module holds the two value types the control plane passes around: a
:class:`Circuit` and an immutable :class:`CircuitConfiguration` (a set of
circuits one rail should carry).  Which circuits a rail actually carries is
recorded by :class:`~repro.topology.photonic.PhotonicRail`; the photonic
fabric (:mod:`repro.topology.photonic`) installs and tears them, and the Opus
controller (:mod:`repro.core.controller`) decides when.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, Iterable, Set, Tuple

from ..errors import CircuitConflictError, CircuitError


@dataclass(frozen=True)
class Circuit:
    """A single optical circuit between two OCS ports.

    Circuits are modelled as *duplex*: installing ``Circuit(a, b)`` connects
    port ``a`` to port ``b`` in both directions, matching how MEMS/piezo
    crossbars and bidirectional transceivers are deployed (paper Table 3).
    The pair is stored in normalized (sorted) order so ``Circuit(3, 7)`` and
    ``Circuit(7, 3)`` compare equal.
    """

    port_a: int
    port_b: int

    def __post_init__(self) -> None:
        if self.port_a == self.port_b:
            raise CircuitError("a circuit cannot loop a port back to itself")
        if self.port_a < 0 or self.port_b < 0:
            raise CircuitError("circuit ports must be non-negative")
        if self.port_a > self.port_b:
            low, high = self.port_b, self.port_a
            object.__setattr__(self, "port_a", low)
            object.__setattr__(self, "port_b", high)
        # Precomputed hash: circuits are dictionary keys all over the control
        # plane (installed sets, busy maps, per-circuit flow loads), and the
        # generated dataclass hash re-tuples the ports on every lookup.
        object.__setattr__(self, "_hash", hash((self.port_a, self.port_b)))

    def __hash__(self) -> int:
        return self._hash  # type: ignore[attr-defined]

    @property
    def ports(self) -> Tuple[int, int]:
        """The (low, high) port pair."""
        return (self.port_a, self.port_b)

    def __str__(self) -> str:
        return f"{self.port_a}<->{self.port_b}"


@dataclass(frozen=True)
class CircuitConfiguration:
    """An immutable set of circuits forming one crossbar configuration.

    A configuration is *valid* only if no port is used by more than one
    circuit.  Construction does not check this: the circuit planner checks
    each configuration it hands out once, with :meth:`validate`.
    """

    circuits: FrozenSet[Circuit]

    def __init__(self, circuits: Iterable[Circuit] = ()) -> None:
        object.__setattr__(self, "circuits", frozenset(circuits))

    def validate(self) -> "CircuitConfiguration":
        """Return this configuration; raise if a port carries two circuits."""
        used: Set[int] = set()
        for circuit in self.circuits:
            for port in circuit.ports:
                if port in used:
                    raise CircuitConflictError(
                        f"port {port} is used by more than one circuit"
                    )
                used.add(port)
        return self

    def union(self, other: "CircuitConfiguration") -> "CircuitConfiguration":
        """Merge two configurations (unvalidated; see :meth:`validate`)."""
        return CircuitConfiguration(self.circuits | other.circuits)

    def __len__(self) -> int:
        return len(self.circuits)

    def __iter__(self):
        return iter(sorted(self.circuits, key=lambda c: c.ports))

    def __str__(self) -> str:
        body = ", ".join(str(c) for c in self)
        return f"{{{body}}}"
