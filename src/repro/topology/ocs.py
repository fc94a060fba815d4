"""Optical circuit switch (OCS) device model.

An OCS is a crossbar of optical ports: at any instant each input port is
connected to at most one output port, forming point-to-point *circuits* with no
packet processing in between.  Reconfiguring the crossbar (tearing circuits
down and setting new ones up) takes the technology-dependent switching time
surveyed in the paper's Table 3.

This module models a single OCS as a port-mapping state machine with strict
conflict checking.  The photonic rail fabric (:mod:`repro.topology.photonic`)
instantiates one (or more) OCS per rail and translates installed circuits into
topology links; the Opus controller (:mod:`repro.core.controller`) drives
reconfigurations against these objects.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List, Optional, Set, Tuple

from ..errors import CircuitConflictError, CircuitError
from .devices import OCSTechnology, PIEZO_POLATIS


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

    def uses_port(self, port: int) -> bool:
        """Return whether this circuit terminates on ``port``."""
        return port in (self.port_a, self.port_b)

    def __str__(self) -> str:
        return f"{self.port_a}<->{self.port_b}"


def _normalize(circuits: Iterable[Circuit]) -> FrozenSet[Circuit]:
    return frozenset(circuits)


@dataclass(frozen=True)
class CircuitConfiguration:
    """An immutable set of circuits forming one crossbar configuration.

    A configuration is *valid* only if no port is used by more than one
    circuit; validity is checked at construction time.
    """

    circuits: FrozenSet[Circuit]

    def __init__(self, circuits: Iterable[Circuit] = ()) -> None:
        normalized = _normalize(circuits)
        used: Set[int] = set()
        for circuit in normalized:
            for port in circuit.ports:
                if port in used:
                    raise CircuitConflictError(
                        f"port {port} is used by more than one circuit"
                    )
                used.add(port)
        object.__setattr__(self, "circuits", normalized)

    @property
    def ports_in_use(self) -> FrozenSet[int]:
        """All ports terminated by some circuit in this configuration."""
        return frozenset(
            port for circuit in self.circuits for port in circuit.ports
        )

    def peer_of(self, port: int) -> Optional[int]:
        """Return the port connected to ``port``, or ``None`` if unconnected."""
        for circuit in self.circuits:
            if circuit.port_a == port:
                return circuit.port_b
            if circuit.port_b == port:
                return circuit.port_a
        return None

    def union(self, other: "CircuitConfiguration") -> "CircuitConfiguration":
        """Merge two configurations; raises on port conflicts."""
        return CircuitConfiguration(self.circuits | other.circuits)

    def conflicts_with(self, other: "CircuitConfiguration") -> FrozenSet[int]:
        """Return ports that would be double-booked by merging with ``other``.

        A port is *not* a conflict if both configurations connect it to the
        same peer (the circuit is simply shared).
        """
        conflicts: Set[int] = set()
        for port in self.ports_in_use & other.ports_in_use:
            if self.peer_of(port) != other.peer_of(port):
                conflicts.add(port)
        return frozenset(conflicts)

    def delta(
        self, target: "CircuitConfiguration"
    ) -> Tuple[FrozenSet[Circuit], FrozenSet[Circuit]]:
        """Return ``(to_tear_down, to_set_up)`` to move from ``self`` to ``target``."""
        tear_down = self.circuits - target.circuits
        set_up = target.circuits - self.circuits
        return frozenset(tear_down), frozenset(set_up)

    def __len__(self) -> int:
        return len(self.circuits)

    def __iter__(self):
        return iter(sorted(self.circuits, key=lambda c: c.ports))

    def __str__(self) -> str:
        body = ", ".join(str(c) for c in self)
        return f"{{{body}}}"


class OpticalCircuitSwitch:
    """A single OCS crossbar with conflict-checked circuit state.

    Parameters
    ----------
    name:
        Unique switch name (e.g. ``"rail0.ocs0"``).
    technology:
        The OCS technology, which supplies the radix and switching time.
    """

    def __init__(
        self, name: str, technology: OCSTechnology = PIEZO_POLATIS
    ) -> None:
        self.name = name
        self.technology = technology
        self._port_to_peer: Dict[int, int] = {}
        self._reconfiguration_count = 0
        self._failed_ports: Set[int] = set()

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #

    @property
    def radix(self) -> int:
        """Number of ports on the crossbar."""
        return self.technology.radix

    @property
    def reconfiguration_time(self) -> float:
        """Technology switching time in seconds."""
        return self.technology.reconfiguration_time

    @property
    def reconfiguration_count(self) -> int:
        """Number of reconfiguration operations applied so far."""
        return self._reconfiguration_count

    @property
    def installed(self) -> CircuitConfiguration:
        """The currently installed circuit configuration."""
        circuits = {
            Circuit(a, b) for a, b in self._port_to_peer.items() if a < b
        }
        return CircuitConfiguration(circuits)

    def peer_of(self, port: int) -> Optional[int]:
        """Return the port currently circuit-connected to ``port``."""
        self._check_port(port)
        return self._port_to_peer.get(port)

    def is_connected(self, port_a: int, port_b: int) -> bool:
        """Return whether a circuit between the two ports is installed."""
        self._check_port(port_a)
        self._check_port(port_b)
        return self._port_to_peer.get(port_a) == port_b

    def free_ports(self) -> List[int]:
        """Return the healthy ports not used by any installed circuit."""
        return [
            p
            for p in range(self.radix)
            if p not in self._port_to_peer and p not in self._failed_ports
        ]

    @property
    def failed_ports(self) -> FrozenSet[int]:
        """Ports taken out of service by fault injection."""
        return frozenset(self._failed_ports)

    def port_failed(self, port: int) -> bool:
        """Whether ``port`` has failed (fault injection)."""
        self._check_port(port)
        return port in self._failed_ports

    # ------------------------------------------------------------------ #
    # Mutation
    # ------------------------------------------------------------------ #

    def fail_port(self, port: int) -> Optional[Circuit]:
        """Take ``port`` out of service permanently (fault injection).

        Any circuit terminating on the port is torn down and returned;
        further installs touching the port raise :class:`CircuitError`.  A
        failed port stays failed across :meth:`clear` — it is a hardware
        fault, not crossbar state.
        """
        self._check_port(port)
        self._failed_ports.add(port)
        peer = self._port_to_peer.get(port)
        if peer is None:
            return None
        victim = Circuit(port, peer)
        self.tear_down(victim)
        return victim

    def install(self, circuit: Circuit) -> None:
        """Install one circuit; raises :class:`CircuitConflictError` on conflict."""
        for port in circuit.ports:
            self._check_port(port)
            if port in self._failed_ports:
                raise CircuitError(
                    f"{self.name}: port {port} has failed and cannot carry "
                    f"circuit {circuit}"
                )
            peer = self._port_to_peer.get(port)
            if peer is not None and not circuit.uses_port(peer):
                raise CircuitConflictError(
                    f"{self.name}: port {port} already connected to {peer}"
                )
        self._port_to_peer[circuit.port_a] = circuit.port_b
        self._port_to_peer[circuit.port_b] = circuit.port_a

    def tear_down(self, circuit: Circuit) -> None:
        """Remove one installed circuit; raises if it is not installed."""
        if not self.is_connected(circuit.port_a, circuit.port_b):
            raise CircuitError(
                f"{self.name}: circuit {circuit} is not installed"
            )
        del self._port_to_peer[circuit.port_a]
        del self._port_to_peer[circuit.port_b]

    def apply(self, target: CircuitConfiguration) -> Tuple[int, int]:
        """Reconfigure the crossbar to exactly ``target``.

        Returns ``(num_torn_down, num_set_up)``.  Circuits present in both the
        installed and the target configuration are left untouched (their
        traffic is not disturbed), matching the paper's Objective 3.
        """
        for circuit in target.circuits:
            for port in circuit.ports:
                self._check_port(port)
        tear_down, set_up = self.installed.delta(target)
        for circuit in tear_down:
            self.tear_down(circuit)
        for circuit in set_up:
            self.install(circuit)
        if tear_down or set_up:
            self._reconfiguration_count += 1
        return len(tear_down), len(set_up)

    def clear(self) -> None:
        """Tear down every installed circuit."""
        self._port_to_peer.clear()

    def _check_port(self, port: int) -> None:
        if not 0 <= port < self.radix:
            raise CircuitError(
                f"{self.name}: port {port} outside radix {self.radix}"
            )

    def __repr__(self) -> str:
        return (
            f"OpticalCircuitSwitch(name={self.name!r}, "
            f"technology={self.technology.name!r}, "
            f"circuits={len(self.installed)})"
        )
