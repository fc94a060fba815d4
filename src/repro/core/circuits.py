"""Circuit planning: from communication groups to per-rail circuit configurations.

The Opus controller keeps a *circuit lookup table* (paper Fig. 6): for every
communication group (and, coalesced, for every parallelism axis) it knows
which circuits each rail's OCS must provide.  The :class:`CircuitPlanner`
builds and caches these configurations:

* **ring collectives** (AllReduce, AllGather, ReduceScatter, AllToAll-over-
  ring) need a ring over the scale-up domains of the group's members — a
  single duplex circuit for two-member groups, a full ring (two NIC ports per
  GPU) for larger groups;
* **Send/Recv** (pipeline parallelism) needs point-to-point circuits between
  adjacent stages; the per-axis coalesced configuration is the whole pipeline
  chain;
* the **per-axis configuration** of a rail is the union of the configurations
  of all groups of that axis that touch the rail.  When that union is not
  installable within the NIC's port budget (constraint C2/C3) the planner
  reports it as non-coalescable and the controller falls back to per-group
  reconfiguration.

The planner validates each configuration it hands out (no port carries two
circuits) once, when it builds it; :class:`CircuitConfiguration` itself does
not check on construction.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

from ..collectives.primitives import CollectiveOp, CollectiveType
from ..errors import CircuitConflictError, CircuitError, ControlPlaneError
from ..parallelism.groups import GroupRegistry
from ..parallelism.mesh import DeviceMesh
from ..topology.ocs import Circuit, CircuitConfiguration
from ..topology.photonic import PhotonicRailFabric, RailEndpoint


class CircuitPlanner:
    """Builds and caches circuit configurations for groups and axes."""

    def __init__(
        self,
        fabric: PhotonicRailFabric,
        mesh: DeviceMesh,
        registry: Optional[GroupRegistry] = None,
    ) -> None:
        self.fabric = fabric
        self.mesh = mesh
        self.registry = registry or GroupRegistry(mesh)
        self.ports_per_gpu = fabric.cluster.nic_port_config.num_ports
        self._group_cache: Dict[FrozenSet[int], Dict[int, CircuitConfiguration]] = {}
        self._axis_cache: Dict[str, Optional[Dict[int, CircuitConfiguration]]] = {}
        self._target_cache: Dict[
            Tuple[str, Tuple[int, ...]], Dict[int, CircuitConfiguration]
        ] = {}

    # ------------------------------------------------------------------ #
    # Per-group configurations
    # ------------------------------------------------------------------ #

    def configuration_for_group(
        self, ranks: Sequence[int], chain: bool = False
    ) -> Dict[int, CircuitConfiguration]:
        """Circuits needed by one communication group, per rail it touches.

        The result maps each rail to its circuits, keyed in ascending rail
        order; an intra-domain group touches no rail.

        Parameters
        ----------
        ranks:
            Member ranks in ring / pipeline order.
        chain:
            Build an open chain (pipeline) instead of a closed ring; the
            closing circuit is dropped, which saves one port pair on the two
            end domains.
        """
        key = frozenset(ranks)
        cache_key = key if not chain else frozenset(list(key) + [-1])
        if cache_key in self._group_cache:
            return self._group_cache[cache_key]

        per_rail: Dict[int, CircuitConfiguration] = {}
        if self.mesh.is_scaleout_group(ranks):
            rails = self.mesh.rails_of_group(ranks)
            for rail in rails:
                members = [r for r in ranks if self.mesh.rail_of(r) == rail]
                domains = [self.mesh.domain_of(r) for r in members]
                per_rail[rail] = self._rail_circuits(
                    rail, domains, chain=chain
                ).validate()
        self._group_cache[cache_key] = per_rail
        return per_rail

    def configuration_for_op(self, op: CollectiveOp) -> Dict[int, CircuitConfiguration]:
        """Circuits needed to serve one collective operation."""
        chain = op.collective == CollectiveType.SEND_RECV
        return self.configuration_for_group(op.group, chain=chain)

    def _rail_circuits(
        self, rail: int, domains: Sequence[int], chain: bool
    ) -> CircuitConfiguration:
        # Endpoint choice goes through the rail's healthy-port helpers:
        # failed OCS ports are permanently conflicting (fault injection), so
        # rings and pairs route through each domain's surviving NIC ports
        # and only raise when no healthy assignment exists.
        photonic_rail = self.fabric.rail(rail)
        unique = list(dict.fromkeys(domains))
        if len(unique) < 2:
            return CircuitConfiguration(())
        if len(unique) == 2:
            try:
                return photonic_rail.pairwise_configuration([(unique[0], unique[1])])
            except CircuitError as exc:
                raise ControlPlaneError(
                    f"rail {rail}: cannot route a circuit between domains "
                    f"{unique[0]} and {unique[1]} around failed OCS ports: "
                    f"{exc}"
                ) from exc
        if self.ports_per_gpu < 2:
            raise ControlPlaneError(
                f"a group spanning {len(unique)} domains needs two NIC ports per "
                f"GPU for a ring/chain on rail {rail}, but the NIC is in "
                f"{self.ports_per_gpu}-port configuration (constraints C1/C3)"
            )
        try:
            ports = {
                domain: photonic_rail.healthy_port_pair(domain, (0, 1))
                for domain in unique
            }
        except CircuitError as exc:
            raise ControlPlaneError(
                f"rail {rail}: cannot route a ring over domains {unique} "
                f"around failed OCS ports: {exc}"
            ) from exc
        circuits: List[Circuit] = []
        last = len(unique) - 1
        for index, domain in enumerate(unique):
            if chain and index == last:
                break
            next_domain = unique[(index + 1) % len(unique)]
            circuits.append(
                photonic_rail.circuit_between(
                    RailEndpoint(domain, ports[domain][1]),
                    RailEndpoint(next_domain, ports[next_domain][0]),
                )
            )
        return CircuitConfiguration(circuits)

    # ------------------------------------------------------------------ #
    # Per-axis (coalesced) configurations
    # ------------------------------------------------------------------ #

    def axis_configuration(self, axis: str) -> Optional[Dict[int, CircuitConfiguration]]:
        """The coalesced per-rail configuration serving every group of ``axis``.

        Returns ``None`` when the union is not installable within the NIC port
        budget (the controller then falls back to per-group reconfiguration).
        """
        if axis in self._axis_cache:
            return self._axis_cache[axis]
        groups = [g for g in self.registry.groups(axis) if g.scaleout]
        per_rail: Dict[int, CircuitConfiguration] = {}
        result: Optional[Dict[int, CircuitConfiguration]] = per_rail
        try:
            for group in groups:
                chain = axis == "pp"
                group_config = self.configuration_for_group(group.ranks, chain=chain)
                for rail, configuration in group_config.items():
                    existing = per_rail.get(rail, CircuitConfiguration(()))
                    per_rail[rail] = existing.union(configuration)
            for configuration in per_rail.values():
                configuration.validate()
        except (CircuitConflictError, ControlPlaneError):
            result = None
        self._axis_cache[axis] = result
        return result

    def target_for_op(self, op: CollectiveOp) -> Dict[int, CircuitConfiguration]:
        """The configuration the controller should install to serve ``op``.

        Prefers the coalesced per-axis configuration (fewer reconfigurations,
        Objective 2); falls back to the op's own group configuration when the
        axis is not coalescable.  Coalesced targets are memoized per
        ``(axis, group)``; their per-rail values are the axis cache's own
        objects, which the controller's identity-keyed memo relies on.
        """
        axis = op.parallelism
        if axis:
            key = (axis, op.group)
            target = self._target_cache.get(key)
            if target is not None:
                return target
            axis_config = self.axis_configuration(axis)
            if axis_config is not None:
                _, rails, scaleout = self.mesh.group_placement(op.group)
                target = {
                    rail: axis_config[rail]
                    for rail in (rails if scaleout else ())
                    if rail in axis_config
                }
                self._target_cache[key] = target
                return target
        return self.configuration_for_op(op)

    def clear_cache(self) -> None:
        """Drop all cached configurations (job layout change, OCS port failure)."""
        self._group_cache.clear()
        self._axis_cache.clear()
        self._target_cache.clear()
