"""Topology-backed network models: packet fabrics and bare OCS rails.

The models in :mod:`repro.simulator.network` price every scale-out collective
at the NIC port line rate, which is exact for fully-provisioned rails but
ignores the internal structure of multi-tier packet fabrics.  This module adds
:class:`NetworkModel` implementations that resolve actual paths through a
:class:`~repro.topology.base.Topology` graph:

* :class:`TopologyNetworkModel` — the generic machinery: for every
  communication group it routes the group's ring hops through the fabric
  graph, counts how many concurrent ring flows share each link, and derives
  oversubscription-aware alpha–beta :class:`~repro.collectives.cost_model.LinkParameters`
  (bottleneck bandwidth divided by the sharing factor, latency of the longest
  path) fed to the same ring cost model the baselines use.
* :class:`FatTreeNetworkModel` — transfers routed through the sliced
  full-bisection fat tree of :mod:`repro.topology.fattree`.
* :class:`RailOptimizedNetworkModel` — transfers routed through the
  leaf/spine rail-optimized fabric of :mod:`repro.topology.railopt`.
* :class:`OCSReconfigurableNetworkModel` — bare OCS rails *without* the Opus
  control plane: each rail serves one circuit schedule at a time and every
  schedule change charges the full technology switching delay on the critical
  path (the "reconfigure on demand" envelope of Fig. 8).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..collectives.cost_model import LinkParameters
from ..errors import ConfigurationError
from ..parallelism.dag import Operation
from ..parallelism.mesh import DeviceMesh
from ..parallelism.trace import ReconfigRecord
from ..topology.base import Link, Topology, gpu_node_name
from ..topology.devices import ClusterSpec, OCSTechnology
from ..topology.fattree import FatTreeFabric, build_fat_tree_fabric
from ..topology.photonic import PhotonicRail
from ..topology.railopt import RailOptimizedFabric, build_rail_optimized_fabric
from .network import CommTiming, NetworkModel


class TopologyNetworkModel(NetworkModel):
    """Price scale-out collectives by resolving paths through a fabric graph.

    For a communication group the ring algorithm sends along consecutive
    (rank, successor) pairs; pairs inside one scale-up domain ride the
    NVLink interconnect and never touch the fabric.  Every cross-domain pair
    is routed with :meth:`~repro.topology.base.Topology.shortest_path`; the
    effective per-flow bandwidth is the minimum over all traversed links of
    ``link.bandwidth / flows_sharing_the_link``, which makes oversubscribed
    uplinks (spine tiers, partially-provisioned cores) slow the ring down
    exactly as fair sharing would.
    """

    def __init__(
        self,
        cluster: ClusterSpec,
        mesh: DeviceMesh,
        topology: Topology,
    ) -> None:
        super().__init__(cluster, mesh)
        self.topology = topology
        self._group_links: Dict[Tuple[int, ...], LinkParameters] = {}
        #: Topology version the group-parameter cache was built at; fault
        #: injection degrades and fails links mid-run, and bottleneck
        #: parameters computed against the healthy capacities must not
        #: survive that.
        self._group_links_version = topology.version

    def install_fault_plan(self, plan) -> None:
        """Bind a fault plan, running its injector inline (analytic mode).

        Link events mutate this model's topology; :meth:`timing` advances
        the injector to each collective's ready time before pricing, so
        degraded capacities and failed links reshape the bottleneck
        arithmetic (and reroute the ring hops) from that instant on.
        """
        from .faults import FaultInjector

        self.fault_injector = FaultInjector(plan, topology=self.topology)

    # ------------------------------------------------------------------ #
    # Path resolution
    # ------------------------------------------------------------------ #

    def _ring_paths(self, group: Tuple[int, ...]) -> List[List[Link]]:
        """Routes of the group's cross-domain ring hops, one per directed pair."""
        paths: List[List[Link]] = []
        size = len(group)
        for index, rank in enumerate(group):
            successor = group[(index + 1) % size]
            if successor == rank:
                continue
            if self.mesh.domain_of(rank) == self.mesh.domain_of(successor):
                continue  # intra-domain hop: stays on the scale-up interconnect
            paths.append(
                self.topology.shortest_path(
                    gpu_node_name(self.mesh.gpu_of(rank)),
                    gpu_node_name(self.mesh.gpu_of(successor)),
                )
            )
        return paths

    def group_link_parameters(self, group: Tuple[int, ...]) -> LinkParameters:
        """Effective alpha–beta link parameters for one communication group.

        Cached per group, keyed on the topology version: a fault event that
        degrades or fails a link invalidates every cached bottleneck.
        """
        version = self.topology.version
        if version != self._group_links_version:
            self._group_links.clear()
            self._group_links_version = version
        cached = self._group_links.get(group)
        if cached is not None:
            return cached
        paths = self._ring_paths(group)
        if not paths:
            raise ConfigurationError(
                f"group {group} is scale-out but has no cross-domain ring hop"
            )
        usage: Dict[Tuple[str, str, int], int] = {}
        for path in paths:
            for link in path:
                usage[link.key] = usage.get(link.key, 0) + 1
        bottleneck = min(
            link.bandwidth / usage[link.key] for path in paths for link in path
        )
        latency = max(self.topology.path_latency(path) for path in paths)
        parameters = LinkParameters(bandwidth=bottleneck, latency=latency)
        self._group_links[group] = parameters
        return parameters

    # ------------------------------------------------------------------ #
    # NetworkModel interface
    # ------------------------------------------------------------------ #

    def _scaleout_duration(self, operation: Operation) -> float:
        assert operation.collective is not None
        link = self.group_link_parameters(operation.collective.group)
        return self._ring.collective_time(operation.collective, link)

    def timing(self, operation: Operation, ready_time: float) -> CommTiming:
        if self.fault_injector is not None and self.fault_injector.inline:
            # List scheduling prices collectives in non-decreasing ready
            # order, so applying every fault event up to the ready time here
            # gives the analytic mode its time-domain fault semantics.
            self.fault_injector.advance_to(ready_time)
        duration = self.transfer_duration(operation)
        return CommTiming(start=ready_time, end=ready_time + duration)


class FatTreeNetworkModel(TopologyNetworkModel):
    """Scale-out transfers routed through the k-ary fat-tree fabric."""

    def __init__(
        self,
        cluster: ClusterSpec,
        mesh: DeviceMesh,
        fabric: Optional[FatTreeFabric] = None,
        oversubscription: float = 1.0,
    ) -> None:
        if fabric is not None and oversubscription != 1.0:
            raise ConfigurationError(
                "pass either a prebuilt fabric or an oversubscription factor; "
                "a provided fabric's link capacities are used as-is"
            )
        fabric = fabric or build_fat_tree_fabric(
            cluster, oversubscription=oversubscription
        )
        if fabric.cluster != cluster:
            raise ConfigurationError(
                "the fat-tree fabric must be built from the same cluster "
                "specification as the network model"
            )
        self.fabric = fabric
        super().__init__(cluster, mesh, fabric.topology)


class RailOptimizedNetworkModel(TopologyNetworkModel):
    """Scale-out transfers routed through the electrical rail-optimized fabric."""

    def __init__(
        self,
        cluster: ClusterSpec,
        mesh: DeviceMesh,
        fabric: Optional[RailOptimizedFabric] = None,
        always_spine: bool = True,
    ) -> None:
        fabric = fabric or build_rail_optimized_fabric(cluster, always_spine=always_spine)
        if fabric.cluster != cluster:
            raise ConfigurationError(
                "the rail-optimized fabric must be built from the same cluster "
                "specification as the network model"
            )
        self.fabric = fabric
        super().__init__(cluster, mesh, fabric.topology)


class OCSReconfigurableNetworkModel(NetworkModel):
    """Bare OCS rails: every circuit-schedule change blocks for the switch time.

    This is the photonic data plane *without* Opus: no profiling, no
    provisioning, no phase coalescing.  Each rail's crossbar holds the circuits
    of exactly one communication schedule (the ring over the domains of the
    group it last served); whenever a scale-out collective arrives whose
    domain set differs from what a rail has installed, the model tears the old
    circuits down, sets the new ring up, and charges the full reconfiguration
    delay before the transfer may start.  Groups whose schedule is already
    installed start immediately, so a single-group workload pays the delay
    once and an alternating multi-group workload pays it on every switch —
    the behaviour the paper's Fig. 8 "no provisioning" curve upper-bounds.
    """

    def __init__(
        self,
        cluster: ClusterSpec,
        mesh: DeviceMesh,
        reconfiguration_delay: Optional[float] = None,
        technology: Optional[OCSTechnology] = None,
    ) -> None:
        super().__init__(cluster, mesh)
        technology = technology or cluster.ocs
        if reconfiguration_delay is None:
            reconfiguration_delay = technology.reconfiguration_time
        if not isinstance(reconfiguration_delay, (int, float)):
            raise ConfigurationError(
                f"reconfiguration_delay must be a number in seconds, got "
                f"{reconfiguration_delay!r}"
            )
        if reconfiguration_delay < 0:
            raise ConfigurationError("reconfiguration_delay must be non-negative")
        self.reconfiguration_delay = reconfiguration_delay
        self._rails: Dict[int, PhotonicRail] = {
            rail: PhotonicRail(rail, cluster, technology=technology)
            for rail in range(cluster.num_rails)
        }
        self._installed_domains: Dict[int, Tuple[int, ...]] = {}
        self.total_reconfigurations = 0

    def rail(self, rail: int) -> PhotonicRail:
        """Return the :class:`PhotonicRail` backing rail index ``rail``."""
        if rail not in self._rails:
            raise ConfigurationError(f"rail {rail} does not exist")
        return self._rails[rail]

    def install_fault_plan(self, plan) -> None:
        """Bind a fault plan (inline); supports OCS port failures."""
        from .faults import FaultInjector

        injector = FaultInjector(plan)
        injector.on_port_failed = self._apply_port_failure
        self.fault_injector = injector

    def _apply_port_failure(self, event, now: float) -> None:
        photonic_rail = self.rail(event.rail)
        victim = photonic_rail.fail_port(event.port)
        if victim is not None:
            # The installed schedule lost a circuit; forget it so the next
            # collective reinstalls (routing around the failed port).
            self._installed_domains.pop(event.rail, None)

    def _install(self, rail: int, domains: Tuple[int, ...]) -> int:
        """Reconfigure ``rail`` to a ring over ``domains``; return circuits changed."""
        photonic_rail = self._rails[rail]
        self._installed_domains[rail] = domains
        if len(domains) >= 3 and photonic_rail.ports_per_gpu < 2:
            # A 3+-member ring needs two ports per GPU (constraint C1/C3);
            # with one port the rail time-shares pairwise circuits instead, so
            # the whole crossbar state is replaced.
            photonic_rail.ocs.clear()
            return len(domains)
        nic_ports = tuple(range(min(2, photonic_rail.ports_per_gpu)))
        configuration = photonic_rail.ring_configuration(domains, nic_ports=nic_ports)
        torn_down, set_up = photonic_rail.ocs.apply(configuration)
        return torn_down + set_up

    def timing(self, operation: Operation, ready_time: float) -> CommTiming:
        assert operation.collective is not None
        if self.fault_injector is not None and self.fault_injector.inline:
            self.fault_injector.advance_to(ready_time)
        duration = self.transfer_duration(operation)
        if not self.is_scaleout(operation):
            return CommTiming(start=ready_time, end=ready_time + duration)
        group = operation.collective.group
        domains = self.mesh.domains_of_group(group)
        records: List[ReconfigRecord] = []
        for rail in self.mesh.rails_of_group(group):
            if self._installed_domains.get(rail) == domains:
                continue
            changed = self._install(rail, domains)
            self.total_reconfigurations += 1
            records.append(
                ReconfigRecord(
                    rail=rail,
                    start=ready_time,
                    end=ready_time + self.reconfiguration_delay,
                    provisioned=False,
                    blocking=self.reconfiguration_delay,
                    group_name=operation.collective.parallelism or "",
                    num_circuits_changed=changed,
                )
            )
        # Rails switch in parallel, so one delay covers all of them.
        start = ready_time + (self.reconfiguration_delay if records else 0.0)
        return CommTiming(start=start, end=start + duration, reconfigs=tuple(records))
