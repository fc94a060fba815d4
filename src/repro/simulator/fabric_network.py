"""Topology-backed network models for packet fabrics.

The models in :mod:`repro.simulator.network` price every scale-out collective
at the NIC port line rate, which is exact for fully-provisioned rails but
ignores the internal structure of multi-tier packet fabrics.  This module adds
:class:`NetworkModel` implementations that resolve actual paths through a
:class:`~repro.topology.base.Topology` graph:

:class:`TopologyNetworkModel` routes every communication group's ring hops
through the fabric graph, counts how many concurrent ring flows share each
link, and derives oversubscription-aware alpha–beta
:class:`~repro.collectives.cost_model.LinkParameters` (bottleneck bandwidth
divided by the sharing factor, latency of the longest path) fed to the same
ring cost model the baselines use.  The ``fattree`` and ``railopt`` backends
run it on the graphs of :mod:`repro.topology.fattree` and
:mod:`repro.topology.railopt`.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from ..collectives.cost_model import LinkParameters
from ..errors import ConfigurationError
from ..parallelism.dag import Operation
from ..parallelism.mesh import DeviceMesh
from ..topology.base import Link, Topology
from ..topology.devices import ClusterSpec
from .network import CommTiming, NetworkModel
from .routing import RouteTable


class TopologyNetworkModel(NetworkModel):
    """Price scale-out collectives by resolving paths through a fabric graph.

    For a communication group the ring algorithm sends along consecutive
    (rank, successor) pairs; pairs inside one scale-up domain ride the
    NVLink interconnect and never touch the fabric.  Every cross-domain pair
    is routed on its shortest path by the model's
    :class:`~repro.simulator.routing.RouteTable`; the
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
        #: Every route this model resolves.
        self.route_table = RouteTable(topology, mesh)
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

    def _ring_paths(self, group: Tuple[int, ...]) -> List[Tuple[Link, ...]]:
        """Routes of the group's cross-domain ring hops, one per directed pair.

        Raises :class:`SimulationError` naming both ranks for a hop with no
        route.
        """
        paths: List[Tuple[Link, ...]] = []
        size = len(group)
        for index, rank in enumerate(group):
            successor = group[(index + 1) % size]
            if successor == rank:
                continue
            if self.mesh.domain_of(rank) == self.mesh.domain_of(successor):
                continue  # intra-domain hop: stays on the scale-up interconnect
            paths.append(self.route_table.path(rank, successor))
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
