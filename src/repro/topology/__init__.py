"""Network topology substrates: devices, fabrics, and optical circuits.

The subpackage provides everything below the control plane:

* :mod:`repro.topology.devices` — hardware profiles (GPUs, scale-up domains,
  NICs, transceivers, electrical switches, OCS technologies from Table 3) and
  the :class:`~repro.topology.devices.ClusterSpec` cluster description.
* :mod:`repro.topology.base` — the generic topology graph.
* :mod:`repro.topology.scaleup` — scale-up (NVLink/NVSwitch) domains.
* :mod:`repro.topology.railopt` — the electrical rail-optimized baseline.
* :mod:`repro.topology.electrical` — fully-connected rail graph backing the
  electrical backend's flow-level network mode.
* :mod:`repro.topology.fattree` — the fat-tree baseline.
* :mod:`repro.topology.photonic` — the proposed photonic rail fabric; each
  rail records its installed circuits and failed OCS ports.
* :mod:`repro.topology.ocs` — the circuit and circuit-configuration value
  types.
"""

from .base import Link, LinkKind, Node, NodeKind, Topology, gpu_node_name, nic_port_node_name
from .devices import (
    CONNECTX7,
    DGX_H100,
    DGX_H200,
    GB200_NVL72,
    GPU_CATALOG,
    NIC_CATALOG,
    OCS_CATALOG,
    OCS_TECHNOLOGIES,
    PERLMUTTER_NODE,
    PIEZO_POLATIS,
    SCALEUP_CATALOG,
    TOMAHAWK4_64X400G,
    TRANSCEIVER_400G,
    ClusterSpec,
    ElectricalSwitchSpec,
    GPUSpec,
    NICPortConfig,
    NICSpec,
    OCSTechnology,
    ScaleUpDomainSpec,
    TransceiverSpec,
    dgx_h200_cluster,
    perlmutter_testbed,
)
from .electrical import build_fully_connected_rail_topology
from .fattree import FatTreeFabric, build_fat_tree_fabric, fat_tree_inventory
from .ocs import Circuit, CircuitConfiguration
from .photonic import (
    PhotonicRail,
    PhotonicRailFabric,
    RailEndpoint,
    build_photonic_rail_fabric,
    photonic_rail_inventory,
)
from .railopt import (
    FabricInventory,
    RailOptimizedFabric,
    build_rail_optimized_fabric,
    rail_optimized_inventory,
)

__all__ = [
    "Circuit",
    "CircuitConfiguration",
    "ClusterSpec",
    "CONNECTX7",
    "DGX_H100",
    "DGX_H200",
    "ElectricalSwitchSpec",
    "FabricInventory",
    "FatTreeFabric",
    "GB200_NVL72",
    "GPUSpec",
    "GPU_CATALOG",
    "Link",
    "LinkKind",
    "NICPortConfig",
    "NICSpec",
    "NIC_CATALOG",
    "Node",
    "NodeKind",
    "OCSTechnology",
    "OCS_CATALOG",
    "OCS_TECHNOLOGIES",
    "PERLMUTTER_NODE",
    "PIEZO_POLATIS",
    "PhotonicRail",
    "PhotonicRailFabric",
    "RailEndpoint",
    "RailOptimizedFabric",
    "SCALEUP_CATALOG",
    "ScaleUpDomainSpec",
    "TOMAHAWK4_64X400G",
    "TRANSCEIVER_400G",
    "Topology",
    "TransceiverSpec",
    "build_fat_tree_fabric",
    "build_fully_connected_rail_topology",
    "build_photonic_rail_fabric",
    "build_rail_optimized_fabric",
    "dgx_h200_cluster",
    "fat_tree_inventory",
    "gpu_node_name",
    "nic_port_node_name",
    "perlmutter_testbed",
    "photonic_rail_inventory",
    "rail_optimized_inventory",
]
