"""Scale-up (high-bandwidth, intra-domain) interconnect builder.

A scale-up domain is one DGX/HGX node or one GB200 NVL72 rack: all GPUs inside
it are connected through NVLink/NVSwitch at hundreds of GB/s.  In the paper's
design the scale-up interconnect is left untouched — TP (and SP) collectives
stay inside it, and it additionally serves as the forwarding substrate for
cross-rank traffic (PXN-style) when the photonic rail cannot provide a direct
circuit.

The builder models each domain as a non-blocking NVSwitch star: every GPU has a
bidirectional link to the domain's NVSwitch node with the domain's per-GPU
interconnect bandwidth.  This captures the two properties the rest of the
library relies on: (a) full connectivity inside the domain and (b) a per-GPU
bandwidth cap.
"""

from __future__ import annotations

from .base import LinkKind, NodeKind, Topology, gpu_node_name
from .devices import ClusterSpec


def nvswitch_node_name(domain: int) -> str:
    """Canonical node name for the NVSwitch of a scale-up domain."""
    return f"domain{domain}.nvswitch"


def add_scaleup_domains(topology: Topology, cluster: ClusterSpec) -> None:
    """Add all scale-up domains of ``cluster`` (GPUs + NVSwitches) to ``topology``.

    Idempotence is not attempted: calling this twice on the same topology
    raises because the GPU nodes already exist.
    """
    spec = cluster.scaleup
    for domain in range(cluster.num_domains):
        switch_name = nvswitch_node_name(domain)
        topology.add_node(switch_name, NodeKind.NVSWITCH, domain=domain)
        for local_rank in range(spec.gpus_per_domain):
            gpu_id = cluster.gpu_id(domain, local_rank)
            gpu_name = gpu_node_name(gpu_id)
            topology.add_node(
                gpu_name,
                NodeKind.GPU,
                gpu_id=gpu_id,
                domain=domain,
                local_rank=local_rank,
                rail=local_rank,
            )
            topology.add_bidirectional_link(
                gpu_name,
                switch_name,
                bandwidth=spec.interconnect_bandwidth,
                latency=spec.interconnect_latency,
                kind=LinkKind.SCALE_UP,
            )
