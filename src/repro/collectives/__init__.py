"""Collective communication primitives, algorithms, and cost models.

* :mod:`repro.collectives.primitives` — collective types, per-op metadata, and
  wire-traffic formulas.
* :mod:`repro.collectives.cost_model` — alpha–beta ring and tree cost models.
* :mod:`repro.collectives.schedule` — expansion of collectives into per-step
  point-to-point transfer schedules (ring and direct AllToAll), used by the flow-level simulator.
"""

from .cost_model import (
    LinkParameters,
    RingCostModel,
    TreeCostModel,
)
from .primitives import (
    CollectiveOp,
    CollectiveType,
    bytes_on_wire_per_rank,
    num_ring_steps,
    total_traffic_bytes,
)
from .schedule import (
    Schedule,
    Transfer,
    TransferStep,
    direct_alltoall_schedule,
    expand,
    ring_schedule,
)

__all__ = [
    "CollectiveOp",
    "CollectiveType",
    "LinkParameters",
    "RingCostModel",
    "Schedule",
    "Transfer",
    "TransferStep",
    "TreeCostModel",
    "bytes_on_wire_per_rank",
    "direct_alltoall_schedule",
    "expand",
    "num_ring_steps",
    "ring_schedule",
    "total_traffic_bytes",
]
