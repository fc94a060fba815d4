"""Communication groups: the logical constructs NCCL manages per parallelism axis.

A :class:`CommunicationGroup` is a named, ordered set of ranks belonging to one
parallelism axis, plus the placement facts the control plane needs: which
scale-up domains and rails it spans and whether it produces scale-out traffic.
The :class:`GroupRegistry` builds every group of a job from its
:class:`~repro.parallelism.mesh.DeviceMesh` and gives them stable identifiers,
mirroring the "communication group table" the Opus controller keeps (Fig. 6).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from ..errors import ConfigurationError
from .mesh import AXIS_ORDER, DeviceMesh


@dataclass(frozen=True)
class CommunicationGroup:
    """One communication group (one NCCL communicator).

    Attributes
    ----------
    name:
        Stable identifier, e.g. ``"dp.2"`` for the third data-parallel group.
    axis:
        Parallelism axis (``"tp"``, ``"dp"``, ``"pp"``, ``"cp"``, ``"ep"``).
    ranks:
        Member ranks in ring order.
    domains:
        Scale-up domains spanned, sorted.
    rails:
        Rails spanned, sorted (empty when the group never touches a rail).
    scaleout:
        Whether the group spans more than one scale-up domain.
    """

    name: str
    axis: str
    ranks: Tuple[int, ...]
    domains: Tuple[int, ...]
    rails: Tuple[int, ...]
    scaleout: bool

    @property
    def size(self) -> int:
        """Number of member ranks."""
        return len(self.ranks)


class GroupRegistry:
    """All communication groups of one job, indexed by axis."""

    def __init__(self, mesh: DeviceMesh) -> None:
        self.mesh = mesh
        self._by_axis: Dict[str, List[CommunicationGroup]] = {}
        self._build()

    def _build(self) -> None:
        for axis in AXIS_ORDER:
            if self.mesh.size(axis) <= 1:
                self._by_axis[axis] = []
                continue
            groups: List[CommunicationGroup] = []
            for index, ranks in enumerate(self.mesh.groups_along(axis)):
                if self.mesh.cluster is not None:
                    domains, rails, scaleout = self.mesh.group_placement(ranks)
                else:
                    domains = ()
                    rails = ()
                    scaleout = True
                group = CommunicationGroup(
                    name=f"{axis}.{index}",
                    axis=axis,
                    ranks=ranks,
                    domains=domains,
                    rails=rails if scaleout else (),
                    scaleout=scaleout,
                )
                groups.append(group)
            self._by_axis[axis] = groups

    # ------------------------------------------------------------------ #
    # Lookup
    # ------------------------------------------------------------------ #

    def groups(self, axis: str) -> List[CommunicationGroup]:
        """Every group along one axis."""
        if axis not in self._by_axis:
            raise ConfigurationError(f"unknown axis {axis!r}")
        return list(self._by_axis[axis])

    def __len__(self) -> int:
        return sum(len(groups) for groups in self._by_axis.values())

    def __repr__(self) -> str:
        per_axis = {
            axis: len(groups) for axis, groups in self._by_axis.items() if groups
        }
        return f"GroupRegistry({per_axis})"
