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
from typing import Dict, FrozenSet, Iterable, List, Optional, Tuple

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

    @property
    def key(self) -> FrozenSet[int]:
        """Order-insensitive identity of the member set."""
        return frozenset(self.ranks)

    def __contains__(self, rank: object) -> bool:
        return rank in self.ranks

    def neighbors_of(self, rank: int) -> Tuple[int, int]:
        """Return the (previous, next) ring neighbors of ``rank`` in this group."""
        if rank not in self.ranks:
            raise ConfigurationError(f"rank {rank} is not in group {self.name!r}")
        index = self.ranks.index(rank)
        prev_rank = self.ranks[(index - 1) % self.size]
        next_rank = self.ranks[(index + 1) % self.size]
        return prev_rank, next_rank


class GroupRegistry:
    """All communication groups of one job, indexed by axis, rank, and member set."""

    def __init__(self, mesh: DeviceMesh) -> None:
        self.mesh = mesh
        self._groups: Dict[str, CommunicationGroup] = {}
        self._by_axis: Dict[str, List[CommunicationGroup]] = {}
        self._by_key: Dict[FrozenSet[int], CommunicationGroup] = {}
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
                self._groups[group.name] = group
                self._by_key[group.key] = group
            self._by_axis[axis] = groups

    # ------------------------------------------------------------------ #
    # Lookup
    # ------------------------------------------------------------------ #

    def all_groups(self) -> List[CommunicationGroup]:
        """Every group of the job, ordered by axis then index."""
        return [group for axis in AXIS_ORDER for group in self._by_axis.get(axis, [])]

    def groups(self, axis: str) -> List[CommunicationGroup]:
        """Every group along one axis."""
        if axis not in self._by_axis:
            raise ConfigurationError(f"unknown axis {axis!r}")
        return list(self._by_axis[axis])

    def by_name(self, name: str) -> CommunicationGroup:
        """Return the group called ``name``."""
        if name not in self._groups:
            raise ConfigurationError(f"unknown communication group {name!r}")
        return self._groups[name]

    def by_members(self, ranks: Iterable[int]) -> CommunicationGroup:
        """Return the group whose member set equals ``ranks``."""
        key = frozenset(ranks)
        if key not in self._by_key:
            raise ConfigurationError(f"no communication group with members {sorted(key)}")
        return self._by_key[key]

    def find_by_members(self, ranks: Iterable[int]) -> Optional[CommunicationGroup]:
        """Like :meth:`by_members` but returns ``None`` when not found."""
        return self._by_key.get(frozenset(ranks))

    def group_of(self, axis: str, rank: int) -> CommunicationGroup:
        """Return the group of ``rank`` along ``axis``."""
        for group in self.groups(axis):
            if rank in group:
                return group
        raise ConfigurationError(f"rank {rank} has no group along axis {axis!r}")

    def scaleout_groups(self) -> List[CommunicationGroup]:
        """Every group whose collectives traverse the rails."""
        return [group for group in self.all_groups() if group.scaleout]

    def groups_on_rail(self, rail: int) -> List[CommunicationGroup]:
        """Every scale-out group whose members attach to ``rail``."""
        return [group for group in self.scaleout_groups() if rail in group.rails]

    def max_scaleout_degree(self) -> int:
        """Worst-case number of simultaneous ring neighbors a rank needs.

        Each scale-out group a rank belongs to contributes two ring neighbors
        (one for size-2 groups); this is the per-GPU degree requirement the
        paper's §3 derives (six for 3D parallelism with ring collectives).
        """
        worst = 0
        for rank in self.mesh.ranks():
            degree = 0
            for group in self.scaleout_groups():
                if rank in group:
                    degree += 1 if group.size == 2 else 2
            worst = max(worst, degree)
        return worst

    def __len__(self) -> int:
        return len(self._groups)

    def __repr__(self) -> str:
        per_axis = {
            axis: len(groups) for axis, groups in self._by_axis.items() if groups
        }
        return f"GroupRegistry({per_axis})"
