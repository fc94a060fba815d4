"""Device mesh: mapping global ranks to parallelism coordinates and hardware.

The mesh follows the Megatron/TorchTitan convention of ordering the parallelism
axes from outermost to innermost as ``(pp, dp, cp, ep, tp)`` with TP varying
fastest.  Because consecutive global ranks are placed on consecutive GPUs of
the same scale-up domain, making TP the fastest-varying axis keeps each TP
group inside one scale-up domain whenever ``tp`` divides the domain size —
exactly the placement the paper assumes (frequent TP collectives never touch
the rails).

The mesh also answers the placement questions the rest of the library asks:

* which (scale-up domain, local rank / rail) a global rank maps to;
* which ranks form each communication group along each axis;
* whether a group's traffic is scale-up (intra-domain) or scale-out (rail).

Group membership never changes during a job, so a group's placement (its
domains, its rails and whether it is scale-out) is resolved once per mesh
and then served from a memo.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from ..errors import ConfigurationError
from ..topology.devices import ClusterSpec
from .config import ParallelismConfig

#: Axis order from outermost (slowest varying) to innermost (fastest varying).
AXIS_ORDER: Tuple[str, ...] = ("pp", "dp", "cp", "ep", "tp")

#: ``(domains, rails, scaleout)`` of one communication group: the sorted
#: scale-up domains and rails its ranks attach to, and whether it spans more
#: than one domain.
GroupPlacement = Tuple[Tuple[int, ...], Tuple[int, ...], bool]


@dataclass(frozen=True)
class MeshCoordinate:
    """The position of one rank along every parallelism axis."""

    pp: int
    dp: int
    cp: int
    ep: int
    tp: int

    def along(self, axis: str) -> int:
        """Return the coordinate along ``axis`` (one of ``AXIS_ORDER``)."""
        try:
            return getattr(self, axis)
        except AttributeError as exc:
            raise ConfigurationError(f"unknown axis {axis!r}") from exc

    def as_dict(self) -> Dict[str, int]:
        """Return the coordinate as an axis → index mapping."""
        return {axis: self.along(axis) for axis in AXIS_ORDER}


class DeviceMesh:
    """Rank ↔ parallelism-coordinate ↔ hardware mapping for one job.

    Parameters
    ----------
    parallelism:
        The parallelism degrees.
    cluster:
        Optional hardware description.  When provided, the mesh validates
        that the job fits the cluster and that TP groups stay inside scale-up
        domains, and exposes rail/domain lookups.
    """

    def __init__(
        self,
        parallelism: ParallelismConfig,
        cluster: Optional[ClusterSpec] = None,
    ) -> None:
        self.parallelism = parallelism
        self.cluster = cluster
        self._sizes: Dict[str, int] = {
            "pp": parallelism.pp,
            "dp": parallelism.dp,
            "cp": parallelism.cp,
            "ep": parallelism.ep,
            "tp": parallelism.tp,
        }
        self._placements: Dict[Tuple[int, ...], GroupPlacement] = {}
        if cluster is not None:
            if parallelism.world_size > cluster.num_gpus:
                raise ConfigurationError(
                    f"job needs {parallelism.world_size} GPUs but the cluster "
                    f"has only {cluster.num_gpus}"
                )
            per_domain = cluster.scaleup.gpus_per_domain
            if parallelism.tp > per_domain:
                raise ConfigurationError(
                    f"tp={parallelism.tp} exceeds the scale-up domain size "
                    f"{per_domain}; the paper assumes TP fits in scale-up"
                )
            if per_domain % parallelism.tp != 0:
                raise ConfigurationError(
                    f"tp={parallelism.tp} must divide the scale-up domain size "
                    f"{per_domain} to keep TP groups inside one domain"
                )

    # ------------------------------------------------------------------ #
    # Rank ↔ coordinate
    # ------------------------------------------------------------------ #

    @property
    def world_size(self) -> int:
        """Number of ranks in the mesh."""
        return self.parallelism.world_size

    def size(self, axis: str) -> int:
        """Degree of parallelism along ``axis``."""
        if axis not in self._sizes:
            raise ConfigurationError(f"unknown axis {axis!r}")
        return self._sizes[axis]

    def coordinate(self, rank: int) -> MeshCoordinate:
        """Return the mesh coordinate of ``rank``."""
        self._check_rank(rank)
        remainder = rank
        coords: Dict[str, int] = {}
        for axis in reversed(AXIS_ORDER):  # innermost first
            size = self._sizes[axis]
            coords[axis] = remainder % size
            remainder //= size
        return MeshCoordinate(**coords)

    def rank_of(self, coordinate: MeshCoordinate) -> int:
        """Return the global rank at ``coordinate``."""
        rank = 0
        for axis in AXIS_ORDER:  # outermost first
            size = self._sizes[axis]
            index = coordinate.along(axis)
            if not 0 <= index < size:
                raise ConfigurationError(
                    f"coordinate {index} out of range for axis {axis!r} (size {size})"
                )
            rank = rank * size + index
        return rank

    def ranks(self) -> Iterator[int]:
        """Iterate over all global ranks."""
        return iter(range(self.world_size))

    # ------------------------------------------------------------------ #
    # Communication groups
    # ------------------------------------------------------------------ #

    def group_along(self, axis: str, rank: int) -> Tuple[int, ...]:
        """Return the communication group of ``rank`` along ``axis``.

        The group contains every rank that differs from ``rank`` only in the
        ``axis`` coordinate, ordered by that coordinate (ring order).
        """
        base = self.coordinate(rank).as_dict()
        members: List[int] = []
        for index in range(self.size(axis)):
            coords = dict(base)
            coords[axis] = index
            members.append(self.rank_of(MeshCoordinate(**coords)))
        return tuple(members)

    def groups_along(self, axis: str) -> List[Tuple[int, ...]]:
        """Return every distinct communication group along ``axis``."""
        seen = set()
        groups: List[Tuple[int, ...]] = []
        for rank in self.ranks():
            group = self.group_along(axis, rank)
            if group not in seen:
                seen.add(group)
                groups.append(group)
        return groups

    # ------------------------------------------------------------------ #
    # Hardware placement
    # ------------------------------------------------------------------ #

    def _require_cluster(self) -> ClusterSpec:
        if self.cluster is None:
            raise ConfigurationError("this mesh was built without a cluster")
        return self.cluster

    def gpu_of(self, rank: int) -> int:
        """Return the global GPU id hosting ``rank`` (identity placement)."""
        self._check_rank(rank)
        self._require_cluster()
        return rank

    def domain_of(self, rank: int) -> int:
        """Return the scale-up domain hosting ``rank``."""
        return self._require_cluster().domain_of(self.gpu_of(rank))

    def rail_of(self, rank: int) -> int:
        """Return the rail (local rank inside the domain) of ``rank``."""
        return self._require_cluster().rail_of(self.gpu_of(rank))

    def group_placement(self, group: Sequence[int]) -> GroupPlacement:
        """Return ``(domains, rails, scaleout)`` of ``group``.

        Resolved from per-rank lookups on the first call for a group and
        memoized; a mesh without a cluster raises on every call.
        """
        key = tuple(group)
        placement = self._placements.get(key)
        if placement is None:
            self._require_cluster()
            domains = tuple(sorted({self.domain_of(rank) for rank in key}))
            rails = tuple(sorted({self.rail_of(rank) for rank in key}))
            placement = (domains, rails, len(domains) > 1)
            self._placements[key] = placement
        return placement

    def is_scaleout_group(self, group: Sequence[int]) -> bool:
        """Return whether a group spans multiple scale-up domains.

        Scale-out groups generate rail traffic; intra-domain groups stay on
        the NVLink interconnect.
        """
        return self.group_placement(group)[2]

    def rails_of_group(self, group: Sequence[int]) -> Tuple[int, ...]:
        """Return the sorted set of rails the group's ranks attach to."""
        return self.group_placement(group)[1]

    def domains_of_group(self, group: Sequence[int]) -> Tuple[int, ...]:
        """Return the sorted set of scale-up domains the group's ranks live in."""
        return self.group_placement(group)[0]

    def _check_rank(self, rank: int) -> None:
        if not 0 <= rank < self.world_size:
            raise ConfigurationError(
                f"rank {rank} out of range for world size {self.world_size}"
            )

    def __repr__(self) -> str:
        return f"DeviceMesh({self.parallelism.describe()}, world={self.world_size})"
