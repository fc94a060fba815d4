"""Device mesh: the per-mesh group placement memo."""

import copy

import pytest

from repro.errors import ConfigurationError
from repro.parallelism.config import ParallelismConfig
from repro.parallelism.mesh import AXIS_ORDER, DeviceMesh
from repro.topology.devices import perlmutter_testbed

PARALLELISM = ParallelismConfig(tp=4, dp=2, pp=2)


def _groups(mesh):
    return [group for axis in AXIS_ORDER for group in mesh.groups_along(axis)]


def test_group_placement_matches_per_rank_lookups_and_is_memoized():
    mesh = DeviceMesh(PARALLELISM, perlmutter_testbed(num_nodes=4))
    for group in _groups(mesh):
        domains = tuple(sorted({mesh.domain_of(rank) for rank in group}))
        rails = tuple(sorted({mesh.rail_of(rank) for rank in group}))
        placement = mesh.group_placement(group)
        assert placement == (domains, rails, len(domains) > 1)
        assert mesh.group_placement(group) is placement
        assert mesh.domains_of_group(group) == domains
        assert mesh.rails_of_group(group) == rails
        assert mesh.is_scaleout_group(group) == (len(domains) > 1)


def test_group_placement_without_a_cluster_raises_every_time():
    mesh = DeviceMesh(PARALLELISM)
    for group in _groups(mesh):
        for _ in range(2):
            with pytest.raises(ConfigurationError, match="without a cluster"):
                mesh.group_placement(group)
            with pytest.raises(ConfigurationError, match="without a cluster"):
                mesh.is_scaleout_group(group)


def test_deep_copied_mesh_answers_identically():
    mesh = DeviceMesh(PARALLELISM, perlmutter_testbed(num_nodes=4))
    groups = _groups(mesh)
    half = len(groups) // 2
    for group in groups[:half]:
        mesh.group_placement(group)  # copy a partly filled memo
    clone = copy.deepcopy(mesh)
    for group in groups:
        assert clone.group_placement(group) == mesh.group_placement(group)
