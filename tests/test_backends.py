"""Backend registry tests: lookup, knob validation, model construction."""

import math

import pytest

from repro.core.network import PhotonicRailNetworkModel
from repro.errors import ConfigurationError
from repro.experiments.backends import (
    FabricBackend,
    available_backends,
    create_network,
    get_backend,
    register_backend,
)
from repro.parallelism.mesh import DeviceMesh
from repro.simulator.fabric_network import TopologyNetworkModel
from repro.simulator.network import NetworkModel
from repro.topology.base import NodeKind

EXPECTED_BACKENDS = {"photonic", "electrical", "ideal", "fattree", "railopt", "ocs"}


@pytest.fixture()
def tiny_mesh(tiny_workload, tiny_cluster):
    return DeviceMesh(tiny_workload.parallelism, tiny_cluster)


def _switch_tiers(topology):
    """The tiers of a fabric graph's electrical switches."""
    return {
        node.attrs["tier"]
        for node in topology
        if node.kind == NodeKind.ELECTRICAL_SWITCH
    }


def test_registry_contains_all_builtin_backends():
    assert EXPECTED_BACKENDS <= set(available_backends())


def test_unknown_backend_raises_with_known_names():
    with pytest.raises(ConfigurationError, match="registered"):
        get_backend("carrier-pigeon")


def test_duplicate_registration_raises():
    spec = get_backend("ideal")
    with pytest.raises(ConfigurationError):
        register_backend(
            FabricBackend(name="ideal", description="dup", factory=spec.factory)
        )


@pytest.mark.parametrize("name", sorted(EXPECTED_BACKENDS))
def test_every_backend_builds_a_network_model(name, tiny_cluster, tiny_mesh):
    network = create_network(name, tiny_cluster, tiny_mesh)
    assert isinstance(network, NetworkModel)


def test_unknown_knob_is_rejected(tiny_cluster, tiny_mesh):
    with pytest.raises(ConfigurationError, match="does not accept"):
        create_network("ideal", tiny_cluster, tiny_mesh, warp_speed=True)


def test_backend_knobs_reach_the_model(tiny_cluster, tiny_mesh):
    network = create_network(
        "ocs", tiny_cluster, tiny_mesh, reconfiguration_delay=0.123
    )
    assert isinstance(network, PhotonicRailNetworkModel)
    assert network.reconfiguration_delay == pytest.approx(0.123)


@pytest.mark.parametrize("delay", ["fast", True, -1e-3, math.nan, math.inf])
@pytest.mark.parametrize("mode", ["analytic", "flow"])
@pytest.mark.parametrize("name", ["photonic", "ocs"])
def test_bad_reconfiguration_delay_is_rejected(
    name, mode, delay, tiny_cluster, tiny_mesh
):
    with pytest.raises(ConfigurationError, match="reconfiguration_delay must be"):
        create_network(
            name,
            tiny_cluster,
            tiny_mesh,
            reconfiguration_delay=delay,
            network_mode=mode,
        )


def test_fattree_model_bottleneck_never_exceeds_port_bandwidth(
    tiny_cluster, tiny_mesh
):
    network = create_network("fattree", tiny_cluster, tiny_mesh)
    assert type(network) is TopologyNetworkModel
    # Two 4-GPU domains fit under edge and aggregation switches.
    assert _switch_tiers(network.topology) == {"edge", "agg"}
    # A cross-domain dp-style pair: ranks 0 and 4 live in different domains.
    link = network.group_link_parameters((0, 4))
    assert 0 < link.bandwidth <= tiny_cluster.scaleout_port_bandwidth
    assert link.latency > 0


def test_railopt_model_routes_along_the_rail(tiny_cluster, tiny_mesh):
    network = create_network("railopt", tiny_cluster, tiny_mesh)
    assert type(network) is TopologyNetworkModel
    assert _switch_tiers(network.topology) == {"leaf", "spine"}
    link = network.group_link_parameters((0, 4))
    assert 0 < link.bandwidth <= tiny_cluster.scaleout_port_bandwidth


def test_ocs_model_charges_delay_only_on_schedule_changes(tiny_cluster, tiny_mesh):
    from repro.collectives.primitives import CollectiveOp, CollectiveType
    from repro.parallelism.dag import OpKind, Operation

    network = create_network(
        "ocs", tiny_cluster, tiny_mesh, reconfiguration_delay=0.5
    )
    op = Operation(
        op_id=0,
        kind=OpKind.COMMUNICATION,
        ranks=(0, 4),
        deps=(),
        collective=CollectiveOp(
            collective=CollectiveType.ALL_REDUCE,
            group=(0, 4),
            size_bytes=1e6,
            parallelism="dp",
        ),
    )
    first = network.timing(op, ready_time=0.0)
    assert first.start == pytest.approx(0.5)  # cold rails: pay the switch time
    assert len(first.reconfigs) == 1
    second = network.timing(op, ready_time=first.end)
    assert second.start == pytest.approx(second.end - first.duration)
    assert second.start == pytest.approx(first.end)  # schedule unchanged: free
    assert second.reconfigs == ()
