"""Fabric-agnostic experiment layer: backends, scenarios, runner, CLI.

This package turns the end-to-end simulator into an experiment platform:

* :mod:`repro.experiments.backends` — the :class:`FabricBackend` registry
  adapting every topology (photonic, electrical, ideal, fat-tree,
  rail-optimized, bare OCS — the photonic models without Opus's
  provisioning) to the
  :class:`~repro.simulator.network.NetworkModel` interface.
* :mod:`repro.experiments.runner` — declarative :class:`Scenario` specs, the
  memoized parallel :class:`ExperimentRunner`, and grid expansion.
* :mod:`repro.experiments.contention` — bundled scenarios contrasting the
  analytic and flow-level network modes (contention-free and
  provisioned-photonic equivalence; shared-uplink incast and circuit-thrash
  divergence).
* :mod:`repro.experiments.spec` — the JSON scenario spec and its one
  parser, shared by the CLI and the experiment service.
* :mod:`repro.experiments.cli` — the ``repro-sim`` console script.
"""

from .backends import (
    FabricBackend,
    NETWORK_MODES,
    all_backends,
    available_backends,
    backend,
    create_network,
    get_backend,
    register_backend,
)
from .contention import (
    DEGRADED_BACKENDS,
    DEGRADED_CONDITIONS,
    NetworkModeComparison,
    circuit_thrash_scenario,
    compare_network_modes,
    contention_free_scenario,
    degraded_fabric_grid,
    degraded_fabric_scenario,
    mini_fat_tree_cluster,
    provisioned_photonic_scenario,
    shared_uplink_incast_scenario,
)
from .runner import (
    ExperimentRunner,
    Scenario,
    ScenarioResult,
    expand_grid,
    run_scenario,
    scenario_hash,
)

__all__ = [
    "DEGRADED_BACKENDS",
    "DEGRADED_CONDITIONS",
    "ExperimentRunner",
    "FabricBackend",
    "NETWORK_MODES",
    "NetworkModeComparison",
    "Scenario",
    "ScenarioResult",
    "all_backends",
    "available_backends",
    "backend",
    "circuit_thrash_scenario",
    "compare_network_modes",
    "contention_free_scenario",
    "create_network",
    "degraded_fabric_grid",
    "degraded_fabric_scenario",
    "expand_grid",
    "get_backend",
    "mini_fat_tree_cluster",
    "provisioned_photonic_scenario",
    "register_backend",
    "run_scenario",
    "scenario_hash",
    "shared_uplink_incast_scenario",
]
