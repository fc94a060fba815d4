"""Large-scale scenario family: configuration sanity and a small smoke run.

The published family targets 1k/4k/10k endpoints; the suite exercises the
same code path at 200 endpoints (tp=4 x ep=10 x dp=5) so CI stays fast while
still driving the MoE steady state through the flow simulator end to end.
"""

import json

import pytest

from repro.errors import ConfigurationError
from repro.experiments.cli import main
from repro.experiments.contention import (
    SCALE_BACKENDS,
    SCALE_ENDPOINTS,
    SCALE_OCS,
    scale_cluster,
    scale_scenario,
    scale_scenario_grid,
    scale_workload,
)
from repro.experiments.runner import ExperimentRunner


def test_scale_workload_factors_the_endpoint_count():
    workload = scale_workload(10_000)
    assert workload.world_size == 10_000
    assert workload.parallelism.tp == 4
    assert workload.parallelism.ep == 10
    assert workload.parallelism.dp == 250
    assert workload.num_microbatches == 1


def test_scale_cluster_matches_the_workload_and_supports_rings():
    cluster = scale_cluster(1_000)
    assert cluster.num_gpus == 1_000
    assert cluster.nic_ports_per_gpu == 2  # rings over >2 domains need 2 ports
    assert cluster.ocs is SCALE_OCS
    # The synthetic OCS must actually fit a rail spanning every domain.
    assert cluster.ocs.radix >= cluster.num_domains * cluster.nic_ports_per_gpu


def test_scale_endpoints_must_be_a_multiple_of_the_block():
    with pytest.raises(ConfigurationError):
        scale_workload(1234)
    with pytest.raises(ConfigurationError):
        scale_cluster(0)


def test_scale_grid_covers_the_published_family():
    scenarios = scale_scenario_grid()
    names = {scenario.name for scenario in scenarios}
    assert len(scenarios) == len(SCALE_ENDPOINTS) * len(SCALE_BACKENDS)
    assert "scale-fattree-10000" in names
    assert all(s.knobs["network_mode"] == "flow" for s in scenarios)


def test_scale_smoke_runs_in_flow_mode_at_200_endpoints():
    runner = ExperimentRunner(executor="serial")
    result = runner.run(
        scale_scenario(num_endpoints=200, backend="fattree", num_iterations=2)
    )
    assert all(value > 0 for value in result.iteration_times)
    # EP AllToAll traffic must actually hit the rails.
    assert result.metrics["scaleout_bytes"] > 0


def test_scale_cli_subcommand_end_to_end(capsys):
    exit_code = main(
        [
            "scale",
            "--endpoints",
            "200",
            "--backends",
            "fattree",
            "--iterations",
            "1",
            "--executor",
            "serial",
        ]
    )
    assert exit_code == 0
    payload = json.loads(capsys.readouterr().out)
    assert len(payload) == 1
    assert payload[0]["name"] == "scale-fattree-200"
    assert payload[0]["knobs"]["network_mode"] == "flow"


def test_scale_cli_rejects_unknown_backends():
    assert main(["scale", "--backends", "warpdrive"]) == 2


@pytest.mark.slow
def test_scale_10k_fattree_flow_completes_within_the_wall():
    """The headline scenario: 10k endpoints, fat tree, flow mode, exact.

    Runs only in the non-blocking ``-m slow`` CI job.  The wall bounds
    runaway regressions — the pre-optimization engine took ~18 minutes on
    the reference machine, the current exact engine ~3 — while leaving
    headroom for slower CI runners; the perf gate proper lives in
    benchmarks/check_regression.py.
    """
    import time

    from repro.experiments.runner import run_scenario

    scenario = scale_scenario(
        num_endpoints=10_000, backend="fattree", num_iterations=2
    )
    started = time.perf_counter()
    result = run_scenario(scenario)
    elapsed = time.perf_counter() - started
    assert result.metrics["steady_iteration_time"] > 0
    assert result.metrics["scaleout_bytes"] > 0
    assert elapsed < 420.0, f"10k fat-tree flow run took {elapsed:.0f}s"
