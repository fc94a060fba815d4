"""CLI tests: repro-sim backends / run / sweep / fig8 and the value parsers."""

import csv
import io
import json

import pytest

from repro.errors import ConfigurationError
from repro.experiments.cli import build_parser, main, spec_from_args
from repro.experiments.runner import ExperimentRunner, scenario_hash
from repro.experiments.spec import parse_cluster, parse_value
from repro.service import ServiceClient, validate_sweep_spec
from repro.simulator.faults import FaultEvent, FaultKind, FaultPlan


# --------------------------------------------------------------------------- #
# Parsers
# --------------------------------------------------------------------------- #


@pytest.mark.parametrize(
    "text,expected",
    [
        ("true", True),
        ("False", False),
        ("none", None),
        ("42", 42),
        ("0.015", 0.015),
        ("1e-5", 1e-5),
        ("ring", "ring"),
    ],
)
def test_parse_value(text, expected):
    assert parse_value(text) == expected


def test_parse_cluster_perlmutter():
    cluster = parse_cluster("perlmutter:2")
    assert cluster.num_gpus == 8


def test_parse_cluster_dgx():
    cluster = parse_cluster("dgx-h200:16:2")
    assert cluster.num_gpus == 16
    assert cluster.nic_ports_per_gpu == 2


def test_parse_cluster_rejects_unknown_family():
    with pytest.raises(ConfigurationError):
        parse_cluster("abacus:3")


def test_parse_grid():
    args = build_parser().parse_args(
        [
            "sweep",
            "--grid",
            "reconfiguration_delay=1e-5,0.015",
            "--grid",
            "provisioning=false,true",
        ]
    )
    assert spec_from_args(args)["grid"] == {
        "reconfiguration_delay": [1e-5, 0.015],
        "provisioning": [False, True],
    }


# --------------------------------------------------------------------------- #
# Subcommands
# --------------------------------------------------------------------------- #


def test_backends_subcommand_lists_all_backends(capsys):
    assert main(["backends", "--format", "json"]) == 0
    rows = json.loads(capsys.readouterr().out)
    assert {"photonic", "electrical", "ideal", "fattree", "railopt", "ocs"} <= {
        row["name"] for row in rows
    }


@pytest.mark.parametrize(
    "backend", ["photonic", "electrical", "ideal", "fattree", "railopt", "ocs"]
)
def test_run_subcommand_works_on_every_backend(backend, capsys):
    code = main(
        [
            "run",
            "--backend",
            backend,
            "--workload",
            "tiny",
            "--cluster",
            "perlmutter:2",
            "--iterations",
            "1",
        ]
    )
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["backend"] == backend
    assert payload["metrics"]["mean_iteration_time"] > 0


@pytest.mark.parametrize("backend", ["electrical", "fattree", "railopt"])
def test_run_subcommand_accepts_the_flow_network_mode(backend, capsys):
    code = main(
        [
            "run",
            "--backend",
            backend,
            "--network-mode",
            "flow",
            "--workload",
            "tiny",
            "--cluster",
            "perlmutter:2",
            "--iterations",
            "1",
        ]
    )
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["knobs"]["network_mode"] == "flow"
    assert payload["metrics"]["mean_iteration_time"] > 0


def test_sweep_subcommand_accepts_a_network_mode_grid(capsys):
    code = main(
        [
            "sweep",
            "--backend",
            "electrical",
            "--workload",
            "tiny",
            "--cluster",
            "perlmutter:2",
            "--iterations",
            "1",
            "--grid",
            "network_mode=analytic,flow",
            "--executor",
            "serial",
        ]
    )
    assert code == 0
    rows = json.loads(capsys.readouterr().out)
    assert [row["knobs"]["network_mode"] for row in rows] == ["analytic", "flow"]


def test_run_subcommand_rejects_unknown_backend(capsys):
    assert main(["run", "--backend", "carrier-pigeon"]) == 2
    assert "unknown backend" in capsys.readouterr().err


def test_run_subcommand_rejects_unknown_workload(capsys):
    assert main(["run", "--workload", "cobol-monolith"]) == 2
    assert "unknown workload" in capsys.readouterr().err


def test_run_subcommand_csv_output(capsys):
    code = main(
        ["run", "--backend", "ideal", "--iterations", "1", "--format", "csv"]
    )
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
    assert len(rows) == 1
    assert rows[0]["backend"] == "ideal"
    assert float(rows[0]["mean_iteration_time"]) > 0


def test_sweep_subcommand_runs_a_grid(capsys):
    code = main(
        [
            "sweep",
            "--backend",
            "ocs",
            "--iterations",
            "1",
            "--grid",
            "reconfiguration_delay=1e-5,0.015",
            "--workers",
            "2",
        ]
    )
    assert code == 0
    captured = capsys.readouterr()
    rows = json.loads(captured.out)
    assert len(rows) == 2
    assert "2 points" in captured.err
    delays = [row["name"] for row in rows]
    assert delays == sorted(delays, key=lambda n: float(n.split("=")[1].rstrip("]")))


def test_sweep_subcommand_requires_a_grid(capsys):
    assert main(["sweep", "--backend", "ideal"]) == 2
    assert "--grid" in capsys.readouterr().err


def test_sweep_csv_includes_swept_knob_columns(capsys):
    code = main(
        [
            "sweep",
            "--backend",
            "ocs",
            "--iterations",
            "1",
            "--grid",
            "reconfiguration_delay=1e-5,0.015",
            "--format",
            "csv",
        ]
    )
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
    assert [float(row["reconfiguration_delay"]) for row in rows] == [1e-5, 0.015]


def test_single_point_sweep_still_emits_a_json_array(capsys):
    code = main(
        [
            "sweep",
            "--backend",
            "ideal",
            "--iterations",
            "1",
            "--grid",
            "num_iterations=1",
        ]
    )
    assert code == 0
    rows = json.loads(capsys.readouterr().out)
    assert isinstance(rows, list) and len(rows) == 1


def test_non_numeric_delay_inputs_get_clean_errors(capsys):
    assert main(["fig8", "--delays", "1e-5,abc"]) == 2
    assert "comma-separated seconds" in capsys.readouterr().err
    assert main(["run", "--backend", "ocs", "--knob", "reconfiguration_delay=fast"]) == 2
    assert "must be a number" in capsys.readouterr().err


def test_grid_resolves_technology_names(capsys):
    code = main(
        [
            "sweep",
            "--backend",
            "ocs",
            "--iterations",
            "1",
            "--grid",
            "technology=PLZT,Piezo",
        ]
    )
    assert code == 0
    rows = json.loads(capsys.readouterr().out)
    assert len(rows) == 2
    delays = [row["metrics"]["exposed_reconfig_time"] for row in rows]
    assert delays[0] < delays[1]  # PLZT switches ~6 orders faster than piezo


def test_fig8_subcommand(capsys, tmp_path):
    out = tmp_path / "fig8.json"
    code = main(
        [
            "fig8",
            "--delays",
            "1e-5,0.015",
            "--iterations",
            "2",
            "--output",
            str(out),
        ]
    )
    assert code == 0
    rows = json.loads(out.read_text())
    assert len(rows) == 4  # two delays x (provisioning off/on)
    for row in rows:
        assert row["normalized_iteration_time"] >= 1.0 - 1e-9


# --------------------------------------------------------------------------- #
# CLI <-> HTTP parity
# --------------------------------------------------------------------------- #


class _Captured(Exception):
    """Carries what a patched runner or client was handed, before any work."""

    def __init__(self, value):
        super().__init__("captured")
        self.value = value


def _local_scenarios(monkeypatch, argv):
    """The scenarios ``run``/``sweep`` would simulate for ``argv``."""

    def capture_run(self, scenario):
        raise _Captured([scenario])

    def capture_many(self, scenarios, **kwargs):
        raise _Captured(list(scenarios))

    monkeypatch.setattr(ExperimentRunner, "run", capture_run)
    monkeypatch.setattr(ExperimentRunner, "run_many", capture_many)
    with pytest.raises(_Captured) as excinfo:
        main(argv)
    return excinfo.value.value


def _submitted_spec(monkeypatch, argv):
    """The JSON spec ``submit`` would post for the same flags."""

    def capture(self, spec):
        raise _Captured(spec)

    monkeypatch.setattr(ServiceClient, "submit", capture)
    with pytest.raises(_Captured) as excinfo:
        main(["submit", "--url", "http://127.0.0.1:1", *argv])
    return excinfo.value.value


@pytest.mark.parametrize(
    "flags",
    [
        ["--backend", "ocs", "--workload", "paper-trace", "--cluster", "perlmutter:4"],
        ["--workload-arg", "pp=1"],
        ["--cluster", "dgx-h200:8:2"],
        ["--iterations", "1", "--mfu", "0.5"],
        ["--backend", "ocs", "--knob", "technology=PLZT"],
        ["--backend", "electrical", "--network-mode", "flow"],
        ["--backend", "fattree", "--network-mode", "flow", "--routing-policy", "ecmp"],
        ["--backend", "fattree", "--network-mode", "flow", "--fault-plan", "PLAN"],
        ["--backend", "ocs", "--grid", "reconfiguration_delay=1e-5,0.015"],
    ],
    ids=[
        "--workload",
        "--workload-arg",
        "--cluster",
        "--iterations/--mfu",
        "--knob",
        "--network-mode",
        "--routing-policy",
        "--fault-plan",
        "--grid",
    ],
)
def test_cli_and_http_build_the_same_scenario_hashes(flags, monkeypatch, tmp_path):
    plan = tmp_path / "faults.json"
    FaultPlan(
        events=(FaultEvent(time=0.0, kind=FaultKind.COMPUTE_SLOWDOWN, factor=2.0),)
    ).to_file(plan)
    flags = [str(plan) if flag == "PLAN" else flag for flag in flags]
    command = "sweep" if "--grid" in flags else "run"
    local = _local_scenarios(monkeypatch, [command, *flags])
    remote = validate_sweep_spec(_submitted_spec(monkeypatch, flags)).scenarios
    assert [scenario_hash(s) for s in local] == [scenario_hash(s) for s in remote]
    assert len(local) == (2 if command == "sweep" else 1)
