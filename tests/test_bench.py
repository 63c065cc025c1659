"""Benchmark harness: configuration, reports, and the CLI entry point."""

import json
import subprocess
import sys

import numpy as np
import pytest

import gpexperts.npae
from gpexperts import ExperimentConfig, emit_report, run_experiment
from gpexperts.bench import main, render_report

FAST = dict(n=150, n_test=30, n_experts=3, seed=0)


@pytest.fixture(scope="module")
def basic_report():
    config = ExperimentConfig(
        methods=("fullgp", "poe", "gpoe", "npae", "npae*"), alpha=0.5, **FAST
    )
    return run_experiment(config)


def test_config_validation():
    with pytest.raises(ValueError):
        ExperimentConfig(methods=("npae", "magic"))
    with pytest.raises(ValueError):
        ExperimentConfig(methods=())
    with pytest.raises(ValueError):
        ExperimentConfig(alpha=0.0)
    with pytest.raises(ValueError):
        ExperimentConfig(alpha=1.5)
    with pytest.raises(ValueError):
        ExperimentConfig(penalty=-0.1)
    with pytest.raises(ValueError):
        ExperimentConfig(partition="grid")
    with pytest.raises(ValueError):
        ExperimentConfig(n_experts=0)
    with pytest.raises(ValueError):
        ExperimentConfig(methods=("fullgp",), dump_graph="graph.csv")


def test_report_has_one_row_per_method(basic_report):
    assert [r.method for r in basic_report.results] == [
        "fullgp",
        "poe",
        "gpoe",
        "npae",
        "npae*",
    ]
    kinds = {r.method: r.kind for r in basic_report.results}
    assert kinds["fullgp"] == "full"
    assert kinds["npae"] == "D" and kinds["npae*"] == "D"
    assert kinds["poe"] == "CI" and kinds["gpoe"] == "CI"
    for row in basic_report.results:
        assert row.error is None
        assert np.isfinite(row.smse) and np.isfinite(row.msll)
        assert row.train_seconds >= 0.0 and row.predict_seconds >= 0.0


def test_selection_metadata_present_for_starred_methods(basic_report):
    sel = basic_report.selection
    assert sel is not None
    assert len(sel["importance"]) == 3
    assert sorted(sel["order"]) == [0, 1, 2]
    assert len(sel["selected"]) == 2  # ceil(0.5 * 3)
    assert set(sel["selected"]) <= set(sel["order"])


def test_selection_metadata_reports_graph_solver(basic_report):
    sel = basic_report.selection
    assert isinstance(sel["glasso_steps"], int) and sel["glasso_steps"] >= 0
    assert sel["glasso_converged"] is True
    assert 1 <= sel["components"] <= 3


def test_training_block_reports_the_optimizer_runs(basic_report):
    training = json.loads(render_report(basic_report, "json"))["training"]
    assert set(training) == {"ensemble", "fullgp"}
    for block in training.values():
        assert block["evaluations"] >= block["iterations"] >= 1
        assert block["converged"] is True
        assert block["failed_restarts"] == 0
    assert training["ensemble"]["jitter"] == [0.0] * FAST["n_experts"]
    assert training["fullgp"]["jitter"] == 0.0


def test_failed_points_reach_the_json_rows_only(basic_report, monkeypatch):
    payload = json.loads(render_report(basic_report, "json"))
    assert all(r["failed_points"] == 0 for r in payload["results"])

    original = gpexperts.npae.npae_aggregate

    def flag_two(*args, **kwargs):
        pred = original(*args, **kwargs)
        pred.failed = np.zeros(len(pred), dtype=bool)
        pred.failed[[1, 4]] = True
        return pred

    monkeypatch.setattr(gpexperts.npae, "npae_aggregate", flag_two)
    config = ExperimentConfig(methods=("poe", "npae"), measure_time=False, **FAST)
    report = run_experiment(config)
    payload = json.loads(render_report(report, "json"))
    rows = {r["method"]: r for r in payload["results"]}
    assert rows["npae"]["failed_points"] == 2 and rows["poe"]["failed_points"] == 0
    assert render_report(report, "csv").splitlines()[0] == (
        "method,type,smse,msll,mae,train_s,predict_s"
    )


def test_poe_and_gpoe_share_the_posterior_mean(basic_report):
    rows = {r.method: r for r in basic_report.results}
    # uniform weights rescale variances only, so mean metrics agree
    assert rows["poe"].smse == pytest.approx(rows["gpoe"].smse, rel=1e-12)
    assert rows["poe"].mae == pytest.approx(rows["gpoe"].mae, rel=1e-12)
    assert rows["poe"].msll != rows["gpoe"].msll


def test_keeping_every_expert_matches_unpruned_run():
    config = ExperimentConfig(methods=("npae", "npae*", "rbcm", "rbcm*"), **FAST)
    report = run_experiment(config)
    rows = {r.method: r for r in report.results}
    for base in ("npae", "rbcm"):
        assert rows[base].smse == rows[base + "*"].smse
        assert rows[base].msll == rows[base + "*"].msll
        assert rows[base].mae == rows[base + "*"].mae


def test_method_failures_are_recorded_not_raised():
    config = ExperimentConfig(
        methods=("grbcm", "poe"), n=60, n_test=10, n_experts=1, seed=0
    )
    report = run_experiment(config)
    rows = {r.method: r for r in report.results}
    assert "ValueError" in rows["grbcm"].error
    assert rows["grbcm"].smse is None
    assert rows["poe"].error is None  # the run still finished


def test_json_report_round_trips(basic_report):
    payload = json.loads(render_report(basic_report, "json"))
    assert payload["config"]["n"] == FAST["n"]
    assert payload["config"]["methods"] == list(
        ("fullgp", "poe", "gpoe", "npae", "npae*")
    )
    assert len(payload["results"]) == 5
    by_method = {r["method"]: r for r in payload["results"]}
    assert by_method["npae"]["kind"] == "D"


def test_csv_report_shape_and_lossless_floats(basic_report):
    text = render_report(basic_report, "csv")
    lines = text.strip().splitlines()
    assert lines[0] == "method,type,smse,msll,mae,train_s,predict_s"
    assert len(lines) == 6
    rows = {r.method: r for r in basic_report.results}
    for line in lines[1:]:
        cells = line.split(",")
        assert float(cells[2]) == rows[cells[0]].smse  # repr survives the trip


def test_unknown_format_rejected(basic_report):
    with pytest.raises(ValueError):
        render_report(basic_report, "yaml")


def test_disabling_timing_makes_reports_reproducible():
    config = dict(methods=("poe", "npae*"), measure_time=False, alpha=0.5, **FAST)
    a = render_report(run_experiment(ExperimentConfig(**config)), "json")
    b = render_report(run_experiment(ExperimentConfig(**config)), "json")
    assert a == b
    payload = json.loads(a)
    assert all(r["train_seconds"] == 0.0 for r in payload["results"])


def test_emit_report_writes_file(tmp_path, basic_report):
    out = tmp_path / "report.csv"
    text = emit_report(basic_report, fmt="csv", path=out)
    assert out.read_text() == text
    with pytest.raises(OSError):
        emit_report(basic_report, path=tmp_path / "missing" / "report.json")


def test_dump_graph_writes_edge_list(tmp_path):
    graph_path = tmp_path / "graph.csv"
    config = ExperimentConfig(
        methods=("gpoe*",), alpha=0.5, dump_graph=str(graph_path), **FAST
    )
    run_experiment(config)
    lines = graph_path.read_text().strip().splitlines()
    assert lines[0] == "i,j,precision"
    assert len(lines) >= 4  # three diagonal entries at minimum


def test_cli_writes_report_and_exits_zero(tmp_path):
    out = tmp_path / "cli.json"
    code = main(
        [
            "--n", "120", "--ntest", "20", "--experts", "3",
            "--methods", "poe,npae*", "--alpha", "0.5",
            "--seed", "1", "--out", str(out), "--no-timing",
        ]
    )
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["config"]["measure_time"] is False
    assert [r["method"] for r in payload["results"]] == ["poe", "npae*"]


def test_cli_rejects_unknown_method(capsys):
    assert main(["--methods", "magic"]) == 2
    assert "error:" in capsys.readouterr().err


def test_cli_rejects_missing_data_file(capsys):
    assert main(["--data", "/nonexistent/rows.csv", "--methods", "poe"]) == 2
    assert "error:" in capsys.readouterr().err


def test_cli_stdout_and_module_entry(tmp_path):
    proc = subprocess.run(
        [
            sys.executable, "-m", "gpexperts.bench",
            "--n", "80", "--ntest", "10", "--experts", "2",
            "--methods", "poe", "--format", "csv", "--no-timing",
        ],
        capture_output=True,
        text=True,
        check=False,
    )
    assert proc.returncode == 0
    assert proc.stdout.startswith("method,type,")
    assert "poe,CI," in proc.stdout
