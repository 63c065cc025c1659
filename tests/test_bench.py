"""Benchmark harness: configuration, reports, and the CLI entry point."""

import importlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import gpexperts.bench
import gpexperts.experts
import gpexperts.gp
import gpexperts.npae
import gpexperts.selection
from gpexperts import SingularMatrixError, partition_kmeans, synth_dataset, train_ensemble
from conftest import force_jitter
from gpexperts.bench import (
    METHOD_NAMES,
    ExperimentConfig,
    main,
    render_report,
    run_experiment,
)

FAST = dict(n=150, n_test=30, n_experts=3, seed=0)
ROOT = Path(__file__).resolve().parents[1]


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
    with pytest.raises(ValueError, match="penalty must be >= 0"):
        ExperimentConfig(penalty=float("nan"))
    with pytest.raises(ValueError):
        ExperimentConfig(partition="grid")
    with pytest.raises(ValueError):
        ExperimentConfig(n_experts=0)


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
    assert training["ensemble"]["max_jitter"] == training["fullgp"]["max_jitter"] == 0.0


def test_training_block_reports_the_jitter_training_needed(monkeypatch):
    runs = force_jitter(monkeypatch)
    config = ExperimentConfig(methods=("fullgp", "poe"), measure_time=False, **FAST)
    training = json.loads(render_report(run_experiment(config), "json"))["training"]
    assert len(runs) == 2 and min(j for run in runs for j, _ in run) > 0.0
    assert training["ensemble"]["max_jitter"] == max(j * sf2 for j, sf2 in runs[0])
    assert training["fullgp"]["max_jitter"] == max(j * sf2 for j, sf2 in runs[1])


def test_training_block_reports_the_partitioner(basic_report):
    training = json.loads(render_report(basic_report, "json"))["training"]
    partition = training["ensemble"]["partition"]
    assert partition["iterations"] >= 1 and partition["converged"] is True
    assert len(partition["sizes"]) == FAST["n_experts"]
    assert min(partition["sizes"]) >= 1 and sum(partition["sizes"]) == FAST["n"]
    config = ExperimentConfig(methods=("poe",), partition="random", **FAST)
    training = json.loads(render_report(run_experiment(config), "json"))["training"]
    assert training["ensemble"]["partition"] == {
        "iterations": 0, "converged": None, "sizes": [50, 50, 50]
    }


def test_run_leaves_no_member_pass_behind(monkeypatch):
    trained = []

    def keep(*args, **kwargs):
        trained.append(gpexperts.experts.train_ensemble(*args, **kwargs))
        return trained[-1]

    monkeypatch.setattr(gpexperts.bench, "train_ensemble", keep)
    run_experiment(ExperimentConfig(methods=("gpoe", "npae", "npae*"), **FAST))
    assert len(trained) == 1 and trained[0]._memo is None


def test_failed_points_reach_the_json_rows_only(basic_report, monkeypatch):
    payload = json.loads(render_report(basic_report, "json"))
    assert all(r["failed_points"] == 0 for r in payload["results"])

    original = gpexperts.npae.npae_aggregate

    def flag_two(*args, **kwargs):
        pred = original(*args, **kwargs)
        pred.failed = np.zeros(pred.means.shape, dtype=bool)
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


def test_deflated_points_reach_the_json_rows_only(basic_report, monkeypatch):
    payload = json.loads(render_report(basic_report, "json"))
    assert all(r["deflated_points"] == 0 for r in payload["results"])

    assemble = gpexperts.npae._assemble

    def duplicate_first(*args):
        # expert 1 becomes an exact, noise-free copy of expert 0: in g's lower
        # triangle, M[1, 0] = M[1, 1] = M[0, 0] and row j of column 1 copies
        # column 0 for j > 1, right-hand sides included
        g = assemble(*args)
        g[1, 0] = g[0, 0]
        g[1:, 1] = g[1:, 0]
        return g

    monkeypatch.setattr(gpexperts.npae, "_assemble", duplicate_first)
    config = ExperimentConfig(methods=("poe", "npae"), measure_time=False, **FAST)
    report = run_experiment(config)
    payload = json.loads(render_report(report, "json"))
    rows = {r["method"]: r for r in payload["results"]}
    assert rows["npae"]["deflated_points"] == FAST["n_test"]
    assert rows["npae"]["failed_points"] == 0 and rows["poe"]["deflated_points"] == 0
    assert render_report(report, "csv").splitlines()[0] == (
        "method,type,smse,msll,mae,train_s,predict_s"
    )


def test_grbcm_jitter_reaches_the_json_rows_only(basic_report, monkeypatch):
    payload = json.loads(render_report(basic_report, "json"))
    assert all(r["max_jitter"] == 0.0 for r in payload["results"])

    force_jitter(monkeypatch)  # every factorization in gpexperts.gp, S_i too
    config = ExperimentConfig(methods=("poe", "grbcm"), measure_time=False, **FAST)
    report = run_experiment(config)
    payload = json.loads(render_report(report, "json"))
    rows = {r["method"]: r for r in payload["results"]}
    assert rows["grbcm"]["max_jitter"] > 0.0 and rows["poe"]["max_jitter"] == 0.0
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


def test_same_seed_reports_are_byte_identical_on_a_random_8d_table(tmp_path):
    # Beyond criterion 10: the D >= 2 kernel, random parts, the restart RNG,
    # bcm, rbcm and gpoe, and grbcm's seeded base.
    rng = np.random.default_rng(12)
    x = rng.uniform(size=(120, 8))
    y = np.sin(3 * x[:, 0]) + x[:, 1] * x[:, 2] + 0.1 * rng.normal(size=120)
    path = tmp_path / "table8d.csv"
    np.savetxt(path, np.column_stack([x, y]), delimiter=",")
    config = dict(data=str(path), train_fraction=0.75, n_experts=4, partition="random",
                  restarts=2, methods=METHOD_NAMES, alpha=0.5, seed=2, measure_time=False)
    first, second = (run_experiment(ExperimentConfig(**config)) for _ in range(2))
    assert [r.error for r in first.results] == [None] * len(METHOD_NAMES)
    for fmt in ("json", "csv"):
        assert render_report(first, fmt) == render_report(second, fmt)


def test_report_carries_the_expert_graph(monkeypatch):
    original, graphs = gpexperts.selection.expert_graph, []

    def keep(*args, **kwargs):
        graphs.append(original(*args, **kwargs))
        return graphs[-1]

    monkeypatch.setattr(gpexperts.selection, "expert_graph", keep)
    config = ExperimentConfig(methods=("gpoe*",), alpha=0.5, penalty=0.01, **FAST)
    report = run_experiment(config)
    selection = json.loads(render_report(report))["selection"]
    edges = selection["edges"]
    (graph,) = graphs
    omega = graph.precision
    assert selection["components"] == len(graph.components)
    m = omega.shape[0]
    rebuilt = np.zeros((m, m))
    for i, j, value in edges:
        rebuilt[i, j] = rebuilt[j, i] = value
    np.testing.assert_array_equal(rebuilt, omega)  # JSON floats round-trip
    off_diagonal = np.count_nonzero(np.triu(omega, 1))
    assert off_diagonal > 0 and len(edges) == m + off_diagonal
    assert [e[:2] for e in edges] == sorted(e[:2] for e in edges)  # row-major


SMALL_RUN = ["--n", "80", "--ntest", "10", "--experts", "2", "--seed", "1",
             "--methods", "poe,npae*", "--no-timing"]


def test_cli_names_an_out_path_it_cannot_write(tmp_path, capsys):
    out = tmp_path / "missing" / "report.json"
    assert main([*SMALL_RUN, "--out", str(out)]) == 2
    assert str(out) in capsys.readouterr().err


def test_cli_out_file_is_the_stdout_text(tmp_path, capsys):
    out = tmp_path / "report.json"
    assert main([*SMALL_RUN, "--out", str(out)]) == 0
    assert capsys.readouterr().out == ""
    assert main(SMALL_RUN) == 0
    assert out.read_text() == capsys.readouterr().out


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


def test_cli_defaults_are_the_config_defaults():
    parser = gpexperts.bench._build_parser()
    assert gpexperts.bench._config(parser.parse_args([])) == ExperimentConfig()
    args = parser.parse_args(
        [
            "--data", "rows.csv", "--n", "50", "--ntest", "7",
            "--noise-sd", "0.3", "--target-col", "2", "--train-fraction", "0.5",
            "--experts", "4", "--partition", "random", "--methods", "poe, npae*",
            "--alpha", "0.5", "--lambda", "0.2", "--seed", "3", "--restarts", "2",
            "--no-timing",
        ]
    )
    assert gpexperts.bench._config(args) == ExperimentConfig(
        data="rows.csv", n=50, n_test=7, noise_sd=0.3, target_column=2,
        train_fraction=0.5, n_experts=4, partition="random",
        methods=("poe", "npae*"), alpha=0.5, penalty=0.2, seed=3, restarts=2,
        measure_time=False,
    )


def test_cli_rejects_unknown_method(capsys):
    assert main(["--methods", "magic"]) == 2
    assert "error:" in capsys.readouterr().err


def test_cli_rejects_a_nan_penalty(capsys):
    assert main([*SMALL_RUN, "--lambda", "nan"]) == 2
    assert "penalty must be >= 0" in capsys.readouterr().err


def test_cli_rejects_missing_data_file(capsys):
    assert main(["--data", "/nonexistent/rows.csv", "--methods", "poe"]) == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("argv, count", [
    (["--n", "80", "--ntest", "0"], 0),
    (["--n", "80", "--ntest", "1"], 1),
    (["--data", "{table}", "--train-fraction", "0.7"], 1),  # two train, one test
], ids=["ntest-0", "ntest-1", "table-of-3"])
def test_cli_needs_two_test_rows_before_it_trains(argv, count, tmp_path,
                                                 monkeypatch, capsys):
    def never(*args, **kwargs):
        raise AssertionError("partitioned or trained without a test set")

    for name in ("partition_kmeans", "train_ensemble", "fit"):
        monkeypatch.setattr(gpexperts.bench, name, never)
    table = tmp_path / "three.csv"
    table.write_text("1,2\n2,3\n4,1\n")
    argv = [a.format(table=table) for a in argv]
    assert main([*argv, "--methods", "fullgp,poe", "--no-timing"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: need at least two test rows, got {count}\n"


def test_cli_rejects_zero_restarts_before_it_partitions(monkeypatch, capsys):
    def never(*args, **kwargs):
        raise AssertionError("partitioned or trained with no restart")

    for name in ("partition_kmeans", "train_ensemble", "fit"):
        monkeypatch.setattr(gpexperts.bench, name, never)
    assert main([*SMALL_RUN, "--restarts", "0"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: restarts must be >= 1\n"


@pytest.mark.parametrize("methods, expected", [
    (("fullgp",), {"fit": 1}),
    (("poe", "gpoe"), {"partition_kmeans": 1, "train_ensemble": 1}),
    (("poe*",), {"partition_kmeans": 1, "train_ensemble": 1, "expert_graph": 1}),
    (METHOD_NAMES,
     {"partition_kmeans": 1, "train_ensemble": 1, "expert_graph": 1, "fit": 1}),
], ids=["fullgp", "unstarred", "starred", "all"])
def test_each_stage_runs_once_and_only_when_a_method_needs_it(
    methods, expected, monkeypatch
):
    calls = {}

    def counted(module, name):
        func = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return func(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    for name in ("partition_kmeans", "train_ensemble", "fit"):
        counted(gpexperts.bench, name)
    counted(gpexperts.selection, "expert_graph")
    report = run_experiment(ExperimentConfig(methods=methods, alpha=0.5, **FAST))
    assert calls == expected
    assert [r.error for r in report.results] == [None] * len(methods)


def test_cli_reports_a_training_whose_every_restart_fails(monkeypatch, capsys):
    # SingularMatrixError is a ValueError, so the CLI reports it as it
    # reports bad input: one error line and exit 2, not a traceback.
    def failing(px, py, pz, hp):
        raise SingularMatrixError("no factor")

    monkeypatch.setattr(gpexperts.gp, "_unit_evidence", failing)
    assert main([*SMALL_RUN, "--restarts", "2"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: all 2 optimizer restarts failed")


def test_cli_stdout_and_module_entry(tmp_path):
    # the child imports the package from where this process found it
    src = str(Path(gpexperts.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [
            sys.executable, "-m", "gpexperts.bench",
            "--n", "80", "--ntest", "10", "--experts", "2",
            "--methods", "poe", "--format", "csv", "--no-timing",
        ],
        capture_output=True,
        text=True,
        check=False,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0
    assert proc.stderr == ""  # runpy warns if the package had imported bench
    assert proc.stdout.startswith("method,type,")
    assert "poe,CI," in proc.stdout


# Runs one ExperimentConfig, given as JSON, and prints its report as JSON.
REPORT_CHILD = """
import json, sys
from dataclasses import asdict
from gpexperts.bench import ExperimentConfig, run_experiment
config = ExperimentConfig(**json.loads(sys.argv[1]))
print(json.dumps(asdict(run_experiment(config))))
"""


def test_selection_does_not_depend_on_the_blas_thread_count():
    # The thread count changes how OpenBLAS splits its sums, so the metrics
    # differ in their last digits (by about 1e-12 relative here).  On this
    # config the ranked importances differ by at least 9% of each other,
    # far above rounding, so what selection decides must not move.
    config = dict(n=480, n_test=60, n_experts=6, methods=["gpoe*", "rbcm*", "npae*"],
                  alpha=0.5, penalty=0.1, seed=0, measure_time=False)
    src = str(Path(gpexperts.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    reports = []
    for threads in ("1", "2"):
        env = {**os.environ, "PYTHONPATH": path, "OPENBLAS_NUM_THREADS": threads}
        proc = subprocess.run(
            [sys.executable, "-c", REPORT_CHILD, json.dumps(config)],
            capture_output=True, text=True, check=True, env=env,
        )
        reports.append(json.loads(proc.stdout))
    one, two = reports
    ranked = np.array(one["selection"]["importance"])[one["selection"]["order"]]
    assert np.all(ranked[1:] < 0.91 * ranked[:-1])
    for key in ("order", "selected", "glasso_steps", "glasso_converged"):
        assert one["selection"][key] == two["selection"][key], key
    for key in ("evaluations", "iterations"):
        assert one["training"]["ensemble"][key] == two["training"]["ensemble"][key], key
    for a, b in zip(one["results"], two["results"]):
        assert a["error"] is None and b["error"] is None
        for metric in ("smse", "msll", "mae"):
            assert a[metric] == pytest.approx(b[metric], rel=1e-9, abs=0), metric


def load_perfbench_tracer():
    path = ROOT / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_perfbench_sees_one_aggregator_call_per_method():
    # perfbench rebinds the module functions it wraps; a method table that
    # held function objects from import time would bypass its wrappers.
    tracer = load_perfbench_tracer()
    for module, attr, *_ in tracer.STAGE_SPECS + tracer.LAYER_SPECS:
        assert callable(getattr(importlib.import_module(module), attr)), attr
    config = ExperimentConfig(methods=METHOD_NAMES, alpha=0.5, **FAST)
    with tracer.installed(tracer.Tracer(), tracer.STAGE_SPECS) as tr:
        report = run_experiment(config)
    assert all(r.error is None for r in report.results)
    calls = [
        (rec[0], kwargs)
        for rec, kwargs, _ in tr.captured
        if rec[0] in tracer.AGGREGATOR_SPANS
    ]
    spans = dict(fullgp="gp.predict", npae="npae.aggregate", grbcm="committee.grbcm")
    spans.update(poe="committee.poe", gpoe="committee.poe")
    spans.update(bcm="committee.bcm", rbcm="committee.bcm")
    assert [span for span, _ in calls] == [spans[m.rstrip("*")] for m in METHOD_NAMES]
    for name, (_, kwargs) in zip(METHOD_NAMES, calls):
        if name.endswith("*"):
            assert kwargs.get("subset") is not None, name


def test_perfbench_reads_the_glasso_budget_expert_graph_passes(monkeypatch):
    # perfbench's graphical-lasso hook reads max_iter from the call's keywords
    # and falls back to 100, so only a budget below that shows which it read:
    # a run capped at 2 steps uses them all and must count as not converged.
    tracer = load_perfbench_tracer()
    data = synth_dataset(600, 60, 0.2, seed=0)
    parts = partition_kmeans(data.x_train, 12, seed=1)
    ens = train_ensemble(data.x_train, data.y_train, parts, seed=2)
    specs = tracer.STAGE_SPECS + tracer.LAYER_SPECS
    with tracer.installed(tracer.Tracer(), specs) as tr:
        graph = gpexperts.selection.expert_graph(ens, data.x_test, lam=0.05)
    assert 2 < graph.steps < gpexperts.selection.GLASSO_MAX_ITER and graph.converged
    assert tr.counts["selection.glasso_sweeps"] == graph.steps
    assert tr.counts["selection.glasso_converged"] == 1
    monkeypatch.setattr(gpexperts.selection, "GLASSO_MAX_ITER", 2)
    with tracer.installed(tracer.Tracer(), specs) as tr:
        with pytest.warns(RuntimeWarning, match="converge"):
            capped = gpexperts.selection.expert_graph(ens, data.x_test, lam=0.05)
    assert tr.counts["selection.glasso_sweeps"] == capped.steps == 2
    assert tr.counts["selection.glasso_converged"] == 0 == capped.converged


def test_perfbench_selftest_oracles_accept_the_library(monkeypatch):
    # the benchmark's self-test feeds its oracles the library's outputs
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    selftest = importlib.import_module("selftest")
    failures = []
    selftest.oracle_rejections(failures)
    assert failures == []


def test_perfbench_workload_runs_one_traced_repeat_cleanly(monkeypatch, tmp_path):
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    harness = importlib.import_module("harness")
    record = harness.run_workload("synth-3k-m40-select", 1, 0, True, ROOT, tmp_path)
    assert record["correct"] and record["problems"] == [] and record["failed"] == 0
    assert record["repeats"] == 1
