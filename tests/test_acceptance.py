"""End-to-end acceptance checks, one numbered test per criterion.

Each test prints a single PASS/FAIL line (run with ``-s`` or read captured
output).  Several criteria run at benchmark scale, so this module takes a few
minutes; the fast unit suites live in the other test files.
"""

import time

import numpy as np
import pytest

from gpexperts import (
    Hyperparams,
    bcm_aggregate,
    expert_graph,
    fit,
    gp_predict,
    graphical_lasso,
    log_marginal_likelihood,
    msll,
    npae_aggregate,
    partition_kmeans,
    poe_aggregate,
    select_experts,
    smse,
    synth_dataset,
    train_ensemble,
)
from conftest import from_log_vector
from gpexperts.bench import ExperimentConfig, render_report, run_experiment

LAMBDA_GRID = (0.01, 0.05, 0.1, 0.3, 0.7)


def report_line(num, ok, detail):
    print(f"criterion {num:>2}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num} failed: {detail}"


def observed_msll(dataset, pred, hp):
    """Log loss of the noisy-observation predictive distribution."""
    return msll(
        dataset.y_test,
        pred.means,
        pred.variances + hp.noise_variance,
        float(dataset.y_train.mean()),
        float(dataset.y_train.var()),
    )


@pytest.fixture(scope="module")
def fig2():
    """Benchmark-scale shared setup: n=2000, 10 experts, graph at lam=0.1."""
    t_start = time.perf_counter()
    ds = synth_dataset(n=2000, n_test=200, seed=0)
    parts = partition_kmeans(ds.x_train, 10, seed=1)
    ens = train_ensemble(ds.x_train, ds.y_train, parts, restarts=1, seed=2)
    graph = expert_graph(ens, ds.x_test, lam=0.1, alpha=0.8)

    def timed_npae(subset):
        # min of 5: single ~0.1 s timings swing with machine load
        times = []
        for _ in range(5):
            t0 = time.perf_counter()
            pred = npae_aggregate(ens, ds.x_test, subset=subset)
            times.append(time.perf_counter() - t0)
        return pred, min(times)

    npae_full, t_full = timed_npae(None)
    npae_star = npae_aggregate(ens, ds.x_test, subset=graph.selected)
    half = select_experts(graph.order, 0.5)
    npae_half, t_half = timed_npae(half)
    gpoe = poe_aggregate(ens, ds.x_test, scheme="uniform")
    return {
        "ds": ds,
        "ens": ens,
        "graph": graph,
        "npae": npae_full,
        "npae_star": npae_star,
        "npae_half": npae_half,
        "gpoe": gpoe,
        "t_full": t_full,
        "t_half": t_half,
        "elapsed": time.perf_counter() - t_start,
    }


@pytest.fixture(scope="module")
def real_csv(tmp_path_factory):
    """A 6600-row regression table with two pockets of junk-noise targets.

    The base surface is an 8-input smooth benchmark function; two interior
    clusters carry pure-noise targets so expert quality is heterogeneous and
    pruning the noise-dominated experts has something to gain.
    """

    def surface(x):
        return (
            10.0 * np.sin(np.pi * x[:, 0] * x[:, 1])
            + 20.0 * (x[:, 2] - 0.5) ** 2
            + 10.0 * x[:, 3]
            + 5.0 * x[:, 4]
        )

    rng = np.random.default_rng(11)
    x = rng.uniform(0.0, 1.0, size=(5400, 8))
    y = surface(x) + rng.normal(0.0, 1.0, size=5400)
    centers = [
        np.array([0.7, 0.7, 0.3, 0.7, 0.3, 0.5, 0.5, 0.5]),
        np.array([0.3, 0.3, 0.7, 0.3, 0.7, 0.5, 0.5, 0.5]),
    ]
    blob_x = [
        np.clip(c + rng.normal(0.0, 0.04, size=(600, 8)), 0.0, 1.0) for c in centers
    ]
    blob_y = [
        surface(c[None, :])[0] + rng.normal(0.0, 8.0, size=600) for c in centers
    ]
    path = tmp_path_factory.mktemp("data") / "surface8d.csv"
    np.savetxt(
        path,
        np.column_stack([np.vstack([x] + blob_x), np.concatenate([y] + blob_y)]),
        delimiter=",",
        header="x0,x1,x2,x3,x4,x5,x6,x7,y",
        comments="",
    )
    return path


def test_01_single_expert_matches_full_gp():
    start = time.perf_counter()
    ds = synth_dataset(n=300, n_test=30, seed=0)
    parts = partition_kmeans(ds.x_train, 1, seed=1)
    ens = train_ensemble(ds.x_train, ds.y_train, parts, restarts=1, seed=2)
    full = fit(ds.x_train, ds.y_train, restarts=1, seed=2)
    ref = gp_predict(full, ds.x_test)
    candidates = {
        "expert": gp_predict(ens.experts[0], ds.x_test),
        "poe": poe_aggregate(ens, ds.x_test, scheme="ones"),
        "gpoe(beta=1)": poe_aggregate(ens, ds.x_test, scheme="uniform"),
        "bcm(beta=1)": bcm_aggregate(ens, ds.x_test, scheme="ones"),
    }
    worst = 0.0
    for pred in candidates.values():
        worst = max(
            worst,
            float(np.abs(pred.means - ref.means).max()),
            float(np.abs(pred.variances - ref.variances).max()),
        )
    elapsed = time.perf_counter() - start
    report_line(
        1,
        worst < 1e-8 and elapsed < 10.0,
        f"max abs err {worst:.2e} over {len(candidates)} methods, {elapsed:.1f}s",
    )


def test_02_likelihood_gradient_against_finite_differences():
    worst = 0.0
    for i in range(10):
        rng = np.random.default_rng(100 + i)
        x = rng.normal(size=(6, 3))
        y = rng.normal(size=6)
        hp = Hyperparams(
            float(np.exp(rng.uniform(-0.5, 0.5))),
            np.exp(rng.uniform(-0.5, 0.5, size=3)),
            float(np.exp(rng.uniform(-2.0, -0.5))),
        )
        _, grad = log_marginal_likelihood(x, y, hp)
        theta = hp.to_log_vector()
        h = 1e-6
        for j in range(theta.shape[0]):
            tp, tm = theta.copy(), theta.copy()
            tp[j] += h
            tm[j] -= h
            vp, _ = log_marginal_likelihood(x, y, from_log_vector(tp))
            vm, _ = log_marginal_likelihood(x, y, from_log_vector(tm))
            fd = (vp - vm) / (2.0 * h)
            worst = max(worst, abs(grad[j] - fd) / max(abs(fd), 1e-8))
    report_line(
        2, worst < 1e-5, f"worst coordinate rel err {worst:.2e} over 10 instances"
    )


def test_03_sparse_precision_solver():
    worst_rel = 0.0
    monotone = True
    sparsity = True
    for i in range(20):
        rng = np.random.default_rng(200 + i)
        b = rng.normal(size=(10, 10))
        a = b @ b.T + 10.0 * np.eye(10)
        d = 1.0 / np.sqrt(np.diagonal(a))
        s = a * np.outer(d, d)

        omega, history, _, _ = graphical_lasso(s, 0.0, tol=1e-7, max_iter=300)
        ref = np.linalg.inv(s)
        worst_rel = max(
            worst_rel, float(np.linalg.norm(omega - ref) / np.linalg.norm(ref))
        )
        monotone &= bool(np.all(np.diff(history) >= -1e-10))

        previous = np.inf
        for lam in LAMBDA_GRID:
            om, hist, _, _ = graphical_lasso(s, lam)
            monotone &= bool(np.all(np.diff(hist) >= -1e-10))
            nonzero = int(np.count_nonzero(om) - 10)
            sparsity &= nonzero <= previous
            previous = nonzero
    report_line(
        3,
        worst_rel < 1e-5 and monotone and sparsity,
        f"inverse rel err {worst_rel:.2e}, objective monotone {monotone}, "
        f"sparsity monotone {sparsity}",
    )


def test_04_keeping_all_experts_changes_nothing():
    config = ExperimentConfig(
        n=400,
        n_test=60,
        n_experts=5,
        methods=("npae", "npae*", "gpoe", "gpoe*", "rbcm", "rbcm*"),
        alpha=1.0,
        seed=0,
        measure_time=False,
    )
    rows = {r.method: r for r in run_experiment(config).results}
    diff = 0.0
    for base in ("npae", "gpoe", "rbcm"):
        for metric in ("smse", "msll", "mae"):
            diff = max(
                diff,
                abs(getattr(rows[base], metric) - getattr(rows[base + "*"], metric)),
            )
    report_line(4, diff == 0.0, f"max starred-vs-plain metric diff {diff!r}")


def test_05_pruned_aggregation_stays_close_and_fast(fig2):
    ds, ens = fig2["ds"], fig2["ens"]
    smse_full = smse(ds.y_test, fig2["npae"].means)
    smse_star = smse(ds.y_test, fig2["npae_star"].means)
    smse_gpoe = smse(ds.y_test, fig2["gpoe"].means)
    msll_full = observed_msll(ds, fig2["npae"], ens.hp)
    msll_star = observed_msll(ds, fig2["npae_star"], ens.hp)
    checks = {
        "star within 15%": smse_star <= 1.15 * smse_full,
        "beats gpoe": smse_full <= smse_gpoe,
        "half subset faster": fig2["t_half"] < fig2["t_full"],
        "log losses negative": msll_full < 0.0 and msll_star < 0.0,
        "under 5 min": fig2["elapsed"] < 300.0,
    }
    report_line(
        5,
        all(checks.values()),
        f"smse full/star/gpoe {smse_full:.4f}/{smse_star:.4f}/{smse_gpoe:.4f}, "
        f"msll {msll_full:.2f}/{msll_star:.2f}, "
        f"predict {fig2['t_half']:.2f}s vs {fig2['t_full']:.2f}s, "
        f"total {fig2['elapsed']:.0f}s"
        + ("" if all(checks.values()) else f", failing: {checks}"),
    )


def test_06_important_experts_beat_unimportant_ones(fig2):
    ds, ens, graph = fig2["ds"], fig2["ens"], fig2["graph"]
    size = select_experts(graph.order, 0.5).shape[0]
    top = np.sort(graph.order[:size])
    bottom = np.sort(graph.order[-size:])
    smse_top = smse(ds.y_test, npae_aggregate(ens, ds.x_test, subset=top).means)
    smse_bottom = smse(ds.y_test, npae_aggregate(ens, ds.x_test, subset=bottom).means)
    report_line(
        6,
        smse_top < smse_bottom,
        f"top-{size} smse {smse_top:.4f} < bottom-{size} smse {smse_bottom:.4f}",
    )


def test_07_variance_sanity(fig2):
    ds, ens = fig2["ds"], fig2["ens"]
    prior = ens.hp.signal_variance
    band_ok = all(
        bool(np.all(p.variances >= 0.0) and np.all(p.variances <= prior + 1e-12))
        for p in (fig2["npae"], fig2["npae_star"], fig2["npae_half"])
    )
    ci_preds = [
        poe_aggregate(ens, ds.x_test, scheme="ones"),
        fig2["gpoe"],
        bcm_aggregate(ens, ds.x_test, scheme="ones"),
        bcm_aggregate(ens, ds.x_test, scheme="diff_entropy"),
    ]
    positive_ok = all(bool(np.all(p.variances > 0.0)) for p in ci_preds)
    member_prec = sum(
        1.0 / gp_predict(e, ds.x_test).variances for e in ens.experts
    )
    fused_prec = 1.0 / ci_preds[0].variances
    additivity = float(np.max(np.abs(fused_prec - member_prec) / fused_prec))
    report_line(
        7,
        band_ok and positive_ok and additivity <= 1e-10,
        f"npae in [0, prior] {band_ok}, CI positive {positive_ok}, "
        f"precision additivity rel err {additivity:.2e}",
    )


def test_npae_variance_at_most_the_best_member(fig2):
    # M_ii = c_i, so conditioning on all members cannot leave more variance
    # than conditioning on any one of them (Rulliere et al. 2018)
    ds, ens, graph = fig2["ds"], fig2["ens"], fig2["graph"]
    member_vars = np.column_stack(
        [gp_predict(e, ds.x_test).variances for e in ens.experts]
    )
    for pred, subset in (
        (fig2["npae"], np.arange(ens.n_experts)),
        (fig2["npae_star"], graph.selected),
    ):
        best = member_vars[:, subset].min(axis=1)
        assert np.all(pred.variances <= best + 1e-9)


def test_08_more_data_at_fixed_expert_size_helps():
    values = []
    for n in (500, 1000, 2000):
        ds = synth_dataset(n=n, n_test=200, seed=0)
        parts = partition_kmeans(ds.x_train, n // 100, seed=1)
        ens = train_ensemble(ds.x_train, ds.y_train, parts, restarts=1, seed=2)
        graph = expert_graph(ens, ds.x_test, lam=0.1, alpha=0.8)
        pred = npae_aggregate(ens, ds.x_test, subset=graph.selected)
        values.append(smse(ds.y_test, pred.means))
    v0, v1, v2 = values
    ok = v1 <= 1.05 * v0 and v2 <= v1 and v2 <= v0
    report_line(8, ok, "smse trend " + " -> ".join(f"{v:.5f}" for v in values))


def test_09_pruning_helps_on_heterogeneous_real_table(real_csv):
    assert sum(1 for _ in open(real_csv)) - 1 >= 5000
    config = ExperimentConfig(
        data=str(real_csv),
        n_experts=10,
        methods=("gpoe", "gpoe*", "npae*"),
        alpha=0.8,
        penalty=0.1,
        seed=0,
        measure_time=False,
    )
    rows = {r.method: r for r in run_experiment(config).results}
    ok = (
        rows["npae*"].msll <= rows["gpoe"].msll
        and rows["gpoe*"].msll <= rows["gpoe"].msll + 1e-6
    )
    report_line(
        9,
        ok,
        f"msll gpoe {rows['gpoe'].msll:.4f}, gpoe* {rows['gpoe*'].msll:.4f}, "
        f"npae* {rows['npae*'].msll:.4f}",
    )


def test_10_same_seed_reports_are_byte_identical():
    config = dict(
        n=300,
        n_test=40,
        n_experts=4,
        methods=("fullgp", "npae*", "grbcm", "poe"),
        alpha=0.5,
        seed=3,
        measure_time=False,
    )
    first = run_experiment(ExperimentConfig(**config))
    second = run_experiment(ExperimentConfig(**config))
    same_json = render_report(first, "json") == render_report(second, "json")
    same_csv = render_report(first, "csv") == render_report(second, "csv")
    report_line(
        10, same_json and same_csv, f"json identical {same_json}, csv identical {same_csv}"
    )
