"""Self-test of the benchmark itself.

    python3 perfbench/selftest.py

1. Runs every workload's path at a small size, untraced and traced, and
   checks that each metric named in BENCHMARK.json is emitted with its unit,
   that the outputs pass every check, and that a second traced run with the
   same seed repeats every count exactly.
2. Feeds each oracle a correct output, which it must accept, and a
   deliberately perturbed one, which it must reject, so that no check can
   pass vacuously.

Exits 0 when everything passes and 1 otherwise.
"""

import sys

import run

SMALL = {
    "synth-1k-m10-all": dict(n=200, n_test=40, n_experts=4),
    "synth-3k-m40-select": dict(n=480, n_test=60, n_experts=8),
    "table-8d-m10": dict(n_experts=4, train_fraction=0.05, methods=("gpoe", "npae", "npae*")),
}
COUNT_UNITS = ("count", "bytes")


def check(ok, what, failures):
    print(f"{'ok  ' if ok else 'FAIL'} {what}")
    if not ok:
        failures.append(what)


def workload_paths(harness, failures):
    out_dir = run.OUT_DIR / "selftest"
    units = harness.metric_units(run.ROOT)
    for name, small in SMALL.items():
        plain = harness.run_workload(name, 0, 0, False, run.ROOT, out_dir, small)
        traced = harness.run_workload(name, 0, 0, True, run.ROOT, out_dir, small)
        again = harness.run_workload(name, 0, 0, True, run.ROOT, out_dir, small)
        for record, kind in ((plain, "end_to_end"), (traced, "per_layer")):
            got = {k: v["unit"] for k, v in record["metrics"].items()}
            check(got == units[kind],
                  f"{name} trace={record['trace']}: metrics and units match BENCHMARK.json",
                  failures)
            check(record["correct"] and record["failed"] == 0 and record["attempted"] > 0,
                  f"{name} trace={record['trace']}: outputs pass "
                  f"({record['problems'][:2]}, {list(record['failures'])})", failures)
        counts = {k: v["value"] for k, v in traced["metrics"].items()
                  if v["unit"] in COUNT_UNITS}
        counts2 = {k: v["value"] for k, v in again["metrics"].items()
                   if v["unit"] in COUNT_UNITS}
        check(counts == counts2, f"{name}: traced counts repeat exactly", failures)
        check(all(v["value"] > 0 for v in plain["metrics"].values()),
              f"{name}: every end-to-end metric is > 0", failures)


def oracle_rejections(failures):
    """Each oracle accepts the true output and rejects a perturbed one."""
    import numpy as np

    import gpexperts as gx
    import oracles
    from gpexperts.gp import log_marginal_likelihood

    data = gx.synth_dataset(300, 40, 0.2, seed=5)
    ens = gx.train_ensemble(
        data.x_train, data.y_train, gx.partition_kmeans(data.x_train, 5, seed=6), seed=7
    )
    hp, xs = ens.hp, data.x_test
    blocks = [(e.x, e.y) for e in ens.experts]
    means, variances = oracles.expert_posteriors(blocks, hp, xs)

    def pair(label, good, bad):
        check(not good(), f"oracle {label}: accepts the true output", failures)
        check(bool(bad()), f"oracle {label}: rejects a perturbed output", failures)

    full = gx.fit(data.x_train, data.y_train, seed=1)
    fp = gx.gp_predict(full, xs)
    pair("fullgp",
         lambda: oracles.check_fullgp(full.x, full.y, full.hp, xs, fp.means, fp.variances),
         lambda: oracles.check_fullgp(full.x, full.y, full.hp, xs, fp.means + 1e-4,
                                      fp.variances))
    for rule, pred in (
        ("poe", gx.poe_aggregate(ens, xs, scheme="ones")),
        ("gpoe", gx.poe_aggregate(ens, xs, scheme="uniform")),
        ("bcm", gx.bcm_aggregate(ens, xs, scheme="ones")),
        ("rbcm", gx.bcm_aggregate(ens, xs, scheme="diff_entropy")),
    ):
        pair(rule,
             lambda: oracles.check_committee(rule, means, variances, hp, pred.means,
                                             pred.variances),
             lambda: oracles.check_committee(rule, means, variances, hp, pred.means,
                                             pred.variances * 1.001))
    npae = gx.npae_aggregate(ens, xs)
    pair("npae",
         lambda: oracles.check_npae(blocks, hp, xs, npae.means, npae.variances),
         lambda: oracles.check_npae(blocks, hp, xs, npae.means * 1.001 + 1e-4,
                                    npae.variances))
    pair("npae bounds",
         lambda: oracles.check_npae_bounds(npae.variances, variances, hp.signal_variance),
         lambda: oracles.check_npae_bounds(np.max(variances, axis=1), variances,
                                           hp.signal_variance))
    graph = gx.expert_graph(ens, xs, lam=0.05, alpha=0.6)
    pair("sample covariance",
         lambda: oracles.check_sample_cov(means, graph.sample_cov),
         lambda: oracles.check_sample_cov(means, graph.sample_cov * 1.001))
    bent = graph.precision.copy()
    i, j = np.argwhere(np.triu(bent, 1) != 0)[0]
    bent[i, j] = bent[j, i] = 1.2 * bent[i, j]
    pair("graphical lasso",
         lambda: oracles.check_glasso(graph.sample_cov, graph.precision, 0.05, 0.005),
         lambda: oracles.check_glasso(graph.sample_cov, bent, 0.05, 0.005))
    swapped = np.array(sorted(set(graph.selected[1:]) | {int(graph.order[-1])}))
    pair("selection",
         lambda: oracles.check_selection(graph.precision, 0.6, graph.selected, graph.order),
         lambda: oracles.check_selection(graph.precision, 0.6, swapped))
    x0, y0 = blocks[0]
    value, grad = log_marginal_likelihood(x0, y0, hp)
    theta = hp.to_log_vector()
    pair("training gradient",
         lambda: oracles.check_gradient(x0, y0, theta, value, grad),
         lambda: oracles.check_gradient(x0, y0, theta, value, grad * 1.01))


def main() -> int:
    run.import_path()
    run.limit_blas_threads()
    import harness

    failures = []
    oracle_rejections(failures)
    workload_paths(harness, failures)
    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
