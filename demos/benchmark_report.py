"""
Running a benchmark sweep
=========================

Drives the benchmark harness end to end: one experiment config, several
aggregation methods with and without graph pruning, and a rendered report.
The same sweep is available from the shell as

    gpexperts-bench --n 800 --ntest 100 --experts 8 \
        --methods fullgp,gpoe,npae,npae*,rbcm* --alpha 0.6 --seed 0
"""

from gpexperts.bench import ExperimentConfig, render_report, run_experiment

config = ExperimentConfig(
    n=800,
    n_test=100,
    noise_sd=0.2,
    n_experts=8,
    methods=("fullgp", "gpoe", "npae", "npae*", "rbcm*"),
    alpha=0.6,
    penalty=0.1,
    seed=0,
)
report = run_experiment(config)

# A starred method reruns its base rule on the experts the dependency graph
# kept, so its expert subset shows up in the report metadata, next to the
# graph itself: one [i, j, precision] entry per diagonal entry and per edge.
edges = report.selection["edges"]
print(f"graph: {sum(i != j for i, j, _ in edges)} edges among {config.n_experts} experts")
print(f"kept experts: {report.selection['selected']}")
print(f"ranked order: {report.selection['order']}\n")

for row in report.results:
    if row.error is not None:
        print(f"{row.method}: failed with {row.error}")
        continue
    print(
        f"{row.method:<7} kind {row.kind:<4} smse {row.smse:.4f} "
        f"msll {row.msll:7.3f} predict {row.predict_seconds:.2f}s"
    )

# Reports serialize to json or csv; both are stable byte-for-byte when
# timing capture is turned off.
print("\ncsv form:")
print(render_report(report, fmt="csv"))
