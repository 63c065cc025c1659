"""Benchmark driver: train an ensemble, run aggregation methods, report metrics.

Method names: fullgp, poe, gpoe, bcm, rbcm, grbcm, npae.  Every aggregation
method also has a starred form (e.g. ``npae*``) that runs on the subset of
experts kept by graph-based selection.  The method table ``METHODS`` maps
each base name to its kind (CI, D or full: the report's ``type`` column) and
its rule's call; the starred form passes the kept subset.
Reports carry SMSE, MSLL, and MAE on the normalized target scale plus
wall-clock training and prediction times, and serialize to JSON or CSV.  The
JSON report's ``training`` block records, for the ensemble and for
``fullgp``, the optimizer's evaluation and iteration counts, whether it
converged, how many restarts failed, the largest jitter its likelihood
evaluations needed, and the final factorization jitter; the ensemble's block
adds k-means' Lloyd iteration count and whether Lloyd converged.  Each JSON
result row counts, as ``failed_points``, the True entries of the (t,) mask
``PredictiveDist.failed``, and as ``deflated_points`` those of the mask
``PredictiveDist.deflated`` (where NPAE dropped a redundant expert);
``max_jitter`` is the jitter grbcm's factorizations needed.  The last two
read 0 for every other rule, and the CSV report leaves all three out.  The
JSON ``selection`` block (when a starred method ran) carries the expert
graph as ``edges``: ``[i, j, precision]`` triples, row-major, for each
diagonal and nonzero upper entry.  MSLL scores the predictive distribution
of the held-out observation, so the trained noise variance is added to the
latent predictive variances before scoring.

Run from the command line via ``gpexperts-bench`` or
``python -m gpexperts.bench``.
"""

import argparse
import csv
import io
import json
import sys
import time
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from . import committee, metrics, npae, selection
from .data import load_delimited, synth_dataset
from .experts import train_ensemble
from .gp import fit, gp_predict
from .partition import partition_kmeans, partition_random


def _committee(rule, **fixed):
    return lambda ens, xs, subset, *_: getattr(committee, rule)(
        ens, xs, subset=subset, **fixed
    )


def _grbcm(ensemble, xs, subset, graph, seed):
    """grbcm's base: a seeded random expert, or the graph's top-ranked one.

    ``subset`` goes by keyword, as for every rule: tracers read it there.
    """
    if subset is None:
        base = int(np.random.default_rng(seed).integers(ensemble.n_experts))
        return committee.grbcm_aggregate(ensemble, xs, base)
    return committee.grbcm_aggregate(ensemble, xs, int(graph.order[0]), subset=subset)


# name -> (kind, predict(model, x_test, subset, graph, seed)), model the full
# GP for fullgp, else the ensemble.  Each looks its function up at call time,
# so one rebound after import (by a tracer or a test) is the one called.
METHODS = {
    "fullgp": ("full", lambda model, xs, *_: gp_predict(model, xs)),
    "poe": ("CI", _committee("poe_aggregate", scheme="ones")),
    "gpoe": ("CI", _committee("poe_aggregate", scheme="uniform")),
    "bcm": ("CI", _committee("bcm_aggregate", scheme="ones")),
    "rbcm": ("CI", _committee("bcm_aggregate", scheme="diff_entropy")),
    "grbcm": ("CI", _grbcm),
    "npae": ("D", lambda ens, xs, subset, *_:
             npae.npae_aggregate(ens, xs, subset=subset)),
}
METHOD_NAMES = tuple(METHODS) + tuple(m + "*" for m in METHODS if m != "fullgp")


@dataclass
class ExperimentConfig:
    data: str = "synthetic"
    n: int = 2000
    n_test: int = 200
    noise_sd: float = 0.2
    target_column: int = -1
    train_fraction: float = 0.9
    n_experts: int = 10
    partition: str = "kmeans"
    methods: tuple = ("npae",)
    alpha: float = 1.0
    penalty: float = 0.1
    seed: int = 0
    restarts: int = 1
    measure_time: bool = True

    def __post_init__(self):
        if self.partition not in ("kmeans", "random"):
            raise ValueError(f"unknown partition strategy {self.partition!r}")
        unknown = [m for m in self.methods if m not in METHOD_NAMES]
        if unknown:
            raise ValueError(f"unknown methods {unknown}; valid: {METHOD_NAMES}")
        if not self.methods:
            raise ValueError("no methods requested")
        if not 0.0 < self.alpha <= 1.0:
            raise ValueError("alpha must be in (0, 1]")
        if not self.penalty >= 0:  # NaN fails this too
            raise ValueError("penalty must be >= 0")
        if self.n_experts < 1:
            raise ValueError("need at least one expert")
        if self.restarts < 1:
            raise ValueError("restarts must be >= 1")


@dataclass
class MethodResult:
    method: str
    kind: str  # "CI", "D", or "full"
    smse: float | None = None
    msll: float | None = None
    mae: float | None = None
    train_seconds: float = 0.0
    predict_seconds: float = 0.0
    failed_points: int = 0  # points flagged in PredictiveDist.failed
    deflated_points: int = 0  # points flagged in PredictiveDist.deflated
    max_jitter: float = 0.0  # PredictiveDist.max_jitter
    error: str | None = None


@dataclass
class ExperimentReport:
    config: dict
    results: list = field(default_factory=list)
    selection: dict | None = None
    training: dict = field(default_factory=dict)


def run_experiment(config: ExperimentConfig) -> ExperimentReport:
    """Execute one benchmark configuration end to end.

    Each stage runs once, only if a requested method needs it, and its report
    block is built as soon as it returns.  Per-method failures are recorded in
    the report rather than raised; data and configuration problems, such as
    under two test rows, raise at once.
    """
    clock = time.perf_counter if config.measure_time else (lambda: 0.0)

    def timed(func, *args, **kwargs):
        t0 = clock()
        result = func(*args, **kwargs)
        return result, clock() - t0

    if config.data == "synthetic":
        dataset = synth_dataset(
            config.n, config.n_test, config.noise_sd, seed=config.seed
        )
    else:
        dataset = load_delimited(
            config.data,
            target_column=config.target_column,
            train_fraction=config.train_fraction,
            seed=config.seed,
        )
    if dataset.n_test < 2:
        raise ValueError(f"need at least two test rows, got {dataset.n_test}")
    train_mean = float(dataset.y_train.mean())
    train_var = float(dataset.y_train.var())

    report = ExperimentReport(config=asdict(config))
    trained = {}  # kind -> (model, training seconds)
    ensemble, graph = None, None
    if any(m != "fullgp" for m in config.methods):
        if config.partition == "kmeans":
            parts = partition_kmeans(
                dataset.x_train, config.n_experts, seed=config.seed + 1
            )
        else:
            parts = partition_random(
                dataset.n_train, config.n_experts, seed=config.seed + 1
            )
        ensemble, seconds = timed(train_ensemble, dataset.x_train, dataset.y_train,
                                  parts, restarts=config.restarts, seed=config.seed + 2)
        trained["CI"] = trained["D"] = ensemble, seconds
        report.training["ensemble"] = {
            **asdict(ensemble.training),
            "jitter": [e.jitter for e in ensemble.experts],
            "partition": {"iterations": parts.iterations,
                          "converged": parts.converged,
                          "sizes": parts.sizes.tolist()},
        }

    if any(m.endswith("*") for m in config.methods):
        graph, graph_seconds = timed(selection.expert_graph, ensemble, dataset.x_test,
                                     lam=config.penalty, alpha=config.alpha)
        # every diagonal entry (the precision is positive definite) and edge
        omega = graph.precision
        rows, cols = np.nonzero(np.triu(omega))
        report.selection = {
            "edges": [[i, j, float(omega[i, j])]
                      for i, j in zip(rows.tolist(), cols.tolist())],
            "importance": [float(v) for v in graph.importance],
            "order": [int(v) for v in graph.order],
            "selected": [int(v) for v in graph.selected],
            "graph_seconds": graph_seconds,
            "glasso_steps": graph.steps,
            "glasso_converged": graph.converged,
            "components": len(graph.components),
        }

    if "fullgp" in config.methods:
        full_model, seconds = timed(fit, dataset.x_train, dataset.y_train,
                                    restarts=config.restarts, seed=config.seed + 2)
        trained["full"] = full_model, seconds
        report.training["fullgp"] = {
            **asdict(full_model.training),
            "jitter": full_model.jitter,
        }

    for name in config.methods:
        kind, predict = METHODS[name.rstrip("*")]
        model, train_seconds = trained[kind]
        row = MethodResult(method=name, kind=kind, train_seconds=train_seconds)
        try:
            subset = graph.selected if name.endswith("*") else None
            pred, row.predict_seconds = timed(
                predict, model, dataset.x_test, subset, graph, config.seed + 3
            )
            row.max_jitter = pred.max_jitter
            row.failed_points = int(pred.failed.sum())
            row.deflated_points = int(pred.deflated.sum())
            row.smse = metrics.smse(dataset.y_test, pred.means)
            row.msll = metrics.msll(
                dataset.y_test,
                pred.means,
                pred.variances + model.hp.noise_variance,
                train_mean,
                train_var,
            )
            row.mae = metrics.mae(dataset.y_test, pred.means)
        except Exception as err:  # recorded, not raised: the run must finish
            row.error = f"{type(err).__name__}: {err}"
        report.results.append(row)
    if ensemble is not None:
        ensemble.forget()  # the member pass is not needed past the last method
    return report


def render_report(report: ExperimentReport, fmt: str = "json") -> str:
    """Serialize a report to JSON or CSV text (deterministic for equal inputs)."""
    if fmt == "json":
        return json.dumps(asdict(report), indent=2, sort_keys=True) + "\n"
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(
            ["method", "type", "smse", "msll", "mae", "train_s", "predict_s"]
        )
        for r in report.results:
            writer.writerow(
                [
                    r.method,
                    r.kind,
                    *(
                        "" if v is None else repr(float(v))
                        for v in (r.smse, r.msll, r.mae)
                    ),
                    repr(float(r.train_seconds)),
                    repr(float(r.predict_seconds)),
                ]
            )
        return buf.getvalue()
    raise ValueError(f"unknown report format {fmt!r}")


def _method_list(text):
    return tuple(m.strip() for m in text.split(",") if m.strip())


# (flag, ExperimentConfig field, add_argument keywords); each option's
# default is its field's.
_CONFIG_OPTIONS = (
    ("--data", "data",
     dict(help="'synthetic' or a path to a numeric CSV/whitespace table")),
    ("--n", "n", dict(type=int, help="synthetic training size")),
    ("--ntest", "n_test", dict(type=int, help="synthetic test size")),
    ("--noise-sd", "noise_sd", dict(type=float, help="synthetic noise level")),
    ("--target-col", "target_column",
     dict(type=int, help="target column for file datasets (default: last)")),
    ("--train-fraction", "train_fraction",
     dict(type=float, help="training fraction for file datasets")),
    ("--experts", "n_experts", dict(type=int, help="number of experts")),
    ("--partition", "partition", dict(choices=("kmeans", "random"))),
    ("--methods", "methods",
     dict(type=_method_list,
          help=f"comma-separated subset of {', '.join(METHOD_NAMES)}")),
    ("--alpha", "alpha",
     dict(type=float, help="fraction of experts kept by starred methods")),
    ("--lambda", "penalty",
     dict(type=float, help="graphical lasso penalty for expert selection")),
    ("--seed", "seed", dict(type=int)),
    ("--restarts", "restarts",
     dict(type=int, help="hyperparameter optimizer restarts")),
)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gpexperts-bench",
        description="Benchmark distributed GP aggregation methods.",
    )
    for flag, name, keywords in _CONFIG_OPTIONS:
        parser.add_argument(
            flag, dest=name, default=getattr(ExperimentConfig, name), **keywords
        )
    parser.add_argument("--out", default=None, help="report path (default: stdout)")
    parser.add_argument("--format", choices=("json", "csv"), default="json")
    parser.add_argument(
        "--no-timing",
        dest="measure_time",
        action="store_false",
        help="report zero timings so reruns are byte-identical",
    )
    return parser


def _config(args) -> ExperimentConfig:
    """The ExperimentConfig named by parsed CLI arguments."""
    return ExperimentConfig(
        **{f.name: getattr(args, f.name) for f in fields(ExperimentConfig)}
    )


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        text = render_report(run_experiment(_config(args)), args.format)
        if args.out is not None:
            with open(args.out, "w", encoding="ascii") as fh:
                fh.write(text)
    except (ValueError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    if args.out is None:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
