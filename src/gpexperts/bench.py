"""Benchmark driver: train an ensemble, run aggregation methods, report metrics.

Method names: fullgp, poe, gpoe, bcm, rbcm, grbcm, npae.  Every aggregation
method also has a starred form (e.g. ``npae*``) that runs on the subset of
experts kept by graph-based selection.  Reports carry SMSE, MSLL, and MAE on
the normalized target scale plus wall-clock training and prediction times,
and serialize to JSON or CSV.  The JSON report's ``training`` block records,
for the ensemble and for ``fullgp``, the optimizer's evaluation and
iteration counts, whether it converged, how many restarts failed, and the
factorization jitter.  Each JSON result row counts, as ``failed_points``,
the test points its method flagged in ``PredictiveDist.failed``; the CSV
report leaves it out.  MSLL scores the predictive distribution of the
held-out observation, so the trained noise variance is added to the latent
predictive variances before scoring.

Run from the command line via ``gpexperts-bench`` or
``python -m gpexperts.bench``.
"""

import argparse
import csv
import io
import json
import sys
import time
from dataclasses import asdict, dataclass, field

from . import committee, metrics, npae, selection
from .data import load_delimited, synth_dataset
from .experts import train_ensemble
from .gp import fit, gp_predict
from .partition import partition_kmeans, partition_random

BASE_METHODS = ("fullgp", "poe", "gpoe", "bcm", "rbcm", "grbcm", "npae")
METHOD_NAMES = BASE_METHODS + tuple(m + "*" for m in BASE_METHODS if m != "fullgp")


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
    dump_graph: str | None = None

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
        if self.penalty < 0:
            raise ValueError("penalty must be >= 0")
        if self.n_experts < 1:
            raise ValueError("need at least one expert")
        if self.dump_graph and all(m == "fullgp" for m in self.methods):
            raise ValueError("--dump-graph needs at least one expert-based method")


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
    error: str | None = None


@dataclass
class ExperimentReport:
    config: dict
    results: list = field(default_factory=list)
    selection: dict | None = None
    training: dict = field(default_factory=dict)


def _method_kind(name: str) -> str:
    if name == "fullgp":
        return "full"
    return "D" if name.rstrip("*") == "npae" else "CI"


def run_experiment(config: ExperimentConfig) -> ExperimentReport:
    """Execute one benchmark configuration end to end.

    Per-method failures are recorded in the report rather than raised; data
    and configuration problems raise immediately.
    """
    clock = time.perf_counter if config.measure_time else (lambda: 0.0)

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
    train_mean = float(dataset.y_train.mean())
    train_var = float(dataset.y_train.var())

    wants_ensemble = any(m != "fullgp" for m in config.methods)
    wants_graph = any(m.endswith("*") for m in config.methods)
    ensemble, ensemble_seconds = None, 0.0
    if wants_ensemble:
        if config.partition == "kmeans":
            parts = partition_kmeans(
                dataset.x_train, config.n_experts, seed=config.seed + 1
            )
        else:
            parts = partition_random(
                dataset.n_train, config.n_experts, seed=config.seed + 1
            )
        t0 = clock()
        ensemble = train_ensemble(
            dataset.x_train,
            dataset.y_train,
            parts,
            restarts=config.restarts,
            seed=config.seed + 2,
        )
        ensemble_seconds = clock() - t0

    graph, graph_seconds = None, 0.0
    if (wants_graph or config.dump_graph) and ensemble is not None:
        t0 = clock()
        graph = selection.expert_graph(
            ensemble, dataset.x_test, lam=config.penalty, alpha=config.alpha
        )
        graph_seconds = clock() - t0
        if config.dump_graph:
            selection.save_graph(graph, config.dump_graph)

    full_model, full_seconds = None, 0.0
    if "fullgp" in config.methods:
        t0 = clock()
        full_model = fit(
            dataset.x_train,
            dataset.y_train,
            restarts=config.restarts,
            seed=config.seed + 2,
        )
        full_seconds = clock() - t0

    report = ExperimentReport(config=asdict(config))
    if ensemble is not None:
        report.training["ensemble"] = {
            **asdict(ensemble.training),
            "jitter": [e.jitter for e in ensemble.experts],
        }
    if full_model is not None:
        report.training["fullgp"] = {
            **asdict(full_model.training),
            "jitter": full_model.jitter,
        }
    if graph is not None:
        report.selection = {
            "penalty": config.penalty,
            "alpha": config.alpha,
            "importance": [float(v) for v in graph.importance],
            "order": [int(v) for v in graph.order],
            "selected": [int(v) for v in graph.selected],
            "graph_seconds": graph_seconds,
            "glasso_steps": graph.steps,
            "glasso_converged": graph.converged,
            "components": graph.components,
        }

    for name in config.methods:
        row = MethodResult(method=name, kind=_method_kind(name))
        row.train_seconds = full_seconds if name == "fullgp" else ensemble_seconds
        try:
            subset = graph.selected if name.endswith("*") else None
            base = name.rstrip("*")
            t0 = clock()
            if base == "fullgp":
                pred = gp_predict(full_model, dataset.x_test)
            elif base == "npae":
                pred = npae.npae_aggregate(ensemble, dataset.x_test, subset=subset)
            elif base == "poe":
                pred = committee.poe_aggregate(
                    ensemble, dataset.x_test, subset=subset, scheme="ones"
                )
            elif base == "gpoe":
                pred = committee.poe_aggregate(
                    ensemble, dataset.x_test, subset=subset, scheme="uniform"
                )
            elif base == "bcm":
                pred = committee.bcm_aggregate(
                    ensemble, dataset.x_test, subset=subset, scheme="ones"
                )
            elif base == "rbcm":
                pred = committee.bcm_aggregate(
                    ensemble, dataset.x_test, subset=subset, scheme="diff_entropy"
                )
            else:  # grbcm
                if name.endswith("*"):
                    pred = committee.grbcm_aggregate(
                        ensemble,
                        dataset.x_test,
                        base_choice="top_importance",
                        subset=subset,
                        order=graph.order,
                    )
                else:
                    pred = committee.grbcm_aggregate(
                        ensemble,
                        dataset.x_test,
                        base_choice="random",
                        seed=config.seed + 3,
                    )
            row.predict_seconds = clock() - t0
            if pred.failed is not None:
                row.failed_points = int(pred.failed.sum())
            hp = (full_model if base == "fullgp" else ensemble).hp
            row.smse = metrics.smse(dataset.y_test, pred.means)
            row.msll = metrics.msll(
                dataset.y_test,
                pred.means,
                pred.variances + hp.noise_variance,
                train_mean,
                train_var,
            )
            row.mae = metrics.mae(dataset.y_test, pred.means)
        except Exception as err:  # recorded, not raised: the run must finish
            row.error = f"{type(err).__name__}: {err}"
        report.results.append(row)
    return report


def render_report(report: ExperimentReport, fmt: str = "json") -> str:
    """Serialize a report to JSON or CSV text (deterministic for equal inputs)."""
    if fmt == "json":
        payload = {
            "config": report.config,
            "selection": report.selection,
            "training": report.training,
            "results": [asdict(r) for r in report.results],
        }
        return json.dumps(payload, indent=2, sort_keys=True) + "\n"
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


def emit_report(report: ExperimentReport, fmt: str = "json", path=None) -> str:
    """Render the report; write it to ``path`` when given, else return only."""
    text = render_report(report, fmt)
    if path is not None:
        try:
            with open(path, "w", encoding="ascii") as fh:
                fh.write(text)
        except OSError as err:
            raise OSError(f"cannot write report to {path}: {err}") from err
    return text


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gpexperts-bench",
        description="Benchmark distributed GP aggregation methods.",
    )
    parser.add_argument(
        "--data",
        default="synthetic",
        help="'synthetic' or a path to a numeric CSV/whitespace table",
    )
    parser.add_argument("--n", type=int, default=2000, help="synthetic training size")
    parser.add_argument("--ntest", type=int, default=200, help="synthetic test size")
    parser.add_argument(
        "--noise-sd", type=float, default=0.2, help="synthetic noise level"
    )
    parser.add_argument(
        "--target-col",
        type=int,
        default=-1,
        help="target column for file datasets (default: last)",
    )
    parser.add_argument(
        "--train-fraction",
        type=float,
        default=0.9,
        help="training fraction for file datasets",
    )
    parser.add_argument("--experts", type=int, default=10, help="number of experts")
    parser.add_argument(
        "--partition", choices=("kmeans", "random"), default="kmeans"
    )
    parser.add_argument(
        "--methods",
        default="npae",
        help=f"comma-separated subset of {', '.join(METHOD_NAMES)}",
    )
    parser.add_argument(
        "--alpha",
        type=float,
        default=1.0,
        help="fraction of experts kept by starred methods",
    )
    parser.add_argument(
        "--lambda",
        dest="penalty",
        type=float,
        default=0.1,
        help="graphical lasso penalty for expert selection",
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--restarts", type=int, default=1, help="hyperparameter optimizer restarts"
    )
    parser.add_argument("--out", default=None, help="report path (default: stdout)")
    parser.add_argument("--format", choices=("json", "csv"), default="json")
    parser.add_argument(
        "--dump-graph",
        default=None,
        help="also write the expert precision matrix as an edge-list CSV",
    )
    parser.add_argument(
        "--no-timing",
        action="store_true",
        help="report zero timings so reruns are byte-identical",
    )
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        config = ExperimentConfig(
            data=args.data,
            n=args.n,
            n_test=args.ntest,
            noise_sd=args.noise_sd,
            target_column=args.target_col,
            train_fraction=args.train_fraction,
            n_experts=args.experts,
            partition=args.partition,
            methods=tuple(m.strip() for m in args.methods.split(",") if m.strip()),
            alpha=args.alpha,
            penalty=args.penalty,
            seed=args.seed,
            restarts=args.restarts,
            measure_time=not args.no_timing,
            dump_graph=args.dump_graph,
        )
        report = run_experiment(config)
        text = emit_report(report, fmt=args.format, path=args.out)
    except (ValueError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    if args.out is None:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
