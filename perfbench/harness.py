"""Run one workload: time the pipeline stage by stage, then check its outputs.

A run repeats the workload's experiment (one ``run_experiment`` call)
until ``seconds`` have passed.  Timings are rescaled by the reference kernel
of ``calibration.py`` and reported as medians over the repeats.  A traced
run executes every repeat twice, untraced and then traced, and reports the
layer metrics of the traced copies.  Each repeat is reduced to its timings,
report rows and a digest of its predictions as soon as it ends; only the
first keeps its outputs, which are checked against the NumPy oracles.
"""

import hashlib
import json
import os
import platform
import resource
import statistics
import time
from pathlib import Path

import numpy as np
import scipy

from gpexperts import bench, gp
from gpexperts.bench import ExperimentConfig

import oracles
import tracer as tr
from calibration import REFERENCE_KERNEL_S, reference_kernel
from workloads import EXPERIMENT_SEED, SYNTHETIC, config_kwargs

# KKT slack allowed to the graphical lasso, as a share of its penalty.  The
# solver stops once a sweep moves the working covariance by less than 1e-4
# of S's mean absolute off-diagonal, averaged over all entries; that leaves
# element-wise gaps of up to 6% of the penalty at 40 experts.
GLASSO_KKT_SLACK = 0.1

# Layer metric -> how it is derived from one traced experiment:
# ("dur", spans) sums span durations, ("calls", spans) counts spans and
# ("count", key) reads a hook counter.  Names and units are declared in
# BENCHMARK.json.
PER_LAYER = {
    "data.build_s": ("dur", ("data.build",)),
    "data.rows": ("count", "data.rows"),
    "partition.kmeans_s": ("dur", ("partition.kmeans",)),
    "partition.max_part_size": ("count", "partition.max_part_size"),
    "partition.min_part_size": ("count", "partition.min_part_size"),
    "kernels.matrix_calls": ("calls", ("kernels.matrix",)),
    "kernels.matrix_s": ("dur", ("kernels.matrix",)),
    "kernels.matrix_entries": ("count", "kernels.matrix_entries"),
    "kernels.grad_calls": ("calls", ("kernels.grad",)),
    "kernels.grad_s": ("dur", ("kernels.grad",)),
    "kernels.grad_bytes": ("count", "kernels.grad_bytes"),
    "linalg.chol_calls": ("calls", ("linalg.chol",)),
    "linalg.chol_s": ("dur", ("linalg.chol",)),
    "linalg.chol_jittered": ("count", "linalg.chol_jittered"),
    "linalg.solve_calls": ("calls", ("linalg.solve",)),
    "linalg.solve_s": ("dur", ("linalg.solve",)),
    "linalg.solve_rhs_cols": ("count", "linalg.solve_rhs_cols"),
    "linalg.psd_solve_calls": ("calls", ("linalg.psd_solve",)),
    "linalg.psd_solve_s": ("dur", ("linalg.psd_solve",)),
    "gp.lml_calls": ("calls", ("gp.lml",)),
    "gp.lml_s": ("dur", ("gp.lml",)),
    "gp.fit_s": ("dur", ("gp.fit",)),
    "gp.fit_lml_calls": ("count", "gp.fit_lml_calls"),
    "gp.predict_s": ("dur", ("gp.predict",)),
    "experts.train_s": ("dur", ("experts.train",)),
    "experts.train_lml_calls": ("count", "experts.train_lml_calls"),
    "experts.predict_calls": ("calls", ("experts.predict",)),
    "experts.predict_s": ("dur", ("experts.predict",)),
    "committee.calls": ("calls", ("committee.poe", "committee.bcm", "committee.grbcm")),
    "committee.s": ("dur", ("committee.poe", "committee.bcm", "committee.grbcm")),
    "committee.prior_fallback_points": ("count", "committee.prior_fallback_points"),
    "npae.calls": ("calls", ("npae.aggregate",)),
    "npae.s": ("dur", ("npae.aggregate",)),
    "npae.point_solves": ("count", "npae.point_solves"),
    "npae.failed_points": ("count", "npae.failed_points"),
    "selection.cov_s": ("dur", ("selection.cov",)),
    "selection.glasso_s": ("dur", ("selection.glasso",)),
    "selection.glasso_sweeps": ("count", "selection.glasso_sweeps"),
    "selection.glasso_converged": ("count", "selection.glasso_converged"),
    "selection.edges": ("count", "selection.edges"),
    "selection.kept": ("count", "selection.kept"),
    "metrics.s": ("dur", ("metrics.smse", "metrics.msll", "metrics.mae")),
}


class Experiment:
    """One ``run_experiment`` call with everything its stages returned."""

    def __init__(self, config, traced):
        self.config = config
        self.tracer = tr.Tracer()
        specs = tr.STAGE_SPECS + (tr.LAYER_SPECS if traced else [])
        with tr.installed(self.tracer, specs):
            t0 = time.perf_counter()
            self.report = bench.run_experiment(config)
            self.total_s = time.perf_counter() - t0
        self.outputs = {}
        self.predictions = []  # (span name, subset, PredictiveDist or None, seconds)
        for rec, kwargs, result in self.tracer.captured:
            name = rec[0]
            if name in tr.AGGREGATOR_SPANS:
                self.predictions.append((name, kwargs.get("subset"), result, rec[3] - rec[2]))
            else:
                self.outputs[name] = result

    def stage_seconds(self) -> dict:
        dur = self.tracer.durations()
        npae_full = sum(s for n, sub, _, s in self.predictions
                        if n == "npae.aggregate" and sub is None)
        npae_sub = sum(s for n, sub, _, s in self.predictions
                       if n == "npae.aggregate" and sub is not None)
        return {
            "setup_s": dur["data.build"],
            "train_s": dur["partition.kmeans"] + dur["experts.train"],
            "select_s": dur["selection.graph"],
            "predict_s": sum(s for _, _, _, s in self.predictions),
            "npae_s": npae_full,
            "npae_star_s": dur["selection.graph"] + npae_sub,
            "total_s": self.total_s,
        }

    def layer_metrics(self) -> dict:
        spans = self.tracer.spans
        dur = self.tracer.durations()
        out = {}
        for key, (kind, what) in PER_LAYER.items():
            if kind == "dur":
                out[key] = sum(dur[n] for n in what)
            elif kind == "calls":
                out[key] = sum(1 for s in spans if s[0] in what)
            else:
                out[key] = self.tracer.counts[what]
        return out

    def digest(self) -> str:
        """Hash of the report rows and every prediction, bit for bit."""
        h = hashlib.sha256()
        h.update(repr([(r.method, r.smse, r.msll, r.mae, r.error)
                       for r in self.report.results]).encode())
        for name, subset, pred, _ in self.predictions:
            h.update(repr((name, None if subset is None else list(subset))).encode())
            if pred is not None:
                h.update(np.ascontiguousarray(pred.means).tobytes())
                h.update(np.ascontiguousarray(pred.variances).tobytes())
        return h.hexdigest()


class Repeat:
    """What a run keeps of one experiment once it has ended.

    The experiment's outputs are dropped with it, so the process's peak
    memory does not grow with the number of repeats.
    """

    def __init__(self, exp, traced):
        self.stages = exp.stage_seconds()
        self.layers = exp.layer_metrics() if traced else None
        self.smse = {r.method: r.smse for r in exp.report.results}
        self.digest = exp.digest()
        self.verdict = None  # set when checked apart from the first repeat


# ------------------------------------------------------------------ checks


def check_experiment(exp, synthetic):
    """Returns (methods that failed, problems with the shared stages)."""
    config, report = exp.config, exp.report
    data = exp.outputs.get("data.build")
    ensemble = exp.outputs.get("experts.train")
    graph = exp.outputs.get("selection.graph")
    full = exp.outputs.get("gp.fit")
    problems, failed = [], {}
    if len(exp.predictions) != len(config.methods):
        problems.append(
            f"{len(exp.predictions)} prediction calls for {len(config.methods)} methods"
        )
        return set(config.methods), problems

    x_test = data.x_test
    sample = oracles.sample_points(x_test.shape[0])
    blocks, member_means, member_vars = [], None, None
    if ensemble is not None:
        hp = ensemble.hp
        blocks = [(e.x, e.y) for e in ensemble.experts]
        member_means, member_vars = oracles.expert_posteriors(blocks, hp, x_test)

    for method, row, (_, subset, pred, _) in zip(config.methods, report.results,
                                                 exp.predictions):
        base = method.rstrip("*")
        issues = []
        if row.error is not None:
            issues.append(row.error)
        elif pred is None:
            issues.append("no prediction")
        elif not (np.all(np.isfinite(pred.means)) and np.all(np.isfinite(pred.variances))):
            issues.append("non-finite output")
        elif base == "fullgp":
            issues += oracles.check_fullgp(
                data.x_train, data.y_train, full.hp, x_test[sample],
                pred.means[sample], pred.variances[sample],
            )
        else:
            idx = np.arange(len(blocks)) if subset is None else np.asarray(subset)
            if base == "npae":
                issues += oracles.check_npae(
                    [blocks[i] for i in idx], hp, x_test[sample],
                    pred.means[sample], pred.variances[sample],
                )
                issues += oracles.check_npae_bounds(
                    pred.variances, member_vars[:, idx], hp.signal_variance
                )
            else:
                if not np.all(pred.variances > 0):
                    issues.append("committee variance not > 0")
                if base in ("poe", "gpoe", "bcm", "rbcm"):
                    issues += oracles.check_committee(
                        base, member_means[sample][:, idx], member_vars[sample][:, idx],
                        hp, pred.means[sample], pred.variances[sample],
                    )
        if issues:
            failed[method] = issues

    if ensemble is not None:
        part_x, part_y = blocks[0]
        value, grad = gp.log_marginal_likelihood(part_x, part_y, hp)
        problems += [
            "training: " + p
            for p in oracles.check_gradient(part_x, part_y, hp.to_log_vector(), value, grad)
        ]
    if graph is not None:
        problems += oracles.check_sample_cov(member_means, graph.sample_cov)
        problems += oracles.check_glasso(
            graph.sample_cov, graph.precision, config.penalty,
            GLASSO_KKT_SLACK * config.penalty,
        )
        problems += oracles.check_selection(
            graph.precision, config.alpha, graph.selected, graph.order
        )
    rows = {r.method: r for r in report.results}
    if "npae" in rows and "npae" not in failed:
        if not rows["npae"].smse < 1.0:
            problems.append(f"smse_npae {rows['npae'].smse} is not < 1")
        if not rows["npae"].msll < 0.0:
            problems.append(f"msll of npae {rows['npae'].msll} is not < 0")
        if synthetic:
            gpoe_mean, _ = oracles.fuse_committee(member_means, member_vars, hp, "gpoe")
            gpoe_smse = oracles.smse(data.y_test, gpoe_mean)
            if not rows["npae"].smse <= gpoe_smse:
                problems.append(f"smse_npae {rows['npae'].smse} > gpoe's {gpoe_smse}")
    return failed, problems


# ------------------------------------------------------------- environment


def environment(root: Path, experiment_seed) -> dict:
    """Machine, library versions, commit and the workload's experiment seed."""
    deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "blas": f"{deps.get('name')} {deps.get('version')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "git_commit": git_commit(root),
        "experiment_seed": experiment_seed,
    }


def git_commit(root: Path):
    """HEAD of the checkout, read from .git without running git; else None."""
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_path = root / ".git" / ref[5:]
            if ref_path.is_file():
                return ref_path.read_text().strip()
            for line in (root / ".git" / "packed-refs").read_text().splitlines():
                if line.endswith(" " + ref[5:]):
                    return line.split()[0]
            return None
        return ref
    except OSError:
        return None


# --------------------------------------------------------------------- run


def _median(values):
    return float(statistics.median(values))


def metric_units(root: Path) -> dict:
    """{"end_to_end": {name: unit}, "per_layer": {name: unit}} from BENCHMARK.json."""
    spec = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {kind: {m["name"]: m["unit"] for m in spec[kind]}
            for kind in ("end_to_end", "per_layer")}


def run_workload(name, seed, seconds, trace, root: Path, out_dir: Path, overrides=None):
    """Run one workload for ``seconds``; returns the full result record.

    The workload's experiment repeats until ``seconds`` have passed, always
    finishing the one in progress.  The reference kernel runs before the
    first repeat and after every repeat.  Each repeat's timings are scaled by
    ``REFERENCE_KERNEL_S`` over the mean kernel time around it, and every
    timing metric is the median of the scaled repeats.

    The first experiment is kept whole and checked after the last repeat,
    once peak memory has been read.  Every later repeat is reduced as soon
    as it ends.  One whose outputs match the first bit for bit shares its
    verdict; any other is checked in full before it is dropped.
    """
    config = ExperimentConfig(seed=EXPERIMENT_SEED,
                              **config_kwargs(name, out_dir, overrides))
    synthetic = name in SYNTHETIC
    first = spans = None
    untraced, traced = [], []
    kernel = [reference_kernel()]
    start = time.perf_counter()
    while not untraced or time.perf_counter() - start < seconds:
        for is_traced, kept in ((False, untraced), (True, traced))[:1 + bool(trace)]:
            exp = Experiment(config, traced=is_traced)
            kept.append(Repeat(exp, is_traced))
            if first is None:
                first = exp
            elif kept[-1].digest != untraced[0].digest:
                kept[-1].verdict = check_experiment(exp, synthetic)
            if is_traced and spans is None:
                spans, span_summary = exp.tracer.spans, exp.tracer.summary()
            del exp
        kernel.append(reference_kernel())
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    measured_s = time.perf_counter() - start
    scale = [REFERENCE_KERNEL_S / (0.5 * (a + b)) for a, b in zip(kernel, kernel[1:])]

    first_verdict = check_experiment(first, synthetic)
    attempted = failed = 0
    problems, failures = [], {}
    labelled = [(f"repeat {i}", r) for i, r in enumerate(untraced)]
    labelled += [(f"traced repeat {i}", r) for i, r in enumerate(traced)]
    for label, rep in labelled:
        bad, issues = rep.verdict or first_verdict
        attempted += len(config.methods)
        failed += len(bad)
        for method, why in bad.items():
            failures.setdefault(method, []).append(f"{label}: {why}")
        problems += [f"{label}: {p}" for p in issues]

    if trace:
        units = metric_units(root)["per_layer"]
        values = {
            # Counts are the same in every repeat.
            key: traced[0].layers[key] if units[key] != "s" else _median(
                r.layers[key] * f for r, f in zip(traced, scale))
            for key in PER_LAYER
        }
        # Each traced repeat runs right after its untraced twin, so their
        # difference is taken pair by pair, under the same machine load.
        values["trace.overhead_s"] = _median(
            (t.stages["total_s"] - u.stages["total_s"]) * f
            for u, t, f in zip(untraced, traced, scale))
        values["quality.smse_npae"] = untraced[0].smse["npae"]
        values["quality.smse_npae_star"] = untraced[0].smse["npae*"]
    else:
        units = metric_units(root)["end_to_end"]
        values = {key: _median(r.stages[key] * f for r, f in zip(untraced, scale))
                  for key in untraced[0].stages}
        values["peak_rss_mb"] = peak_rss_mb
    metrics = {key: {"value": values[key], "unit": unit} for key, unit in units.items()}

    record = {
        "workload": name,
        "seed": seed,
        "trace": int(trace),
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "repeats": len(untraced),
        "measured_s": measured_s,
        "reference_kernel_s": kernel,
        "problems": problems,
        "failures": failures,
        "environment": environment(root, config.seed),
        "per_repeat": [{"raw": r.stages, "scale": f, "smse": r.smse}
                       for r, f in zip(untraced, scale)],
    }
    if trace:
        t0 = spans[0][2]
        record["span_summary"] = span_summary
        record["spans"] = [
            {"name": n, "parent": p, "start": s - t0, "end": e - t0}
            for n, p, s, e in spans
        ]
    return record


def write_record(record, out_dir: Path) -> Path:
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / f"{record['workload']}-seed{record['seed']}-trace{record['trace']}.json"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, default=float)
    return path


def summary_line(record) -> str:
    return json.dumps({
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": record["metrics"],
    })

