"""Spans and counters recorded from outside the package.

The tracer replaces public functions of the ``gpexperts`` modules with thin
wrappers for the duration of one experiment.  Every module-level name bound
to the original function object is rebound, so calls made through
``from .kernels import kernel_matrix`` style imports are seen too.  Each
wrapped call records a span (name, parent span, start, end); optional hooks
update counters from the call's arguments and result.
"""

import functools
import importlib
import sys
import time
from collections import Counter
from contextlib import contextmanager

import numpy as np


class Tracer:
    """In-memory span log plus named counters for one experiment."""

    def __init__(self):
        self.spans = []  # [name, parent index or -1, start, end]
        self.counts = Counter()
        self.captured = []  # [name, start, end], kwargs, result or None
        self._stack = []
        self._open = Counter()

    def inside(self, name: str) -> bool:
        """True while a span called ``name`` is open."""
        return self._open[name] > 0

    def wrap(self, func, name, hook=None, capture=False):
        tracer = self
        clock = time.perf_counter

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            rec = [name, tracer._stack[-1] if tracer._stack else -1, 0.0, 0.0]
            tracer._stack.append(len(tracer.spans))
            tracer.spans.append(rec)
            tracer._open[name] += 1
            result = None
            try:
                rec[2] = clock()
                result = func(*args, **kwargs)
                rec[3] = clock()
            finally:
                if not rec[3]:
                    rec[3] = clock()
                tracer._stack.pop()
                tracer._open[name] -= 1
                if capture:
                    tracer.captured.append((rec, kwargs, result))
            if hook is not None:
                hook(tracer, args, kwargs, result)
            return result

        return wrapper

    def durations(self) -> Counter:
        """Summed wall time per span name (spans of one name never nest)."""
        out = Counter()
        for name, _, start, end in self.spans:
            out[name] += end - start
        return out

    def summary(self) -> dict:
        """Per span name: calls, inclusive seconds and self seconds.

        Self time is a span's duration minus the time its direct child spans
        cover.
        """
        child = [0.0] * len(self.spans)
        for name, parent, start, end in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = {}
        for i, (name, _, start, end) in enumerate(self.spans):
            row = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["total_s"] += end - start
            row["self_s"] += end - start - child[i]
        return out


def _gpexperts_modules():
    return [m for k, m in list(sys.modules.items()) if k.split(".")[0] == "gpexperts"]


@contextmanager
def installed(tracer: Tracer, specs):
    """Wrap the functions named in ``specs`` while the block runs.

    ``specs`` holds (module, attribute, span name, hook, capture) tuples.
    """
    saved = []
    try:
        for module, attr, name, hook, capture in specs:
            func = getattr(importlib.import_module(module), attr)
            wrapper = tracer.wrap(func, name, hook, capture)
            for mod in _gpexperts_modules():
                for key, value in list(vars(mod).items()):
                    if value is func:
                        setattr(mod, key, wrapper)
                        saved.append((mod, key, func))
        yield tracer
    finally:
        for mod, key, func in reversed(saved):
            setattr(mod, key, func)


# ---------------------------------------------------------------- hooks


def _data_rows(tr, args, kwargs, result):
    tr.counts["data.rows"] += result.n_train + result.n_test


def _part_sizes(tr, args, kwargs, result):
    sizes = np.bincount(result.assignments, minlength=result.n_parts)
    tr.counts["partition.max_part_size"] = int(sizes.max())
    tr.counts["partition.min_part_size"] = int(sizes.min())


def _matrix(tr, args, kwargs, result):
    tr.counts["kernels.matrix_entries"] += result.size


def _grad(tr, args, kwargs, result):
    tr.counts["kernels.grad_bytes"] += result.nbytes


def _chol(tr, args, kwargs, result):
    tr.counts["linalg.chol_jittered"] += int(result[1] > 0.0)


def _solve(tr, args, kwargs, result):
    b = np.asarray(args[1] if len(args) > 1 else kwargs["b"])
    tr.counts["linalg.solve_rhs_cols"] += 1 if b.ndim == 1 else b.shape[1]


def _psd_solve(tr, args, kwargs, result):
    if tr.inside("npae.aggregate"):
        tr.counts["npae.point_solves"] += 1


def _lml(tr, args, kwargs, result):
    if tr.inside("gp.fit"):
        tr.counts["gp.fit_lml_calls"] += 1
    if tr.inside("experts.train"):
        tr.counts["experts.train_lml_calls"] += 1


def _fused(key):
    def hook(tr, args, kwargs, result):
        if result.failed is not None:
            tr.counts[key] += int(np.sum(result.failed))

    return hook


def _objective(tr, args, kwargs, result):
    if tr.inside("selection.glasso"):
        tr.counts["selection.glasso_sweeps"] += 1


def _glasso(tr, args, kwargs, result):
    # The solver stops early only on convergence; a run that used every
    # sweep is counted as not converged.
    max_iter = kwargs.get("max_iter", 100)
    tr.counts["selection.glasso_converged"] = int(
        tr.counts["selection.glasso_sweeps"] < max_iter
    )


def _graph(tr, args, kwargs, result):
    omega = result.precision
    tr.counts["selection.edges"] = int(np.count_nonzero(np.triu(omega, 1)))
    tr.counts["selection.kept"] = int(result.selected.size)


# Stage boundaries: the public function each pipeline stage is entered
# through.  These are all that an untraced run wraps.
STAGE_SPECS = [
    ("gpexperts.data", "synth_dataset", "data.build", _data_rows, True),
    ("gpexperts.data", "load_delimited", "data.build", _data_rows, True),
    ("gpexperts.partition", "partition_kmeans", "partition.kmeans", _part_sizes, True),
    ("gpexperts.experts", "train_ensemble", "experts.train", None, True),
    ("gpexperts.gp", "fit", "gp.fit", None, True),
    ("gpexperts.selection", "expert_graph", "selection.graph", _graph, True),
    ("gpexperts.gp", "gp_predict", "gp.predict", None, True),
    ("gpexperts.npae", "npae_aggregate", "npae.aggregate", _fused("npae.failed_points"), True),
    ("gpexperts.committee", "poe_aggregate", "committee.poe",
     _fused("committee.prior_fallback_points"), True),
    ("gpexperts.committee", "bcm_aggregate", "committee.bcm",
     _fused("committee.prior_fallback_points"), True),
    ("gpexperts.committee", "grbcm_aggregate", "committee.grbcm",
     _fused("committee.prior_fallback_points"), True),
    ("gpexperts.metrics", "smse", "metrics.smse", None, False),
    ("gpexperts.metrics", "msll", "metrics.msll", None, False),
    ("gpexperts.metrics", "mae", "metrics.mae", None, False),
]

# Layers below the stage boundaries, wrapped only in a traced run.
LAYER_SPECS = [
    ("gpexperts.kernels", "kernel_matrix", "kernels.matrix", _matrix, False),
    ("gpexperts.kernels", "kernel_grad", "kernels.grad", _grad, False),
    ("gpexperts.linalg", "chol_with_jitter", "linalg.chol", _chol, False),
    ("gpexperts.linalg", "solve_spd", "linalg.solve", _solve, False),
    ("gpexperts.linalg", "solve_psd_robust", "linalg.psd_solve", _psd_solve, False),
    ("gpexperts.gp", "log_marginal_likelihood", "gp.lml", _lml, False),
    ("gpexperts.gp", "factorize", "gp.factorize", None, False),
    ("gpexperts.experts", "expert_predict", "experts.predict", None, False),
    ("gpexperts.selection", "prediction_covariance", "selection.cov", None, False),
    ("gpexperts.selection", "graphical_lasso", "selection.glasso", _glasso, False),
    ("gpexperts.selection", "_penalized_objective", "selection.objective", _objective,
     False),
    ("gpexperts.selection", "rank_importance", "selection.rank", None, False),
    ("gpexperts.selection", "select_experts", "selection.select", None, False),
]

AGGREGATOR_SPANS = (
    "gp.predict", "npae.aggregate", "committee.poe", "committee.bcm", "committee.grbcm",
)
