"""Shared fixtures and oracles: one small trained ensemble reused across test
modules, plus reference computations the package itself does not need."""

import numpy as np
import pytest

import gpexperts.experts
import gpexperts.gp
import gpexperts.linalg
from gpexperts import (
    ExpertEnsemble,
    Partitioning,
    kernel_matrix,
    partition_kmeans,
    synth_dataset,
    train_ensemble,
)
from gpexperts.gp import factorize


@pytest.fixture(scope="session")
def small_data():
    return synth_dataset(n=240, n_test=40, noise_sd=0.2, seed=0)


@pytest.fixture(scope="session")
def small_ensemble(small_data):
    parts = partition_kmeans(small_data.x_train, 3, seed=1)
    return train_ensemble(
        small_data.x_train, small_data.y_train, parts, restarts=1, seed=2
    )


@pytest.fixture(scope="session")
def small_grid(small_data):
    # interior test slice, away from the extrapolating ends
    return small_data.x_test[5:35]


def manual_ensemble(datasets, hp):
    """Experts over explicit (x, y) blocks, bypassing the trainer."""
    experts = [factorize(x, y, hp) for x, y in datasets]
    sizes = [np.asarray(x).shape[0] for x, _ in datasets]
    assign = np.repeat(np.arange(len(sizes)), sizes)
    parts = Partitioning(assign, len(sizes))
    return ExpertEnsemble(experts, hp, parts)


def expert_weights(expert, xs):
    """Weights of the expert's linear predictor, by a dense solve.

    Row t holds w such that the expert's posterior mean at xs[t] is
    w @ expert.y: w = (K + noise I)^{-1} k(X, xs[t]), shape (n_test, n_i).
    """
    xs = np.asarray(xs, dtype=float)
    if xs.ndim == 1:
        xs = xs[:, None]
    c = kernel_matrix(expert.x, expert.x, expert.hp)
    c[np.diag_indices_from(c)] += expert.hp.noise_variance
    return np.linalg.solve(c, kernel_matrix(expert.x, xs, expert.hp)).T


def mirrored_self_kernel(x, hp):
    """The self-kernel as the mirrored ``kernel_matrix(x, x, hp)``, Fortran-ordered.

    Patched over ``gpexperts.gp._self_kernel``, it hands the factorizations
    a kernel whose triangles agree bit for bit and whose diagonal
    ``kernel_matrix`` itself set.
    """
    return kernel_matrix(x, x, hp).T


def kernel_eval(x, x2, hp):
    """Kernel value for a single pair of points, straight from the formula."""
    x = np.asarray(x, dtype=float).ravel()
    x2 = np.asarray(x2, dtype=float).ravel()
    if x.shape != x2.shape or x.shape[0] != hp.dim:
        raise ValueError("point dimensions must match each other and hp")
    d2 = np.sum((x - x2) ** 2 / hp.lengthscales)
    return float(hp.signal_variance * np.exp(-0.5 * d2))


def denormalize_targets(dataset, values):
    """Map normalized target-scale values back to the raw scale."""
    return np.asarray(values, dtype=float) * dataset.norm.y_std + dataset.norm.y_mean


def force_jitter(monkeypatch):
    """Make each factorization in :mod:`gpexperts.gp` need jitter.

    The first, jitter-free attempt of every ``chol_with_jitter`` call made
    from :mod:`gpexperts.gp` reports a failed pivot before touching the
    matrix, so the call retries with its first rung of jitter.  Returns one
    list per optimizer run, in run order, of ``(jitter, signal_variance)``
    for each factorization in that run's likelihood evaluations: the jitter
    it needed, at signal_variance 1, and the profiled signal variance of
    its evaluation.
    """
    factor, chol, optimize, profiled = (
        gpexperts.linalg._factor_invert,
        gpexperts.gp.chol_with_jitter,
        gpexperts.gp._optimize_shared,
        gpexperts.gp._profiled,
    )
    runs, pending, training, jitters = [], [False], [False], []

    def failing_first(a):
        if pending[0]:
            pending[0] = False
            return False
        return factor(a)

    def jittered(*args, **kwargs):
        pending[0] = True
        w, jitter = chol(*args, **kwargs)
        if training[0]:
            jitters.append(jitter)
        return w, jitter

    def scaled(*args, **kwargs):
        result = profiled(*args, **kwargs)
        runs[-1].extend((jitter, result[2]) for jitter in jitters)
        jitters.clear()
        return result

    def recorded(*args, **kwargs):
        runs.append([])
        training[0] = True
        try:
            return optimize(*args, **kwargs)
        finally:
            training[0] = False

    monkeypatch.setattr(gpexperts.linalg, "_factor_invert", failing_first)
    monkeypatch.setattr(gpexperts.gp, "chol_with_jitter", jittered)
    monkeypatch.setattr(gpexperts.gp, "_profiled", scaled)
    for module in (gpexperts.gp, gpexperts.experts):
        monkeypatch.setattr(module, "_optimize_shared", recorded)
    return runs
