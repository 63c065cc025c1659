"""Shared fixtures and oracles: one small trained ensemble reused across test
modules, plus reference computations the package itself does not need."""

import numpy as np
import pytest

import gpexperts.experts
import gpexperts.gp
import gpexperts.linalg
from gpexperts import (
    ExpertEnsemble,
    Hyperparams,
    Partitioning,
    kernel_matrix,
    partition_kmeans,
    synth_dataset,
    synth_f,
    train_ensemble,
)
from gpexperts.committee import _fuse, _info_gain, _set_aside_exact
from gpexperts.gp import _latent_variance, factorize


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


def from_log_vector(theta):
    """Hyperparams from [log signal_variance, log lengthscales..., log noise_variance],
    the layout of :meth:`Hyperparams.to_log_vector`."""
    vals = np.exp(np.asarray(theta, dtype=float))
    return Hyperparams(float(vals[0]), vals[1:-1].copy(), float(vals[-1]))


def mirrored_self_kernel(x, hp):
    """The self-kernel with the upper triangle mirrored, Fortran-ordered.

    ``kernel_matrix(x, x, hp)`` with its upper triangle copied onto its
    lower one and its diagonal set to signal_variance.  Patched over
    ``gpexperts.gp._self_kernel``, it hands the factorizations a kernel
    whose triangles agree bit for bit; on and below the diagonal it holds
    the same bits as the raw self-kernel that ``_self_kernel`` returns.
    """
    k = kernel_matrix(x, x, hp)
    gpexperts.linalg._mirror_upper(k)
    k.reshape(-1)[:: k.shape[0] + 1] = hp.signal_variance
    return k.T


def entropy_weighted_poe(ensemble, xs, subset=None):
    """poe with information-gain weights normalized to sum to 1 at each point.

    The generalized product of Deisenroth & Ng (ICML 2015): the
    "diff_entropy" weights against the latent prior, each divided by their
    sum, so no fused variance exceeds the largest member's.  Where all are
    0 the point gets the latent prior and is flagged.
    """
    means, c = ensemble.moments(xs, subset)
    variances, exact = _set_aside_exact(means, _latent_variance(ensemble.hp, c))
    prior_var = ensemble.hp.signal_variance
    betas = _info_gain(variances, prior_var)
    total = np.sum(betas, axis=1, keepdims=True)
    betas = np.divide(betas, total, out=np.zeros_like(betas), where=total > 0)
    return _fuse(means, variances, betas, prior_var, exact)


def kernel_eval(x, x2, hp):
    """Kernel value for a single pair of points, straight from the formula."""
    x = np.asarray(x, dtype=float).ravel()
    x2 = np.asarray(x2, dtype=float).ravel()
    if x.shape != x2.shape or x.shape[0] != hp.dim:
        raise ValueError("point dimensions must match each other and hp")
    d2 = np.sum((x - x2) ** 2 / hp.lengthscales)
    return float(hp.signal_variance * np.exp(-0.5 * d2))


def synth_raw(n, n_test, noise_sd, seed):
    """The raw draws that ``synth_dataset(n, n_test, noise_sd, seed)``
    normalizes, by its documented recipe: (x_train, y_train, x_test, y_test)."""
    rng = np.random.default_rng(seed)
    x_train = rng.uniform(0.0, 1.0, size=n)
    y_train = synth_f(x_train) + rng.normal(0.0, noise_sd, size=n)
    x_test = np.linspace(-0.2, 1.2, n_test)
    return x_train, y_train, x_test, synth_f(x_test)


def split_rows(n, train_fraction, seed):
    """Row indices (train, test) of ``load_delimited``'s seeded split."""
    perm = np.random.default_rng(seed).permutation(n)
    n_train = int(train_fraction * n)
    return perm[:n_train], perm[n_train:]


def to_raw_scale(values, raw_train):
    """Undo the normalization by the raw training values' statistics, per column."""
    raw_train = np.asarray(raw_train, dtype=float)
    std = raw_train.std(axis=0)
    return values * np.where(std > 0, std, 1.0) + raw_train.mean(axis=0)


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
