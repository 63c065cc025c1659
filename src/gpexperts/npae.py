"""Dependent-expert aggregation of local GP predictions (NPAE).

Each expert's posterior mean is a linear function of its targets, so the
vector of expert means and the latent function value at a test point are
jointly Gaussian.  Aggregation conditions on the expert means:

    mean = c^T M^{-1} mu,    variance = k(x*, x*) - c^T M^{-1} c

where c[i] = Cov(mu_i, f*), M[i, j] = Cov(mu_i, mu_j), and mu stacks the
expert means.  This is the best linear unbiased combination of the expert
means and, unlike product-style rules, accounts for their correlations.

The between-expert covariance is exact for disjoint parts: off-diagonal
entries come from the cross-kernels between the parts, and the diagonal
includes each expert's noise term, Var(mu_i) = w_i (K_i + noise I) w_i^T,
which makes M the true second moment of the expert means (and equal to c[i]
on the diagonal).  Pass ``noise_free_diag=True`` to drop the noise term for
comparison runs.

Every test point needs its own small solve of the n_experts-sized system;
restricting ``subset`` to a selected group of experts shrinks that system,
which is where graph-based selection earns its speedup.  The systems of all
test points are factored in one batched Cholesky and solved by one batched
forward substitution.  Only a point whose own M fails to factor goes through
``solve_psd_robust`` (jitter, then pseudo-inverse), so perfbench's traced
``npae.point_solves`` counts just the points that left the batch.
"""

from dataclasses import dataclass

import numpy as np
from scipy.linalg.blas import dtrmm

from .gp import PredictiveDist, _whiten
from .kernels import kernel_matrix
from .linalg import solve_psd_robust


@dataclass
class PointwiseCov:
    """Aggregation inputs at one test point.

    target_cov[i] is the covariance between expert i's mean and the latent
    target; mean_cov[i, j] is the covariance between expert means i and j;
    prior_var is k(x*, x*).
    """

    target_cov: np.ndarray
    mean_cov: np.ndarray
    prior_var: float


def _assemble(ensemble, xs, subset, noise_free_diag):
    """Batched covariance pieces for all test points at once.

    Returns (target_cov (t, m), mean_cov (t, m, m), expert_means (t, m)).
    The cross-kernels between parts do not depend on the test point and are
    formed once per pair; everything per-point is pure products.
    """
    xs = np.asarray(xs, dtype=float)
    if xs.ndim == 1:
        xs = xs[:, None]
    hp = ensemble.hp
    experts = [ensemble.experts[i] for i in subset]
    m = len(experts)
    nt = xs.shape[0]

    # Per expert: v_i = L_i^{-1} k(X_i, xs) and w_i = C_i^{-1} k(X_i, xs) =
    # L_i^{-T} v_i, both (n_i, t), by in-place triangular products on the
    # transposes.
    target_cov = np.empty((nt, m))
    means = np.empty((nt, m))
    ws = []
    for i, e in enumerate(experts):
        k = kernel_matrix(e.x, xs, hp)
        means[:, i] = k.T @ e.alpha
        vt = _whiten(e.chol_inv, k)
        target_cov[:, i] = np.sum(vt * vt, axis=1)
        ws.append(dtrmm(1.0, e.chol_inv, vt, side=1, lower=1, overwrite_b=1).T)

    mean_cov = np.empty((nt, m, m))
    for i in range(m):
        if noise_free_diag:
            kii = kernel_matrix(experts[i].x, experts[i].x, hp)
            mean_cov[:, i, i] = np.sum((kii @ ws[i]) * ws[i], axis=0)
        else:
            # w_i (K_i + noise I) w_i^T collapses to w_i^T k(X_i, x*).
            mean_cov[:, i, i] = target_cov[:, i]
        for j in range(i + 1, m):
            kij = kernel_matrix(experts[i].x, experts[j].x, hp)
            cov = np.einsum("ij,ij->j", kij.T @ ws[i], ws[j])
            mean_cov[:, i, j] = cov
            mean_cov[:, j, i] = cov
    return target_cov, mean_cov, means


def pointwise_cov(ensemble, x_star, subset=None, noise_free_diag=False) -> PointwiseCov:
    """Covariance pieces the aggregation needs at a single test point."""
    subset = ensemble.subset_or_all(subset)
    x_star = np.atleast_2d(np.asarray(x_star, dtype=float))
    target_cov, mean_cov, _ = _assemble(ensemble, x_star, subset, noise_free_diag)
    return PointwiseCov(target_cov[0], mean_cov[0], float(ensemble.hp.signal_variance))


def _batched_cholesky(a):
    """Lower Cholesky factors of a stack of matrices, and which ones factored.

    A stack that fails is retried in halves, so one non-PD matrix costs about
    log2(len(a)) more batched calls, not a per-matrix loop over the rest.
    """
    try:
        return np.linalg.cholesky(a), np.ones(len(a), dtype=bool)
    except np.linalg.LinAlgError:
        if len(a) == 1:
            return np.zeros_like(a), np.zeros(1, dtype=bool)
        half = len(a) // 2
        low_a, ok_a = _batched_cholesky(a[:half])
        low_b, ok_b = _batched_cholesky(a[half:])
        return np.concatenate([low_a, low_b]), np.concatenate([ok_a, ok_b])


def _forward_substitute(low, b):
    """Solve low[t] z[t] = b[t] for a stack of lower-triangular systems."""
    z = np.empty_like(b)
    for j in range(low.shape[1]):
        dot = np.einsum("tk,tkc->tc", low[:, j, :j], z[:, :j])
        z[:, j] = (b[:, j] - dot) / low[:, j, j, None]
    return z


def npae_aggregate(
    ensemble, xs, subset=None, noise_free_diag=False
) -> PredictiveDist:
    """Aggregate expert predictions through their joint covariance.

    Factors every point's M = L_M L_M^T in one batch; with z = L_M^{-1}[mu, c]
    the mean is z_c . z_mu and the variance prior - ||z_c||^2.  A point whose
    M does not factor is solved on its own with jitter, then a pseudo-inverse
    (singular systems, e.g. duplicated experts); points whose solve produces
    non-finite values revert to the prior and are flagged.
    """
    subset = ensemble.subset_or_all(subset)
    target_cov, mean_cov, means = _assemble(ensemble, xs, subset, noise_free_diag)
    prior_var = float(ensemble.hp.signal_variance)
    nt = target_cov.shape[0]

    out_mean = np.full(nt, np.nan)
    out_var = np.full(nt, np.nan)
    low, ok = _batched_cholesky(mean_cov)
    z = _forward_substitute(low[ok], np.stack([means[ok], target_cov[ok]], axis=2))
    out_mean[ok] = np.sum(z[:, :, 1] * z[:, :, 0], axis=1)
    out_var[ok] = prior_var - np.sum(z[:, :, 1] ** 2, axis=1)
    for t in np.flatnonzero(~ok):
        rhs = np.column_stack([means[t], target_cov[t]])
        try:
            sol = solve_psd_robust(mean_cov[t], rhs)
        except np.linalg.LinAlgError:
            continue
        out_mean[t] = target_cov[t] @ sol[:, 0]
        out_var[t] = prior_var - target_cov[t] @ sol[:, 1]

    failed = ~(np.isfinite(out_mean) & np.isfinite(out_var))
    out_mean[failed] = 0.0
    out_var[failed] = prior_var
    out_var = np.clip(out_var, 0.0, prior_var)
    return PredictiveDist(out_mean, out_var, failed if failed.any() else None)
