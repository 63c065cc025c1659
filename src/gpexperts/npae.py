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
on the diagonal).

NPAE reads the means, c[i] = ||v_i||^2 with v_i = L_i^{-1} k(X_i, x*), and
w_i = C_i^{-1} k(X_i, x*) from :meth:`ExpertEnsemble.npae_moments`, on top
of the member pass that selection and the committee rules share.  c[i] is
never signal_variance minus a latent variance, which cannot resolve the
1e-33 it reaches far from an expert.  NPAE itself does the pairwise assembly.

Every test point needs its own small solve of the n_experts-sized system;
restricting ``subset`` to a selected group of experts shrinks that system,
which is where graph-based selection earns its speedup.  Only M's lower
triangle is assembled, straight into the buffer that factors it.  The systems
of all test points are factored and forward-substituted together, on one
path, by a deflating Cholesky: where an expert's pivot shows that it adds
nothing beyond the experts before it (a duplicated expert, say), that expert
is dropped at that point, and the point gets NPAE over the remaining experts.
No jitter is added and no eigenvalue is cut, so far experts with tiny but
exact c[i] keep their weight even when the raw condition number of M reaches
1e25.
"""

import numpy as np

from .gp import PredictiveDist
from .kernels import kernel_matrix


def _assemble(ensemble, xs, subset):
    """NPAE's factor buffer g, (m + 2, m, t), for all test points at once.

    ``g[j, i, t]`` is M[j, i] at point t for j >= i; the strict upper
    triangle stays zero.  ``g[m]`` holds the expert means and ``g[m + 1]``
    the c_i.  Means, c_i and w_i come from the ensemble's member pass; the
    cross-kernels between parts are formed once per pair, and everything
    per-point is pure products.
    """
    means, target_cov, ws = ensemble.npae_moments(xs, subset)
    hp = ensemble.hp
    experts = [ensemble.experts[i] for i in subset]
    m = len(experts)

    g = np.zeros((m + 2, m, target_cov.shape[0]))
    g[m], g[m + 1] = means.T, target_cov.T
    for i in range(m):
        # w_i (K_i + noise I) w_i^T collapses to w_i^T k(X_i, x*).
        g[i, i] = g[m + 1, i]
        for j in range(i + 1, m):
            kij = kernel_matrix(experts[i].x, experts[j].x, hp)
            g[j, i] = np.einsum("ij,ij->j", kij.T @ ws[i], ws[j])
    return g


def _deflating_factor(g):
    """Factor and forward-substitute a stack of bordered systems in place.

    ``g`` is (m + r, m, t): for each test point t, ``g[:m, :, t]`` holds M
    and ``g[m:, :, t]`` the r right-hand sides b^T.  One left-looking
    Cholesky over the m columns turns the first m rows into L (lower
    triangle) and the last r rows into z^T with L z = b.

    Column j deflates at a point when its pivot, the Schur complement of
    M_jj on the earlier columns, is at most ``m * eps * M_jj``: that is, when
    the pivot of the unit-diagonal system D^{-1/2} M D^{-1/2}, D = diag(M),
    is at most m * eps, so M needs no rescaling.  Expert j then adds nothing
    beyond the earlier experts there.  Its column of L and its z entry
    become 0, which leaves the factor and z of M without expert j.
    Returns the (t,) mask of points where some column deflated.
    """
    m = g.shape[1]
    tol = m * np.finfo(float).eps
    deflated = np.zeros(g.shape[2], dtype=bool)
    for j in range(m):
        diag = g[j, j].copy()
        col = g[j:, j]
        col -= np.einsum("ikt,kt->it", g[j:, :j], g[j, :j])
        keep = col[0] > tol * diag  # False for a NaN pivot, too
        deflated |= ~keep
        col /= np.sqrt(np.where(keep, col[0], 1.0))
        col[:, ~keep] = 0.0
    return deflated


def npae_aggregate(ensemble, xs, subset=None) -> PredictiveDist:
    """Aggregate expert predictions through their joint covariance.

    Factors every point's M = L_M L_M^T in one batch, in the buffer that
    :func:`_assemble` fills; with z = L_M^{-1}[mu, c] the mean is z_c . z_mu
    and the variance prior - ||z_c||^2.  An expert that adds nothing beyond
    the others at a point (e.g. a duplicate) is dropped there and flagged in
    ``deflated``.  A point with a non-finite input or result reverts to the
    prior and is flagged in ``failed``.
    """
    subset = ensemble.subset_or_all(subset)
    g = _assemble(ensemble, xs, subset)
    prior_var = float(ensemble.hp.signal_variance)
    m = g.shape[1]
    failed = ~np.isfinite(g).all(axis=(0, 1))
    deflated = _deflating_factor(g)
    z_mu, z_c = g[m], g[m + 1]
    out_mean = np.sum(z_c * z_mu, axis=0)
    out_var = prior_var - np.sum(z_c**2, axis=0)

    failed |= ~(np.isfinite(out_mean) & np.isfinite(out_var))
    deflated &= ~failed
    out_mean[failed] = 0.0
    out_var[failed] = prior_var
    out_var = np.clip(out_var, 0.0, prior_var)
    return PredictiveDist(
        out_mean,
        out_var,
        failed if failed.any() else None,
        deflated if deflated.any() else None,
    )
