"""Product- and committee-style aggregation of independent expert predictions.

These rules treat the experts' posteriors as (conditionally) independent and
fuse them through weighted precisions, all by one formula (``_fuse``):

    precision = sum_i beta_i / var_i  + (1 - sum_i beta_i) / var_base
    mean      = (sum_i beta_i mu_i / var_i
                 + (1 - sum_i beta_i) mu_base / var_base) / precision

Without a base the base terms are dropped: that is the product rule, whose
prior is the latent k(x*, x*), as the fused variances are.  With a base it is
the committee rule.  The base of bcm and rbcm is the prior, zero mean with
the observation-space variance k(x*, x*) + noise, since the committee
correction conditions on noisy targets; the base of grbcm is its communication
expert's posterior.  A point whose fused precision is not positive gets the
prior and is flagged.

Weight schemes: "ones" gives the plain product of experts / committee
machine, "uniform" (1/m) the conservative generalized product, and
"diff_entropy" weights each expert by its information gain over the prior,
0.5 * (log prior_var - log var_i), which yields the robust committee machine.

The member moments come from :meth:`ExpertEnsemble.moments`, so all rules
at one test set share one pass over the experts.  grbcm's augmented experts,
each the GP on the base part joined with one other part, are not refit: each
is the base conditioned on the other part by a Schur-complement update on
the base's stored L_b^{-1} and alpha_b and its memoized w_b (see
:func:`grbcm_aggregate`), so it factors a matrix of one part's order only.
"""

import numpy as np
from scipy.linalg.blas import dsyrk, dtrmm, dtrmv

from .experts import ExpertEnsemble
from .gp import PredictiveDist
from .kernels import kernel_matrix
from .linalg import _mirror_upper, chol_with_jitter

WEIGHT_SCHEMES = ("ones", "uniform", "diff_entropy")


def compute_weights(scheme: str, variances: np.ndarray, prior_var: float) -> np.ndarray:
    """Per-expert, per-point weights >= 0; ``prior_var`` may be an array."""
    if np.any(variances <= 0) or np.any(prior_var <= 0):
        raise ValueError("precision fusion needs strictly positive expert variances")
    if scheme == "ones":
        return np.ones_like(variances)
    if scheme == "uniform":
        return np.full_like(variances, 1.0 / variances.shape[1])
    if scheme == "diff_entropy":
        return np.maximum(0.5 * (np.log(prior_var) - np.log(variances)), 0.0)
    raise ValueError(f"unknown weight scheme {scheme!r}; use one of {WEIGHT_SCHEMES}")


def _fuse(means, variances, betas, prior_var, base=None) -> PredictiveDist:
    """The module's fusion formula over (t, m) expert moments and weights.

    ``base`` is None for the product rule, else the committee base's
    (mean, variance); points whose fused precision is not positive get
    zero mean and ``prior_var`` and are flagged.
    """
    precision = np.sum(betas / variances, axis=1)
    numer = np.sum(betas * means / variances, axis=1)
    if base is not None:
        base_mean, base_var = base
        rest = 1.0 - np.sum(betas, axis=1)
        precision = precision + rest / base_var
        numer = numer + rest * base_mean / base_var
    bad = precision <= 0
    out_var = 1.0 / np.where(bad, 1.0 / prior_var, precision)
    out_mean = out_var * np.where(bad, 0.0, numer)
    return PredictiveDist(out_mean, out_var, bad if bad.any() else None)


def poe_aggregate(
    ensemble: ExpertEnsemble, xs, subset=None, scheme: str = "ones"
) -> PredictiveDist:
    """Product-of-experts fusion: precisions add, weighted by the scheme.

    scheme="ones" is the classic product; scheme="uniform" the generalized
    product whose fused variance is m times less confident.  "diff_entropy"
    weights sum to 1 at each point (Deisenroth & Ng, ICML 2015), so no fused
    variance exceeds the largest member's; where all are 0, the latent prior.
    """
    means, variances = ensemble.moments(xs, subset)
    prior_var = ensemble.hp.signal_variance  # latent, as the fused variances are
    betas = compute_weights(scheme, variances, prior_var)
    if scheme == "diff_entropy":
        total = np.sum(betas, axis=1, keepdims=True)
        betas = np.divide(betas, total, out=np.zeros_like(betas), where=total > 0)
    return _fuse(means, variances, betas, prior_var)


def bcm_aggregate(
    ensemble: ExpertEnsemble, xs, subset=None, scheme: str = "ones"
) -> PredictiveDist:
    """Committee-machine fusion: product rule with a prior correction term.

    scheme="ones" gives the classic committee machine, scheme="diff_entropy"
    the robust variant.  Points whose corrected precision is non-positive
    fall back to the prior and are flagged.
    """
    means, variances = ensemble.moments(xs, subset)
    prior_var = ensemble.hp.signal_variance + ensemble.hp.noise_variance
    betas = compute_weights(scheme, variances, prior_var)
    return _fuse(means, variances, betas, prior_var, (0.0, prior_var))


def grbcm_aggregate(
    ensemble: ExpertEnsemble, xs, base: int, subset=None
) -> PredictiveDist:
    """Robust committee fusion through a shared communication expert.

    Expert ``base``, which must be in the subset, is the communication
    expert (Liu, Ong, Shen & Cai, ICML 2018); which one to take is the
    caller's choice.  Every other participating expert i becomes the GP on
    the base part joined with part i (same hyperparameters), and these
    augmented posteriors are fused with the base posterior as the committee
    base.  The augmented expert with the lowest index always gets beta = 1;
    the others get the information-gain weights
    0.5 * (log var_b - log var_{b,i}).  The subset is taken in index order,
    so its given order does not matter.

    No augmented expert is refit.  Each is the base conditioned on part i:
    with W_b = L_b^{-1} and alpha_b stored on the base, and the base's
    mean, c_b = ||v_b||^2 and w_b = C_b^{-1} k(X_b, xs) from
    :meth:`ExpertEnsemble.npae_moments`, the Schur complement of C_b in
    the joint covariance is S_i = C_i - G_i G_i^T with G_i = K_ib W_b^T
    (``dtrmm``, then ``dsyrk``), and with W_S = chol_with_jitter(S_i),

        U_i = W_S (k(X_i, xs) - K_ib w_b),   r_i = W_S (y_i - K_ib alpha_b),
        mean = mu_b + U_i^T r_i,   variance = sf2 - c_b - ||U_i||^2,

    the variance clipped at 0.  Each augmented expert thus costs one
    factorization of order n_i, not n_b + n_i.  A base that needed jitter
    is conditioned on as factored, jitter included; jitter that S_i needs
    is added to S_i alone.
    """
    subset = np.sort(ensemble.subset_or_all(subset))
    if subset.size < 2:
        raise ValueError("need at least two experts, one of which becomes the base")
    if base not in subset:
        raise ValueError(f"base expert {base} is not in the subset")

    means, target_cov, (w_b,) = ensemble.npae_moments(xs, [base])
    base_mean, c_b = means[:, 0], target_cov[:, 0]
    b, hp = ensemble.experts[base], ensemble.hp
    base_var = np.maximum(hp.signal_variance - c_b, 0.0)
    # The diagonal of every joint covariance: the refit's jitter scale.
    prior_var = hp.signal_variance + hp.noise_variance
    others = subset[subset != base]
    aug_means = np.empty((base_mean.shape[0], others.size))
    aug_vars = np.empty_like(aug_means)
    for col, i in enumerate(others):
        e = ensemble.experts[i]
        k_bi = kernel_matrix(b.x, e.x, hp)
        # U_i^T and r_i before K_ib is overwritten; kernel_matrix(...).T is
        # Fortran-ordered, as dtrmm wants it.
        ut = kernel_matrix(e.x, xs, hp).T
        ut -= w_b.T @ k_bi
        r = e.y - b.alpha @ k_bi
        g = dtrmm(1.0, b.chol_inv, k_bi.T, side=1, lower=1, trans_a=1, overwrite_b=1)
        # dsyrk writes S_i on and above the diagonal, where a jitter retry
        # rebuilds it from; the mirror puts it where the factorization reads.
        s = dsyrk(-1.0, g, beta=1.0, c=kernel_matrix(e.x, e.x, hp).T, overwrite_c=1)
        _mirror_upper(s)
        w_s, _ = chol_with_jitter(s, scale=prior_var, shift=hp.noise_variance)
        ut = dtrmm(1.0, w_s, ut, side=1, lower=1, trans_a=1, overwrite_b=1)
        aug_means[:, col] = base_mean + ut @ dtrmv(w_s, r, lower=1, overwrite_x=1)
        c = c_b + np.einsum("ij,ij->i", ut, ut)
        aug_vars[:, col] = np.maximum(hp.signal_variance - c, 0.0)
    betas = compute_weights("diff_entropy", aug_vars, base_var[:, None])
    betas[:, 0] = 1.0
    return _fuse(aug_means, aug_vars, betas, prior_var, (base_mean, base_var))
