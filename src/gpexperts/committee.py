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

Each rule picks its own weights beta_i from its scheme: see
:func:`poe_aggregate`, :func:`bcm_aggregate` and :func:`grbcm_aggregate`.

The member means and c_i come from :meth:`ExpertEnsemble.moments`, so all
rules at one test set share one pass over the experts; ``gp._latent_variance``
turns c_i into a variance.  grbcm's augmented experts, each the GP on the
base part joined with one other part, come from :func:`gpexperts.gp._augmented`
without a refit; this module only fuses.
"""

import numpy as np

from .experts import ExpertEnsemble
from .gp import PredictiveDist, _augmented, _latent_variance


def _info_gain(variances, prior_var):
    """Each expert's information gain over the prior, 0.5 * (log prior_var -
    log var_i), floored at 0; ``prior_var`` may be an array."""
    return np.maximum(0.5 * (np.log(prior_var) - np.log(variances)), 0.0)


def _set_aside_exact(means, variances):
    """Variances with each 0 set to 1, and the rows that held one with their
    fused means.  A member of variance 0 (a noise-free expert at its own
    training input) has infinite precision: every rule's limit there is its
    mean, with variance 0.  Several at one point give the mean of their means.
    """
    zero = variances == 0
    rows = np.flatnonzero(zero.any(axis=1))
    z = zero[rows]
    exact = rows, np.sum(means[rows] * z, axis=1) / z.sum(axis=1)
    return np.where(zero, 1.0, variances), exact


def _fuse(means, variances, betas, prior_var, exact, base=None) -> PredictiveDist:
    """The module's fusion formula over (t, m) expert moments and weights.

    ``base`` is None for the product rule, else the committee base's
    (mean, variance); points whose fused precision is not positive get
    zero mean and ``prior_var`` and are flagged.  ``exact`` rows get variance 0.
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
    out_mean[exact[0]], out_var[exact[0]], bad[exact[0]] = exact[1], 0.0, False
    return PredictiveDist(out_mean, out_var, bad, np.zeros_like(bad))


def poe_aggregate(
    ensemble: ExpertEnsemble, xs, subset=None, scheme: str = "ones"
) -> PredictiveDist:
    """Product-of-experts fusion: precisions add, weighted by the scheme.

    scheme="ones" (beta_i = 1) is the classic product; scheme="uniform"
    (beta_i = 1/m) the generalized product whose fused variance is m times
    less confident.  These are the only two schemes it takes.
    """
    if scheme not in ("ones", "uniform"):
        raise ValueError(f"poe takes scheme 'ones' or 'uniform', not {scheme!r}")
    means, c = ensemble.moments(xs, subset)
    variances, exact = _set_aside_exact(means, _latent_variance(ensemble.hp, c))
    prior_var = ensemble.hp.signal_variance  # latent, as the fused variances are
    beta = 1.0 if scheme == "ones" else 1.0 / variances.shape[1]
    betas = np.full_like(variances, beta)
    return _fuse(means, variances, betas, prior_var, exact)


def bcm_aggregate(
    ensemble: ExpertEnsemble, xs, subset=None, scheme: str = "ones"
) -> PredictiveDist:
    """Committee-machine fusion: product rule with a prior correction term.

    scheme="ones" (beta_i = 1) gives the classic committee machine, and
    scheme="diff_entropy" (:func:`_info_gain` over the prior) the robust
    variant; these are the only two schemes it takes ("uniform" would leave
    the prior the weight 0 and restate gpoe).  Points whose corrected
    precision is non-positive fall back to the prior and are flagged.
    """
    if scheme not in ("ones", "diff_entropy"):
        raise ValueError(f"bcm takes scheme 'ones' or 'diff_entropy', not {scheme!r}")
    means, c = ensemble.moments(xs, subset)
    variances, exact = _set_aside_exact(means, _latent_variance(ensemble.hp, c))
    prior_var = ensemble.hp.signal_variance + ensemble.hp.noise_variance
    gain = scheme == "diff_entropy"
    betas = _info_gain(variances, prior_var) if gain else np.ones_like(variances)
    return _fuse(means, variances, betas, prior_var, exact, (0.0, prior_var))


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
    0.5 * (log var_b - log var_{b,i}), floored at 0.  The subset is taken in
    index order, so its given order does not matter.

    No augmented expert is refit: :func:`gpexperts.gp._augmented` conditions
    the base on part i by one factorization of order n_i and returns the
    joint GP's c with its mean.  The result's ``max_jitter`` is the
    largest jitter those factorizations needed.
    """
    subset = np.sort(ensemble.subset_or_all(subset))
    if subset.size < 2:
        raise ValueError("need at least two experts, one of which becomes the base")
    if isinstance(base, bool) or not isinstance(base, (int, np.integer)):
        raise ValueError(f"base must be an integer expert index, not {base!r}")
    if base not in subset:
        raise ValueError(f"base expert {base} is not in the subset")

    means, target_cov, (w_b,) = ensemble.npae_moments(xs, [base])
    base_mean, c_b = means[:, 0], target_cov[:, 0]
    b, hp = ensemble.experts[base], ensemble.hp
    base_var = _latent_variance(hp, c_b)
    aug = [_augmented(b, w_b, ensemble.experts[i], xs) for i in subset[subset != base]]
    gains, cs, jitters = zip(*aug)
    aug_means = base_mean[:, None] + np.column_stack(gains)
    aug_vars = _latent_variance(hp, c_b[:, None] + np.column_stack(cs))
    aug_vars, exact = _set_aside_exact(aug_means, aug_vars)
    base_var[exact[0]] = 1.0  # where the base is exact, so is every augmented expert
    betas = _info_gain(aug_vars, base_var[:, None])
    betas[:, 0] = 1.0
    prior_var = hp.signal_variance + hp.noise_variance
    pred = _fuse(aug_means, aug_vars, betas, prior_var, exact, (base_mean, base_var))
    pred.max_jitter = max(jitters)
    return pred
