"""Product- and committee-style aggregation of independent expert predictions.

These rules treat the experts' posteriors as (conditionally) independent and
fuse them through weighted precisions, all by one formula (``_fuse``):

    precision = sum_i beta_i / var_i  + (1 - sum_i beta_i) / var_base
    mean      = (sum_i beta_i mu_i / var_i
                 + (1 - sum_i beta_i) mu_base / var_base) / precision

Without a base the base terms are dropped: that is the product rule.  With
a base it is the committee rule.  The base of bcm and rbcm is the prior,
zero mean with the observation-space variance k(x*, x*) + noise, since the
committee correction conditions on noisy targets; the base of grbcm is its
communication expert's posterior.  A committee point whose precision is
not positive falls back to the prior and is flagged.

Weight schemes: "ones" gives the plain product of experts / committee
machine, "uniform" (1/m) the conservative generalized product, and
"diff_entropy" weights each expert by its information gain over the prior,
0.5 * (log prior_var - log var_i), which yields the robust committee machine.

The member moments come from :meth:`ExpertEnsemble.moments`, so all rules
at one test set share one pass over the experts.
"""

import numpy as np

from .experts import ExpertEnsemble, expert_predict
from .gp import PredictiveDist, factorize

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


def _fuse(means, variances, betas, base=None, prior_var=None) -> PredictiveDist:
    """The module's fusion formula over (t, m) expert moments and weights.

    ``base`` is None for the product rule, else the committee base's
    (mean, variance); committee points whose precision is not positive get
    zero mean and ``prior_var`` and are flagged.
    """
    precision = np.sum(betas / variances, axis=1)
    numer = np.sum(betas * means / variances, axis=1)
    if base is None:
        if np.any(precision <= 0):
            raise ValueError(
                "fused precision must be positive; got a zero-weight point"
            )
        out_var = 1.0 / precision
        return PredictiveDist(out_var * numer, out_var)
    base_mean, base_var = base
    rest = 1.0 - np.sum(betas, axis=1)
    precision = precision + rest / base_var
    bad = precision <= 0
    out_var = 1.0 / np.where(bad, 1.0 / prior_var, precision)
    out_mean = out_var * np.where(bad, 0.0, numer + rest * base_mean / base_var)
    return PredictiveDist(out_mean, out_var, bad if bad.any() else None)


def poe_aggregate(
    ensemble: ExpertEnsemble, xs, subset=None, scheme: str = "ones"
) -> PredictiveDist:
    """Product-of-experts fusion: precisions add, weighted by the scheme.

    scheme="ones" is the classic product; scheme="uniform" the generalized
    product whose fused variance is m times less confident.
    """
    means, variances = ensemble.moments(xs, subset)
    prior_var = ensemble.hp.signal_variance + ensemble.hp.noise_variance
    return _fuse(means, variances, compute_weights(scheme, variances, prior_var))


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
    return _fuse(means, variances, betas, (0.0, prior_var), prior_var)


def grbcm_aggregate(
    ensemble: ExpertEnsemble, xs, base: int, subset=None
) -> PredictiveDist:
    """Robust committee fusion through a shared communication expert.

    Expert ``base``, which must be in the subset, is the communication
    expert (Liu, Ong, Shen & Cai, ICML 2018); which one to take is the
    caller's choice.  Every other participating expert is refit (same
    hyperparameters) on its own part joined with the base part, and the
    augmented posteriors are fused with the base posterior as the committee
    base.  The augmented expert with the lowest index always gets beta = 1;
    the others get the information-gain weights
    0.5 * (log var_b - log var_{b,i}).  The subset is taken in index order,
    so its given order does not matter.
    """
    subset = np.sort(ensemble.subset_or_all(subset))
    if subset.size < 2:
        raise ValueError("need at least two experts, one of which becomes the base")
    if base not in subset:
        raise ValueError(f"base expert {base} is not in the subset")

    base_mean, base_var = (a[:, 0] for a in ensemble.moments(xs, [base]))
    b, hp = ensemble.experts[base], ensemble.hp
    aug = []
    for i in subset[subset != base]:
        e = ensemble.experts[i]
        joined = factorize(np.vstack([b.x, e.x]), np.concatenate([b.y, e.y]), hp)
        aug.append(expert_predict(joined, xs))
    aug_means = np.column_stack([p.means for p in aug])
    aug_vars = np.column_stack([p.variances for p in aug])
    betas = compute_weights("diff_entropy", aug_vars, base_var[:, None])
    betas[:, 0] = 1.0
    prior_var = hp.signal_variance + hp.noise_variance
    return _fuse(aug_means, aug_vars, betas, (base_mean, base_var), prior_var)
