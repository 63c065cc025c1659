"""Product- and committee-style aggregation of independent expert predictions.

These rules treat the experts' posteriors as (conditionally) independent and
fuse them through weighted precisions:

    product rules:    precision = sum_i beta_i / var_i
    committee rules:  precision = sum_i beta_i / var_i + (1 - sum_i beta_i) / prior

with the fused mean given by the matching precision-weighted combination.
The committee prior is the observation-space variance k(x*, x*) + noise,
since the committee correction conditions on noisy targets.

Weight schemes: "ones" gives the plain product of experts / committee
machine, "uniform" (1/m) the conservative generalized product, and
"diff_entropy" weights each expert by its information gain over the prior,
0.5 * (log prior_var - log var_i), which yields the robust committee machine.

The robust variant with a communication expert (``grbcm_aggregate``) keeps a
base part that every other expert is augmented with, and fuses the augmented
posteriors against the base posterior instead of the prior.
"""

import numpy as np

from .experts import ExpertEnsemble, _factorize_expert, expert_predict
from .gp import PredictiveDist

WEIGHT_SCHEMES = ("ones", "uniform", "diff_entropy")


def compute_weights(scheme: str, variances: np.ndarray, prior_var: float) -> np.ndarray:
    """Per-expert, per-point non-negative weights for a fusion scheme."""
    if scheme == "ones":
        return np.ones_like(variances)
    if scheme == "uniform":
        return np.full_like(variances, 1.0 / variances.shape[1])
    if scheme == "diff_entropy":
        return np.maximum(0.5 * (np.log(prior_var) - np.log(variances)), 0.0)
    raise ValueError(f"unknown weight scheme {scheme!r}; use one of {WEIGHT_SCHEMES}")


def _expert_moments(ensemble: ExpertEnsemble, xs, subset):
    means, variances = [], []
    for i in subset:
        pred = expert_predict(ensemble.experts[i], xs)
        means.append(pred.means)
        variances.append(pred.variances)
    variances = np.column_stack(variances)
    if np.any(variances <= 0):
        raise ValueError("precision fusion needs strictly positive expert variances")
    return np.column_stack(means), variances


def poe_aggregate(
    ensemble: ExpertEnsemble, xs, subset=None, scheme: str = "ones"
) -> PredictiveDist:
    """Product-of-experts fusion: precisions add, weighted by the scheme.

    scheme="ones" is the classic product; scheme="uniform" the generalized
    product whose fused variance is m times less confident.
    """
    subset = ensemble.subset_or_all(subset)
    means, variances = _expert_moments(ensemble, xs, subset)
    prior_var = ensemble.hp.signal_variance + ensemble.hp.noise_variance
    betas = compute_weights(scheme, variances, prior_var)
    precision = np.sum(betas / variances, axis=1)
    if np.any(precision <= 0):
        raise ValueError("fused precision must be positive; got a zero-weight point")
    out_var = 1.0 / precision
    out_mean = out_var * np.sum(betas * means / variances, axis=1)
    return PredictiveDist(out_mean, out_var)


def bcm_aggregate(
    ensemble: ExpertEnsemble, xs, subset=None, scheme: str = "ones"
) -> PredictiveDist:
    """Committee-machine fusion: product rule with a prior correction term.

    scheme="ones" gives the classic committee machine, scheme="diff_entropy"
    the robust variant.  Points whose corrected precision is non-positive
    fall back to the prior and are flagged.
    """
    subset = ensemble.subset_or_all(subset)
    means, variances = _expert_moments(ensemble, xs, subset)
    prior_var = ensemble.hp.signal_variance + ensemble.hp.noise_variance
    betas = compute_weights(scheme, variances, prior_var)
    beta_sum = np.sum(betas, axis=1)
    precision = np.sum(betas / variances, axis=1) + (1.0 - beta_sum) / prior_var
    bad = precision <= 0
    precision = np.where(bad, 1.0 / prior_var, precision)
    out_var = 1.0 / precision
    out_mean = out_var * np.where(bad, 0.0, np.sum(betas * means / variances, axis=1))
    return PredictiveDist(out_mean, out_var, bad if bad.any() else None)


def grbcm_aggregate(
    ensemble: ExpertEnsemble,
    xs,
    base_choice: str = "random",
    subset=None,
    seed=0,
    order=None,
) -> PredictiveDist:
    """Robust committee fusion through a shared communication expert.

    One part is designated the base; every other participating expert is
    refit (same hyperparameters) on its own part joined with the base part,
    and the augmented posteriors are fused against the base posterior:

        precision = sum_i beta_i / var_{b,i} + (1 - sum_i beta_i) / var_b

    The augmented expert with the lowest index always gets beta = 1; the
    others get the information-gain weights 0.5 * (log var_b - log var_{b,i}).
    The subset is taken in index order, so its given order does not matter.

    base_choice is "random" (seeded) or "top_importance", which takes the
    head of ``order`` (an expert ranking, most important first).
    """
    subset = np.sort(ensemble.subset_or_all(subset))
    if ensemble.n_experts < 2 or subset.size < 2:
        raise ValueError("need at least two experts, one of which becomes the base")
    if base_choice == "random":
        base = int(np.random.default_rng(seed).choice(subset))
    elif base_choice == "top_importance":
        if order is None:
            raise ValueError("base_choice='top_importance' needs an expert ranking")
        base = int(order[0])
        if base not in subset:
            raise ValueError("ranked base expert is not in the subset")
    else:
        raise ValueError(f"unknown base_choice {base_choice!r}")

    others = [int(i) for i in subset if i != base]
    base_expert = ensemble.experts[base]
    base_pred = expert_predict(base_expert, xs)

    aug_means, aug_vars = [], []
    for i in others:
        e = ensemble.experts[i]
        aug = _factorize_expert(
            i,
            np.vstack([base_expert.x, e.x]),
            np.concatenate([base_expert.y, e.y]),
            ensemble.hp,
        )
        pred = expert_predict(aug, xs)
        aug_means.append(pred.means)
        aug_vars.append(pred.variances)
    aug_means = np.column_stack(aug_means)
    aug_vars = np.column_stack(aug_vars)
    if np.any(aug_vars <= 0) or np.any(base_pred.variances <= 0):
        raise ValueError("precision fusion needs strictly positive expert variances")

    betas = np.maximum(
        0.5 * (np.log(base_pred.variances)[:, None] - np.log(aug_vars)), 0.0
    )
    betas[:, 0] = 1.0
    beta_sum = np.sum(betas, axis=1)
    precision = (
        np.sum(betas / aug_vars, axis=1) + (1.0 - beta_sum) / base_pred.variances
    )
    prior_var = ensemble.hp.signal_variance + ensemble.hp.noise_variance
    bad = precision <= 0
    precision = np.where(bad, 1.0 / prior_var, precision)
    out_var = 1.0 / precision
    numer = (
        np.sum(betas * aug_means / aug_vars, axis=1)
        + (1.0 - beta_sum) * base_pred.means / base_pred.variances
    )
    out_mean = out_var * np.where(bad, 0.0, numer)
    return PredictiveDist(out_mean, out_var, bad if bad.any() else None)
