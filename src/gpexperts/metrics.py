"""Prediction quality metrics.

All metrics are computed on whatever scale the targets are given in; the
benchmark evaluates on the normalized scale.  A non-finite input raises a
ValueError that names it.
"""

import numpy as np

LOG_2PI = np.log(2.0 * np.pi)


def _flat(**arrays):
    """The named inputs as flat float arrays: finite, of one non-zero length."""
    out = [np.asarray(a, dtype=float).ravel() for a in arrays.values()]
    for name, a in zip(arrays, out):
        if not np.isfinite(a).all():
            raise ValueError(f"metric input {name} must be finite")
    if len({a.shape[0] for a in out}) != 1:
        raise ValueError("metric inputs must have equal length")
    if out[0].shape[0] == 0:
        raise ValueError("metric inputs are empty")
    return out


def smse(y_true, means) -> float:
    """Mean squared error divided by the target variance.

    A trivial predictor of the mean scores ~1; smaller is better.
    """
    y_true, means = _flat(y_true=y_true, means=means)
    var = float(np.var(y_true))
    if var <= 0:
        raise ValueError("target variance is zero; SMSE is undefined")
    return float(np.mean((y_true - means) ** 2)) / var


def msll(y_true, means, variances, train_mean: float, train_var: float) -> float:
    """Mean standardized log loss.

    Average negative Gaussian log density of the targets under the
    predictions, minus the same loss under the trivial predictor
    N(train_mean, train_var).  Negative values beat the trivial predictor.
    """
    y_true, means, variances = _flat(y_true=y_true, means=means, variances=variances)
    for name, value in (("train_mean", train_mean), ("train_var", train_var)):
        if not np.isfinite(value):
            raise ValueError(f"metric input {name} must be finite, not {value}")
    if np.any(variances <= 0) or train_var <= 0:
        raise ValueError("log loss needs strictly positive variances")
    nll = 0.5 * (LOG_2PI + np.log(variances)) + (y_true - means) ** 2 / (2 * variances)
    trivial = 0.5 * (LOG_2PI + np.log(train_var)) + (y_true - train_mean) ** 2 / (
        2 * train_var
    )
    return float(np.mean(nll - trivial))


def mae(y_true, means) -> float:
    """Mean absolute error."""
    y_true, means = _flat(y_true=y_true, means=means)
    return float(np.mean(np.abs(y_true - means)))
