"""Exact Gaussian process regression with marginal-likelihood training.

Targets are assumed centered (the data loaders normalize to zero mean and
unit variance); the GP prior mean is zero.  Hyperparameters are optimized in
log space by L-BFGS with analytic gradients, optionally restarted from
randomly perturbed initializations.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import solve_triangular
from scipy.optimize import minimize

from .kernels import Hyperparams, kernel_grad, kernel_matrix
from .linalg import SingularMatrixError, chol_with_jitter, solve_spd

LOG_2PI = math.log(2.0 * math.pi)

# Optimizer budget shared by single-model and ensemble training.
MAX_OPT_ITER = 200
GRAD_TOL = 1e-6


class TrainingError(RuntimeError):
    """Raised when every optimizer restart fails numerically."""


@dataclass
class PredictiveDist:
    """Gaussian predictive marginals: one mean and variance per test point.

    ``failed`` is None unless the producer had to fall back to the prior at
    some points, in which case it flags them.
    """

    means: np.ndarray
    variances: np.ndarray
    failed: np.ndarray | None = None

    def __post_init__(self):
        if self.means.shape != self.variances.shape:
            raise ValueError("means and variances must have equal length")
        if not np.all(self.variances >= 0):
            raise ValueError("variances must be non-negative, not NaN")

    def __len__(self) -> int:
        return self.means.shape[0]


@dataclass
class GpModel:
    """A trained GP: data, hyperparameters, and the factorized kernel matrix.

    ``chol`` is the lower Cholesky factor of K(X, X) + noise_variance * I and
    ``alpha`` solves (K + noise_variance * I) alpha = y.
    """

    x: np.ndarray
    y: np.ndarray
    hp: Hyperparams
    chol: np.ndarray
    alpha: np.ndarray


def _prepare_xy(x, y):
    x = np.asarray(x, dtype=float)
    if x.ndim == 1:
        x = x[:, None]
    y = np.asarray(y, dtype=float).ravel()
    if x.shape[0] != y.shape[0]:
        raise ValueError(f"{x.shape[0]} rows of inputs but {y.shape[0]} targets")
    if x.shape[0] == 0:
        raise ValueError("empty training set")
    if not (np.isfinite(x).all() and np.isfinite(y).all()):
        raise ValueError("training inputs and targets must be finite")
    return x, y


def log_marginal_likelihood(x, y, hp: Hyperparams):
    """Log evidence of the data under the GP and its gradient.

    Returns ``(value, grad)`` where grad is with respect to the log
    hyperparameter vector [log signal_variance, log lengthscales...,
    log noise_variance].
    """
    x, y = _prepare_xy(x, y)
    n = x.shape[0]
    c = kernel_matrix(x, x, hp)
    c[np.diag_indices_from(c)] += hp.noise_variance
    low, _ = chol_with_jitter(c)
    alpha = solve_spd(low, y)
    value = (
        -0.5 * float(y @ alpha)
        - float(np.sum(np.log(np.diagonal(low))))
        - 0.5 * n * LOG_2PI
    )
    # grad_j = 0.5 * tr((alpha alpha^T - C^{-1}) dC/dtheta_j)
    c_inv = solve_spd(low, np.eye(n))
    a = np.outer(alpha, alpha) - c_inv
    dk = kernel_grad(x, hp)
    grad = np.empty(hp.dim + 2)
    for j in range(hp.dim + 1):
        grad[j] = 0.5 * float(np.sum(a * dk[j]))
    grad[-1] = 0.5 * hp.noise_variance * float(np.trace(a))
    return value, grad


def default_init(x) -> Hyperparams:
    """Heuristic starting point: unit signal, per-dimension input spread."""
    x = np.asarray(x, dtype=float)
    if x.ndim == 1:
        x = x[:, None]
    spread = np.std(x, axis=0)
    spread[spread <= 0] = 1.0
    return Hyperparams(1.0, spread, 0.1)


def _optimize_shared(parts, init: Hyperparams, restarts: int, seed):
    """Maximize the summed log marginal likelihood over data parts.

    Each part is an (x, y) pair scoring the same hyperparameters; a single
    part recovers ordinary GP training.  Runs ``restarts`` initializations
    (the given one, then log-uniform +-1 perturbations of it) and returns the
    best hyperparameters found.
    """
    if restarts < 1:
        raise ValueError("restarts must be >= 1")

    def negative(theta):
        hp = Hyperparams.from_log_vector(theta)
        total, grad = 0.0, np.zeros(hp.dim + 2)
        for px, py in parts:
            value, g = log_marginal_likelihood(px, py, hp)
            total += value
            grad += g
        return -total, -grad

    rng = np.random.default_rng(seed)
    theta_init = init.to_log_vector()
    best_val, best_theta, last_err = np.inf, None, None
    for r in range(restarts):
        theta0 = theta_init if r == 0 else theta_init + rng.uniform(
            -1.0, 1.0, size=theta_init.shape
        )
        try:
            f0, _ = negative(theta0)
            res = minimize(
                negative,
                theta0,
                jac=True,
                method="L-BFGS-B",
                options={"maxiter": MAX_OPT_ITER, "gtol": GRAD_TOL},
            )
            # Line search can only improve on the start, but guard anyway.
            val, theta = (res.fun, res.x) if res.fun <= f0 else (f0, theta0)
        except SingularMatrixError as err:
            last_err = err
            continue
        if val < best_val:
            best_val, best_theta = val, theta
    if best_theta is None:
        raise TrainingError("all optimizer restarts failed") from last_err
    return Hyperparams.from_log_vector(best_theta)


def fit(x, y, init: Hyperparams | None = None, restarts: int = 1, seed=0) -> GpModel:
    """Train a GP on the full data by maximizing the log marginal likelihood."""
    x, y = _prepare_xy(x, y)
    if init is None:
        init = default_init(x)
    hp = _optimize_shared([(x, y)], init, restarts, seed)
    return factorize(x, y, hp)


def factorize(x, y, hp: Hyperparams) -> GpModel:
    """Build the prediction-ready model for fixed hyperparameters."""
    x, y = _prepare_xy(x, y)
    c = kernel_matrix(x, x, hp)
    c[np.diag_indices_from(c)] += hp.noise_variance
    low, _ = chol_with_jitter(c)
    return GpModel(x, y, hp, low, solve_spd(low, y))


def _predict_latent(x, chol, alpha, hp: Hyperparams, xs):
    """Posterior mean and latent variance at ``xs`` given a factorized model."""
    xs = np.asarray(xs, dtype=float)
    if xs.ndim == 1:
        xs = xs[:, None]
    ks = kernel_matrix(x, xs, hp)
    means = ks.T @ alpha
    v = solve_triangular(chol, ks, lower=True, check_finite=False)
    variances = np.maximum(hp.signal_variance - np.sum(v * v, axis=0), 0.0)
    return means, variances


def gp_predict(model: GpModel, xs) -> PredictiveDist:
    """Posterior marginals of the latent function at the test inputs.

    Variances are for the noise-free function value, so they lie in
    (0, signal_variance]; add the model's noise variance for an
    observation-space prediction.
    """
    means, variances = _predict_latent(
        model.x, model.chol, model.alpha, model.hp, xs
    )
    return PredictiveDist(means, variances)
