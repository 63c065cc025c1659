"""Exact Gaussian process regression with marginal-likelihood training.

Targets are assumed centered (the data loaders normalize to zero mean and
unit variance); the GP prior mean is zero.  Hyperparameters are optimized in
log space by L-BFGS with analytic gradients, optionally restarted from
randomly perturbed initializations.

Each likelihood evaluation holds two n x n buffers, each reused in place:
C = K + noise * I, then L (LAPACK ``dpotrf``), then L^{-1}
(:func:`~gpexperts.linalg.tri_inv`, a recursive inversion at matrix-multiply
speed), then C^{-1} = L^{-T} L^{-1} (LAPACK ``dlauum``); and K, then
K o C^{-1}.  The gradient (Rasmussen & Williams 2006, eq. 5.9) is
0.5 * tr((alpha alpha^T - C^{-1}) dC/dtheta_j).  With
B = (alpha alpha^T - C^{-1}) o K and r = B 1, every trace is a reduction of B:

    log signal_variance:  0.5 * sum(r)
    log lengthscales[d]:  (0.5 / l_d) * (sum_i x_id^2 r_i - x_d^T (B x)_d)
    log noise_variance:   0.5 * noise * tr(alpha alpha^T - C^{-1})

The lengthscale line expands sum_ij B_ij (x_id - x_jd)^2; it is evaluated
on inputs centered by their mean, which keeps the expansion free of
cancellation.  B itself is never formed: with z = [1, x] (x centered),

    B z = alpha o (K (alpha o z)) - (C^{-1} o K) z:

one matrix product with K, then, once K has been multiplied by C^{-1} in
place, one symmetric product (BLAS ``dsymm``) that reads its upper triangle.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg.blas import dsymm, dtrmm
from scipy.linalg.lapack import dlauum
from scipy.optimize import minimize

from .kernels import Hyperparams, kernel_matrix
from .linalg import SingularMatrixError, chol_with_jitter, solve_spd, tri_inv

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
    some points, in which case it flags them.  ``deflated`` likewise flags
    the points where NPAE dropped an expert that added nothing beyond the
    others.
    """

    means: np.ndarray
    variances: np.ndarray
    failed: np.ndarray | None = None
    deflated: np.ndarray | None = None

    def __post_init__(self):
        if self.means.shape != self.variances.shape:
            raise ValueError("means and variances must have equal length")
        if not np.all(self.variances >= 0):
            raise ValueError("variances must be non-negative, not NaN")

    def __len__(self) -> int:
        return self.means.shape[0]


@dataclass
class TrainingInfo:
    """What the hyperparameter optimizer did, over all restarts.

    ``evaluations`` counts objective evaluations (each one scores every data
    part), ``iterations`` the L-BFGS-B iterations of the restarts that
    finished, and ``converged`` whether the kept restart met its gradient
    tolerance.  ``failed_restarts`` raised a numerical error and were skipped.
    """

    evaluations: int
    iterations: int
    converged: bool
    failed_restarts: int


@dataclass
class GpModel:
    """A trained GP: data, hyperparameters, and the factorized kernel matrix.

    ``chol_inv`` is L^{-1}, the inverse of the lower Cholesky factor L of
    C = K(X, X) + noise_variance * I, with a zero upper triangle; it is
    inverted in L's own storage, so a model holds one n x n array.
    ``alpha`` solves C alpha = y.  ``jitter`` is the diagonal jitter the
    factorization needed; ``training`` is set by :func:`fit`.
    """

    x: np.ndarray
    y: np.ndarray
    hp: Hyperparams
    chol_inv: np.ndarray
    alpha: np.ndarray
    jitter: float = 0.0
    training: TrainingInfo | None = None


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
    k = kernel_matrix(x, x, hp)
    low, _ = chol_with_jitter(k, shift=hp.noise_variance)
    alpha = solve_spd(low, y)
    value = (
        -0.5 * float(y @ alpha)
        - float(np.log(low.diagonal()).sum())
        - 0.5 * n * LOG_2PI
    )
    # C^{-1} = L^{-T} L^{-1} replaces the factor, valid in its lower triangle.
    c_inv = dlauum(tri_inv(low), lower=1, overwrite_c=1)[0]
    # B z for z = [1, x_c].  K is full, so its product is a GEMM, which beats
    # dsymm on so few columns.  K o C^{-1} then replaces K, valid in its
    # upper triangle: the lower one of the Fortran-ordered k.T, which dsymm
    # reads uncopied.
    xc = x - x.mean(axis=0)
    z = np.column_stack([np.ones(n), xc])
    g = alpha[:, None] * (k @ (alpha[:, None] * z))
    k *= c_inv.T
    g -= dsymm(1.0, k.T, z, lower=1)
    r, bx = g[:, 0], g[:, 1:]
    grad = np.empty(hp.dim + 2)
    grad[0] = 0.5 * float(r.sum())
    grad[1:-1] = (0.5 / hp.lengthscales) * (r @ xc**2 - np.sum(xc * bx, axis=0))
    grad[-1] = 0.5 * hp.noise_variance * float(alpha @ alpha - c_inv.trace())
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
    best hyperparameters found with a :class:`TrainingInfo`.
    """
    if restarts < 1:
        raise ValueError("restarts must be >= 1")
    evaluations = 0

    def negative(theta):
        nonlocal evaluations
        evaluations += 1
        hp = Hyperparams.from_log_vector(theta)
        total, grad = 0.0, np.zeros(hp.dim + 2)
        for px, py in parts:
            value, g = log_marginal_likelihood(px, py, hp)
            total += value
            grad += g
        return -total, -grad

    rng = np.random.default_rng(seed)
    theta_init = init.to_log_vector()
    best, iterations, failed, last_err = None, 0, 0, None
    for r in range(restarts):
        theta0 = theta_init if r == 0 else theta_init + rng.uniform(
            -1.0, 1.0, size=theta_init.shape
        )
        # L-BFGS-B evaluates theta0 first and never accepts a worse iterate.
        try:
            res = minimize(
                negative,
                theta0,
                jac=True,
                method="L-BFGS-B",
                options={"maxiter": MAX_OPT_ITER, "gtol": GRAD_TOL},
            )
        except SingularMatrixError as err:
            failed, last_err = failed + 1, err
            continue
        iterations += res.nit
        if best is None or res.fun < best.fun:
            best = res
    if best is None:
        raise TrainingError("all optimizer restarts failed") from last_err
    info = TrainingInfo(evaluations, iterations, bool(best.success), failed)
    return Hyperparams.from_log_vector(best.x), info


def fit(x, y, init: Hyperparams | None = None, restarts: int = 1, seed=0) -> GpModel:
    """Train a GP on the full data by maximizing the log marginal likelihood."""
    x, y = _prepare_xy(x, y)
    if init is None:
        init = default_init(x)
    hp, info = _optimize_shared([(x, y)], init, restarts, seed)
    model = factorize(x, y, hp)
    model.training = info
    return model


def factorize(x, y, hp: Hyperparams) -> GpModel:
    """Build the prediction-ready model for fixed hyperparameters.

    With C = K(x, x) + noise * I = L L^T, alpha comes from the factor; L,
    zero above its diagonal, is then inverted in place by
    :func:`~gpexperts.linalg.tri_inv`, so the model holds L^{-1} as a plain
    matrix.
    """
    x, y = _prepare_xy(x, y)
    k = kernel_matrix(x, x, hp)
    low, jitter = chol_with_jitter(k, shift=hp.noise_variance)
    del k
    alpha = solve_spd(low, y)
    return GpModel(x, y, hp, tri_inv(low), alpha, jitter)


def _member_pass(model: GpModel, xs):
    """Mean, v^T and c = ||v||^2 of a factorized model at ``xs``.

    v = L^{-1} k(x, xs) is one BLAS triangular product: ks.T of a C-ordered
    ``ks`` is Fortran-ordered, so ``dtrmm`` multiplies it by L^{-T} from the
    right in place, and v^T, shape (t, n), lives in the kernel's storage.
    The latent variance is signal_variance - c per test point.
    """
    xs = np.asarray(xs, dtype=float)
    if xs.ndim == 1:
        xs = xs[:, None]
    ks = kernel_matrix(model.x, xs, model.hp)
    means = ks.T @ model.alpha
    vt = dtrmm(1.0, model.chol_inv, ks.T, side=1, lower=1, trans_a=1, overwrite_b=1)
    return means, vt, np.einsum("ij,ij->i", vt, vt)


def _predict_latent(model: GpModel, xs) -> PredictiveDist:
    """Posterior mean and latent variance at ``xs`` under a factorized model."""
    means, _, c = _member_pass(model, xs)
    return PredictiveDist(means, np.maximum(model.hp.signal_variance - c, 0.0))


def gp_predict(model: GpModel, xs) -> PredictiveDist:
    """Posterior marginals of the latent function at the test inputs.

    Variances are for the noise-free function value, so they lie in
    (0, signal_variance]; add the model's noise variance for an
    observation-space prediction.
    """
    return _predict_latent(model, xs)
