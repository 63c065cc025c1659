"""Exact Gaussian process regression with marginal-likelihood training.

Targets are assumed centered (the data loaders normalize to zero mean and
unit variance); the GP prior mean is zero.  Hyperparameters are optimized in
log space by L-BFGS with analytic gradients, optionally restarted from
randomly perturbed initializations.

Each likelihood evaluation holds one n x n buffer, reused in place.  K, as
the kernel returns it, stays in its strict upper triangle.  On and below
the diagonal, C = K + noise * I becomes W = L^{-1}
(:func:`~gpexperts.linalg.chol_with_jitter`, a recursive factor-and-invert
built from BLAS triangular and symmetric rank-k products), then
C^{-1} = W^T W (LAPACK ``dlauum``), then C^{-1} o K.  alpha = W^T (W y), and
-0.5 * log det C = sum(log diag(W)).  The gradient (Rasmussen & Williams
2006, eq. 5.9) is 0.5 * tr((alpha alpha^T - C^{-1}) dC/dtheta_j).  With
B = (alpha alpha^T - C^{-1}) o K and r = B 1, every trace is a reduction of B:

    log signal_variance:  0.5 * sum(r)
    log lengthscales[d]:  (0.5 / l_d) * (sum_i x_id^2 r_i - x_d^T (B x)_d)
    log noise_variance:   0.5 * noise * tr(alpha alpha^T - C^{-1})

The lengthscale line expands sum_ij B_ij (x_id - x_jd)^2; it is evaluated
on inputs centered by their mean, which keeps the expansion free of
cancellation.  B itself is never formed: with z = [1, x] (x centered),

    B z = alpha o (K (alpha o z)) - (C^{-1} o K) z:

two symmetric products (BLAS ``dsymm``).  The first reads K from the upper
triangle, with K's diagonal written back for that call; the second reads
C^{-1} o K from the lower one.

Neither the input checks nor z depend on the hyperparameters, so training
prepares each data part once, as the triple (x, y, z), and every objective
evaluation runs only the core :func:`_lml` on it.  The public
:func:`log_marginal_likelihood` prepares its part and calls the same core.

Only this module reads a model's L^{-1} and alpha: :func:`_member_pass`,
:func:`_member_weights` (NPAE's w) and :func:`_augmented` (grbcm's experts).
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg.blas import dsymm, dsyrk, dtrmm, dtrmv
from scipy.linalg.lapack import dlauum
from scipy.optimize import minimize

from .kernels import Hyperparams, as_points, kernel_matrix
from .linalg import PANEL, SingularMatrixError, _mirror_upper, chol_with_jitter, solve_spd

LOG_2PI = math.log(2.0 * math.pi)

# Optimizer budget shared by single-model and ensemble training.
MAX_OPT_ITER = 200
GRAD_TOL = 1e-6
# L-BFGS-B also stops once an iteration gains at most FTOL relative to the
# objective.  The log evidence grows with the number of training points
# (2034 nats at 1980 points on the 8-D table), so 1e-7 stops at gains of
# about 1e-7 nats per point, far below the O(1) nats that tell two
# hyperparameter settings apart.  SciPy's default, 2.2e-9, runs 12 more
# evaluations on the table that only push the lengthscales of inputs the
# target ignores toward infinity; 3e-8 to 3e-7 all take the same 35.
FTOL = 1e-7


class TrainingError(RuntimeError):
    """Raised when every optimizer restart fails numerically."""


@dataclass
class PredictiveDist:
    """Gaussian predictive marginals: one mean and variance per test point.

    ``failed`` is None unless the producer had to fall back to the prior at
    some points, in which case it flags them.  ``deflated`` likewise flags
    the points where NPAE dropped an expert that added nothing beyond the
    others.  ``max_jitter`` is the largest jitter that grbcm's augmented
    experts needed (0.0 for every other rule).
    """

    means: np.ndarray
    variances: np.ndarray
    failed: np.ndarray | None = None
    deflated: np.ndarray | None = None
    max_jitter: float = 0.0

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
    finished.  ``converged`` is SciPy's success flag of the kept restart: True
    when L-BFGS-B stopped on its gradient test (``GRAD_TOL``) or on its
    relative-gain test (``FTOL``), False when it used up ``MAX_OPT_ITER``
    iterations or its line search failed.  ``failed_restarts`` raised a
    numerical error and were skipped.
    ``max_jitter`` is the largest diagonal jitter any factorization of the
    kept restart needed, over all its evaluations and parts (0.0 when none
    did).
    """

    evaluations: int
    iterations: int
    converged: bool
    failed_restarts: int
    max_jitter: float


@dataclass
class GpModel:
    """A trained GP: data, hyperparameters, and the factorized kernel matrix.

    ``chol_inv`` is L^{-1}, the inverse of the lower Cholesky factor L of
    C = K(X, X) + noise_variance * I, with a zero upper triangle; it is
    computed in the kernel matrix's own storage, so a model holds one n x n
    array.
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
    x = as_points(x)
    y = np.asarray(y, dtype=float).ravel()
    if x.shape[0] != y.shape[0]:
        raise ValueError(f"{x.shape[0]} rows of inputs but {y.shape[0]} targets")
    if x.shape[0] == 0:
        raise ValueError("empty training set")
    if not (np.isfinite(x).all() and np.isfinite(y).all()):
        raise ValueError("training inputs and targets must be finite")
    return x, y


def _prepare_part(x, y):
    """Validated (x, y) and the design z = [1, x - mean(x)] of the gradient."""
    x, y = _prepare_xy(x, y)
    z = np.empty((x.shape[0], x.shape[1] + 1))
    z[:, 0] = 1.0
    np.subtract(x, x.mean(axis=0), out=z[:, 1:])
    return x, y, z


def log_marginal_likelihood(x, y, hp: Hyperparams):
    """Log evidence of the data under the GP and its gradient.

    Returns ``(value, grad)`` where grad is with respect to the log
    hyperparameter vector [log signal_variance, log lengthscales...,
    log noise_variance].
    """
    value, grad, _ = _lml(*_prepare_part(x, y), hp)
    return value, grad


def _lml(x, y, z, hp: Hyperparams):
    """:func:`log_marginal_likelihood` of a prepared part, plus its jitter.

    ``x``, ``y`` and ``z`` come from :func:`_prepare_part`.  Returns
    ``(value, grad, jitter)``, the last being the diagonal jitter the
    factorization of C needed.
    """
    n = x.shape[0]
    # K is symmetric, so its Fortran-ordered transpose is K too.
    w, jitter = chol_with_jitter(kernel_matrix(x, x, hp).T, shift=hp.noise_variance)
    alpha = solve_spd(w, y)
    value = (
        -0.5 * float(y @ alpha)
        + float(np.log(w.diagonal()).sum())
        - 0.5 * n * LOG_2PI
    )
    c_inv = dlauum(w, lower=1, overwrite_c=1)[0]
    diag = c_inv.T.reshape(-1)[:: n + 1]  # c_inv.T is C-contiguous: a view
    c_inv_diag = diag.copy()
    # B z for z = [1, x_c]: K (alpha o z) reads the upper triangle, with K's
    # own diagonal written back for that product; C^{-1} o K then replaces
    # C^{-1} below it.
    xc = z[:, 1:]
    diag[...] = hp.signal_variance
    g = alpha[:, None] * dsymm(1.0, c_inv, alpha[:, None] * z, lower=0)
    _times_transpose_below(c_inv)
    diag[...] = c_inv_diag * hp.signal_variance
    g -= dsymm(1.0, c_inv, z, lower=1)
    r, bx = g[:, 0], g[:, 1:]
    grad = np.empty(hp.dim + 2)
    grad[0] = 0.5 * float(r.sum())
    grad[1:-1] = (0.5 / hp.lengthscales) * (r @ xc**2 - np.sum(xc * bx, axis=0))
    grad[-1] = 0.5 * hp.noise_variance * float(alpha @ alpha - c_inv_diag.sum())
    return value, grad, jitter


def _times_transpose_below(a):
    """Multiply the lower triangle of square ``a`` elementwise by the upper's mirror.

    Works in column panels, so the transposed copy it needs stays a panel
    wide.  The diagonal and the strict upper triangle of each diagonal block
    are overwritten too.
    """
    n = a.shape[0]
    for j0 in range(0, n, PANEL):
        j1 = min(j0 + PANEL, n)
        a[j0:, j0:j1] *= a[j0:j1, j0:].T.copy(order="F")


def default_init(x) -> Hyperparams:
    """Heuristic starting point: unit signal, per-dimension input spread."""
    spread = np.std(as_points(x), axis=0)
    spread[spread <= 0] = 1.0
    return Hyperparams(1.0, spread, 0.1)


def _optimize_shared(parts, init: Hyperparams, restarts: int, seed):
    """Maximize the summed log marginal likelihood over data parts.

    Each part is an (x, y) pair scoring the same hyperparameters; a single
    part recovers ordinary GP training.  Each part is prepared once
    (:func:`_prepare_part`), and each objective evaluation runs only
    :func:`_lml` on every prepared part.  Runs ``restarts`` initializations
    (the given one, then log-uniform +-1 perturbations of it) and returns
    the best hyperparameters found with a :class:`TrainingInfo`.
    """
    if restarts < 1:
        raise ValueError("restarts must be >= 1")
    parts = [_prepare_part(px, py) for px, py in parts]
    evaluations, max_jitter = 0, 0.0

    def negative(theta):
        nonlocal evaluations, max_jitter
        evaluations += 1
        hp = Hyperparams.from_log_vector(theta)
        total, grad = 0.0, np.zeros(hp.dim + 2)
        for px, py, pz in parts:
            value, g, jitter = _lml(px, py, pz, hp)
            total += value
            grad += g
            max_jitter = max(max_jitter, jitter)
        return -total, -grad

    rng = np.random.default_rng(seed)
    theta_init = init.to_log_vector()
    best, best_jitter, iterations, failed, last_err = None, 0.0, 0, 0, None
    for r in range(restarts):
        theta0 = theta_init if r == 0 else theta_init + rng.uniform(
            -1.0, 1.0, size=theta_init.shape
        )
        max_jitter = 0.0
        # L-BFGS-B evaluates theta0 first and never accepts a worse iterate.
        try:
            res = minimize(
                negative,
                theta0,
                jac=True,
                method="L-BFGS-B",
                options={"maxiter": MAX_OPT_ITER, "ftol": FTOL, "gtol": GRAD_TOL},
            )
        except SingularMatrixError as err:
            failed, last_err = failed + 1, err
            continue
        iterations += res.nit
        if best is None or res.fun < best.fun:
            best, best_jitter = res, max_jitter
    if best is None:
        raise TrainingError("all optimizer restarts failed") from last_err
    info = TrainingInfo(evaluations, iterations, bool(best.success), failed, best_jitter)
    return Hyperparams.from_log_vector(best.x), info


def fit(x, y, restarts: int = 1, seed=0) -> GpModel:
    """Train a GP on the full data by maximizing the log marginal likelihood,
    starting from :func:`default_init`."""
    x, y = _prepare_xy(x, y)
    hp, info = _optimize_shared([(x, y)], default_init(x), restarts, seed)
    model = factorize(x, y, hp)
    model.training = info
    return model


def factorize(x, y, hp: Hyperparams) -> GpModel:
    """Build the prediction-ready model for fixed hyperparameters.

    With C = K(x, x) + noise * I = L L^T, the kernel buffer is turned into
    W = L^{-1} in place by :func:`~gpexperts.linalg.chol_with_jitter`; alpha
    comes from W, and the kernel left above the diagonal is then zeroed, so
    the model holds L^{-1} as a plain lower-triangular matrix.
    """
    x, y = _prepare_xy(x, y)
    w, jitter = chol_with_jitter(kernel_matrix(x, x, hp).T, shift=hp.noise_variance)
    alpha = solve_spd(w, y)
    n = w.shape[0]
    for j0 in range(0, n, PANEL):
        j1 = min(j0 + PANEL, n)
        w[:j1, j0:j1] = np.tril(w[:j1, j0:j1], -j0)
    return GpModel(x, y, hp, w, alpha, jitter)


def _member_pass(model: GpModel, xs):
    """Mean, v^T and c = ||v||^2 of a factorized model at ``xs``.

    v = L^{-1} k(x, xs) is one BLAS triangular product: ks.T of a C-ordered
    ``ks`` is Fortran-ordered, so ``dtrmm`` multiplies it by L^{-T} from the
    right in place, and v^T, shape (t, n), lives in the kernel's storage.
    :func:`_latent_variance` turns c into the latent variance.  Every
    prediction comes through here, so here non-finite test inputs raise.
    """
    xs = as_points(xs)
    if not np.isfinite(xs).all():
        raise ValueError("test inputs must be finite")
    ks = kernel_matrix(model.x, xs, model.hp)
    means = ks.T @ model.alpha
    vt = dtrmm(1.0, model.chol_inv, ks.T, side=1, lower=1, trans_a=1, overwrite_b=1)
    return means, vt, np.einsum("ij,ij->i", vt, vt)


def _latent_variance(hp: Hyperparams, c):
    """A member's latent variance, signal_variance - c clipped at 0, at c = ||v||^2."""
    return np.maximum(hp.signal_variance - c, 0.0)


def _member_weights(model: GpModel, vt):
    """w^T = v^T L^{-1} = (C^{-1} k(x, xs))^T, in place of :func:`_member_pass`'s v^T."""
    return dtrmm(1.0, model.chol_inv, vt, side=1, lower=1, overwrite_b=1)


def _augmented(base: GpModel, w_b, other: GpModel, xs):
    """The GP on ``base``'s part joined with ``other``'s, at ``xs``, unrefit.

    With w_b = C_b^{-1} k(X_b, xs) from :func:`_member_weights`, the Schur
    complement of C_b in the joint covariance is S = C_i - G G^T, G = K_ib W_b^T
    (``dtrmm``, ``dsyrk``); with W_S = chol_with_jitter(S), U = W_S (k(X_i, xs)
    - K_ib w_b) and r = W_S (y_i - K_ib alpha_b), the joint GP's mean is
    mean_b + U^T r and its c is c_b + ||U||^2: one factorization of order n_i,
    not n_b + n_i.  Returns ``(U^T r, ||U||^2, jitter)``.  The base is taken
    as factored; S's jitter is added to S alone, on the joint covariance's
    scale signal_variance + noise_variance.
    """
    hp = base.hp
    k_bi = kernel_matrix(base.x, other.x, hp)
    # U^T and r before K_ib is overwritten; kernel_matrix(...).T is
    # Fortran-ordered, as dtrmm wants it.
    ut = kernel_matrix(other.x, xs, hp).T
    ut -= w_b.T @ k_bi
    r = other.y - base.alpha @ k_bi
    g = dtrmm(1.0, base.chol_inv, k_bi.T, side=1, lower=1, trans_a=1, overwrite_b=1)
    # dsyrk writes S on and above the diagonal, where a jitter retry
    # rebuilds it from; the mirror puts it where the factorization reads.
    s = dsyrk(-1.0, g, beta=1.0, c=kernel_matrix(other.x, other.x, hp).T, overwrite_c=1)
    _mirror_upper(s)
    scale = hp.signal_variance + hp.noise_variance
    w_s, jitter = chol_with_jitter(s, scale=scale, shift=hp.noise_variance)
    ut = dtrmm(1.0, w_s, ut, side=1, lower=1, trans_a=1, overwrite_b=1)
    mean = ut @ dtrmv(w_s, r, lower=1, overwrite_x=1)
    return mean, np.einsum("ij,ij->i", ut, ut), jitter


def gp_predict(model: GpModel, xs) -> PredictiveDist:
    """Posterior marginals of the latent function at the test inputs.

    Variances are for the noise-free function value, so they lie in
    (0, signal_variance]; add the model's noise variance for an
    observation-space prediction.
    """
    means, _, c = _member_pass(model, xs)
    return PredictiveDist(means, _latent_variance(model.hp, c))
