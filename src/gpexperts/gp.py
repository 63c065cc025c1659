"""Exact Gaussian process regression with marginal-likelihood training.

Targets are assumed centered (the data loaders normalize to zero mean and
unit variance); the GP prior mean is zero.  Hyperparameters are optimized in
log space by L-BFGS with analytic gradients, optionally restarted from
randomly perturbed initializations.

The likelihood is computed at signal variance 1.  With K = s K~ (K~ has a
unit diagonal) and g = noise / s, C = s C_1 with C_1 = K~ + g I, so
alpha = alpha_1 / s and log det C = n log s + log det C_1: one
factorization of C_1 gives the evidence at every s.  Each evaluation holds
one n x n buffer, reused in place: K~ from :func:`_self_kernel`.  Its
strict upper triangle, which with D >= 2 may round apart from the lower
one, keeps K~ for the gradient.  On and below the diagonal, C_1 becomes
W = L^{-1}
(:func:`~gpexperts.linalg.chol_with_jitter`, a recursive factor-and-invert
built from BLAS triangular and symmetric rank-k products), then
C_1^{-1} = W^T W (LAPACK ``dlauum``), then C_1^{-1} o K~.
alpha_1 = W^T (W y), q = y^T alpha_1, and -0.5 * log det C_1 =
sum(log diag(W)).  The gradient (Rasmussen & Williams 2006, eq. 5.9) is
0.5 * tr((alpha alpha^T - C^{-1}) dC/dtheta_j).  With
B = (alpha alpha^T - C^{-1}) o K = T / s - U, where
T = (alpha_1 alpha_1^T) o K~ and U = C_1^{-1} o K~, and r = B 1, every
trace is a reduction of B:

    log signal_variance:  0.5 * sum(r)
    log lengthscales[d]:  (0.5 / l_d) * (sum_i x_id^2 r_i - x_d^T (B x)_d)
    log noise_variance:   0.5 * g * (alpha_1^T alpha_1 / s - tr(C_1^{-1}))

The lengthscale line expands sum_ij B_ij (x_id - x_jd)^2; it is evaluated
on inputs centered by their mean, which keeps the expansion free of
cancellation.  B itself is never formed: with z = [1, x] (x centered),

    T z = alpha_1 o (K~ (alpha_1 o z)),    U z = (C_1^{-1} o K~) z:

two symmetric products (BLAS ``dsymm``).  The first reads K~ from the upper
triangle, with its unit diagonal written back for that call; the second
reads C_1^{-1} o K~ from the lower one.  Their reductions, with the noise
line's two terms, are the vectors u (from T) and v (from U), and the
gradient at any s is u / s - v.

Training sums q, log det C_1, u and v over the data parts.  The evidence is
largest at s* = sum(q) / N, where it is -N/2 (1 + log 2 pi + log s*) - 0.5
log det C_1 summed, so L-BFGS-B searches only [log lengthscales, log g]
(the concentrated likelihood of kriging): the profiled maximum is the joint
one.  By the envelope theorem s* needs no gradient term.  Neither the input
checks nor z depend on the hyperparameters, so training prepares each data
part once, as the triple (x, y, z), and every evaluation runs only the core
:func:`_unit_evidence` on it.  The public :func:`log_marginal_likelihood`
prepares its part and evaluates the same core's pieces at its own s.
Training takes targets whose mean square lies in [2^-800, 2^800], and
raises SingularMatrixError when no restart can factor its parts.

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
# hyperparameter settings apart.  SciPy's default, 2.2e-9, runs 6 more
# evaluations on the table's ensemble (35 against 29) that mostly push the
# lengthscales of inputs the target ignores toward infinity, for 2e-4 nats;
# 3e-8 and 3e-7 take 30 and 27.
FTOL = 1e-7


@dataclass(eq=False)
class PredictiveDist:
    """Gaussian predictive marginals: one mean and variance per test point.

    ``failed`` and ``deflated`` are (t,) boolean masks, all False where
    nothing happened: ``failed`` flags the points where the producer fell
    back to the prior, ``deflated`` those where NPAE dropped an expert that
    added nothing beyond the others.  ``max_jitter`` is the largest jitter
    that grbcm's augmented experts needed (0.0 for every other rule).
    """

    means: np.ndarray
    variances: np.ndarray
    failed: np.ndarray
    deflated: np.ndarray
    max_jitter: float = 0.0

    def __post_init__(self):
        if self.means.shape != self.variances.shape:
            raise ValueError("means and variances must have equal length")
        if not np.all(self.variances >= 0):
            raise ValueError("variances must be non-negative, not NaN")


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
    did).  Training factors C / signal_variance, so each jitter is reported
    times its evaluation's signal variance: the jitter C itself would have
    needed, on the data's scale.
    """

    evaluations: int
    iterations: int
    converged: bool
    failed_restarts: int
    max_jitter: float


@dataclass(eq=False)
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
    x, y, z = _prepare_part(x, y)
    sf2 = hp.signal_variance
    unit = Hyperparams(1.0, hp.lengthscales, hp.noise_variance / sf2)
    q, log_det_w, uv, _ = _unit_evidence(x, y, z, unit)
    value = -0.5 * (q / sf2 + y.shape[0] * (math.log(sf2) + LOG_2PI)) + log_det_w
    return value, uv[0] / sf2 - uv[1]


def _unit_evidence(x, y, z, hp: Hyperparams):
    """The pieces of a prepared part's evidence, at signal_variance 1.

    ``x``, ``y`` and ``z`` come from :func:`_prepare_part`; ``hp`` has
    signal_variance 1, so C_1 = K~ + g I with g = ``hp.noise_variance``.
    Returns ``(q, log_det_w, uv, jitter)``: q = y^T alpha_1, log_det_w =
    sum(log diag(W)) = -0.5 * log det C_1, the (2, D + 2) array [u; v] of
    the module docstring, whose u / s - v is the gradient at
    signal_variance s and noise_variance g * s, and the diagonal jitter the
    factorization of C_1 needed.
    """
    n = x.shape[0]
    w, jitter = chol_with_jitter(_self_kernel(x, hp), shift=hp.noise_variance)
    alpha = solve_spd(w, y)
    q = float(y @ alpha)
    log_det_w = float(np.log(w.diagonal()).sum())
    c_inv = dlauum(w, lower=1, overwrite_c=1)[0]
    diag = c_inv.T.reshape(-1)[:: n + 1]  # c_inv.T is C-contiguous: a view
    c_inv_diag = diag.copy()
    # T1 = alpha_1 o (K~ (alpha_1 o z)) reads the upper triangle, with K~'s
    # unit diagonal written back for that product; C_1^{-1} o K~ then
    # replaces C_1^{-1} below it, and T2 = (C_1^{-1} o K~) z.
    diag[...] = 1.0
    t1 = alpha[:, None] * dsymm(1.0, c_inv, alpha[:, None] * z, lower=0)
    _times_transpose_below(c_inv)
    diag[...] = c_inv_diag
    t = np.stack((t1, dsymm(1.0, c_inv, z, lower=1)))
    xc, r = z[:, 1:], t[:, :, 0]
    uv = np.empty((2, hp.dim + 2))
    uv[:, 0] = 0.5 * r.sum(axis=1)
    uv[:, 1:-1] = (0.5 / hp.lengthscales) * (
        r @ xc**2 - np.einsum("kij,ij->kj", t[:, :, 1:], xc)
    )
    uv[0, -1] = 0.5 * hp.noise_variance * float(alpha @ alpha)
    uv[1, -1] = 0.5 * hp.noise_variance * float(c_inv_diag.sum())
    return q, log_det_w, uv, jitter


def _self_kernel(x, hp: Hyperparams):
    """K(x, x) in Fortran order, with its diagonal exactly signal_variance.

    ``kernel_matrix(x, x, hp)`` transposed: on and below the diagonal it
    holds the kernel's upper triangle, where the factorizations read, and
    the diagonal is written here, since with D >= 2 the kernel's own may
    miss signal_variance by a few ulps.  The strict upper triangle holds
    the kernel's lower one, which with D >= 2 may differ by rounding; only
    the likelihood gradient, a jitter retry and :func:`_augmented`'s Schur
    complement read it.  No mirror pass runs: it would cost about a third
    of an 8-D self-kernel.
    """
    k = kernel_matrix(x, x, hp)
    k.reshape(-1)[:: k.shape[0] + 1] = hp.signal_variance
    return k.T


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
    """Heuristic starting point: unit signal, per-dimension input spread.

    Each lengthscale starts at its input's std, or at 1 if the input is constant.
    Training profiles the signal variance out, so only the lengthscales and
    the ratio g = noise_variance / signal_variance = 0.1 start the search.
    """
    x = as_points(x)
    spread = np.where(np.ptp(x, axis=0) == 0, 1.0, np.std(x, axis=0))
    return Hyperparams(1.0, spread, 0.1)


def _profiled(parts, hp: Hyperparams):
    """The summed evidence of prepared parts, maximized over signal_variance.

    ``hp`` has signal_variance 1 and noise_variance g.  Scaling C_1 by s,
    the evidence is maximized at s* = sum_p q_p / N, where its value is
    -N/2 (1 + log 2 pi + log s*) + sum_p log_det_w_p.  Returns
    ``(value, grad, s*, jitter)``: grad is with respect to
    [log lengthscales..., log g] and needs no term for s*, whose own
    derivative is 0 there; jitter is the largest any part needed, times s*,
    which puts it on the scale of C itself.
    """
    n, q, log_det_w, uv, jitter = 0, 0.0, 0.0, 0.0, 0.0
    for part in parts:
        pq, p_log_det_w, p_uv, p_jitter = _unit_evidence(*part, hp)
        n += part[1].shape[0]
        q, log_det_w, uv = q + pq, log_det_w + p_log_det_w, uv + p_uv
        jitter = max(jitter, p_jitter)
    sf2 = q / n
    value = -0.5 * n * (1.0 + LOG_2PI + math.log(sf2)) + log_det_w
    return value, (uv[0] / sf2 - uv[1])[1:], sf2, jitter * sf2


def _optimize_shared(parts, init: Hyperparams, restarts: int, seed):
    """Maximize the summed log marginal likelihood over data parts.

    Each part is an (x, y) pair scoring the same hyperparameters; a single
    part recovers ordinary GP training.  Each part is prepared once
    (:func:`_prepare_part`).  L-BFGS-B searches theta = [log lengthscales...,
    log g], g = noise_variance / signal_variance, and each objective
    evaluation is :func:`_profiled`, which sets the signal variance to its
    closed-form maximizer: the maximum over theta is the joint one.  Runs
    ``restarts`` initializations (the given one, then log-uniform +-1
    perturbations of its D + 1 entries) and returns the best hyperparameters
    found with a :class:`TrainingInfo`.  A restart that raises
    SingularMatrixError is skipped; if all do, a SingularMatrixError that
    counts them is raised from the last.
    """
    if restarts < 1:
        raise ValueError("restarts must be >= 1")
    parts = [_prepare_part(px, py) for px, py in parts]
    # s* scales as the targets' mean square.  alpha_1 grows like y / g, and
    # g reaches 6e-16 (2^-50) on noise-free data, so alpha_1^T alpha_1 and
    # T1 reach about 2^100 n times the mean square, while noise_variance =
    # g s* falls to about 2^-50 / n times it.  A mean square within
    # 2^+-800 keeps both inside the normal floats, 2^-1022 to 2^1024, with
    # 2^120 to spare for n and the inputs' spread.
    n = sum(py.size for _, py, _ in parts)
    with np.errstate(over="ignore"):
        mean_square = sum(float(py @ py) for _, py, _ in parts) / n
    if not 2.0**-800 <= mean_square <= 2.0**800:
        raise ValueError(
            "training targets are all zero or out of scale: their mean square "
            f"{mean_square:.3e} is outside [2^-800, 2^800]"
        )
    evaluations, max_jitter, scales = 0, 0.0, {}

    def negative(theta):
        nonlocal evaluations, max_jitter
        evaluations += 1
        hp = Hyperparams(1.0, np.exp(theta[:-1]), math.exp(theta[-1]))
        value, grad, scales[theta.tobytes()], jitter = _profiled(parts, hp)
        max_jitter = max(max_jitter, jitter)
        return -value, -grad

    rng = np.random.default_rng(seed)
    theta_init = np.log(
        np.append(init.lengthscales, init.noise_variance / init.signal_variance)
    )
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
        raise SingularMatrixError(
            f"all {restarts} optimizer restarts failed, the last with: {last_err}"
        ) from last_err
    info = TrainingInfo(evaluations, iterations, bool(best.success), failed, best_jitter)
    sf2, g = scales[best.x.tobytes()], math.exp(best.x[-1])
    return Hyperparams(sf2, np.exp(best.x[:-1]), g * sf2), info


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
    w, jitter = chol_with_jitter(_self_kernel(x, hp), shift=hp.noise_variance)
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
    # With D >= 2, S starts from the GEMM's lower triangle: dsyrk's lower
    # product rounds apart from this one and would move grbcm's 1-D results.
    s = dsyrk(-1.0, g, beta=1.0, c=_self_kernel(other.x, hp), overwrite_c=1)
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
    none = np.zeros(means.shape, dtype=bool)
    return PredictiveDist(means, _latent_variance(model.hp, c), none, none.copy())
