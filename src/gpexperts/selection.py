"""Graph-based expert selection.

Expert means over the test inputs are samples of an m-dimensional zero-mean
vector (targets are normalized); the sparse inverse of their second-moment
matrix, estimated by the graphical lasso, is a dependency graph between
experts.  Experts with large off-diagonal precision mass are strongly coupled
to the rest and carry the most information, so aggregation can keep only the
top-connected fraction.  Raw magnitudes (no correlation rescaling) matter:
weak experts predict low-amplitude curves, which ranks them last.  The
graphical lasso is solved by sign-consistent Newton steps on each screened
component (see :func:`graphical_lasso`).
"""

import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import dpotrf, dpotri, dpotrs
from scipy.sparse.csgraph import connected_components

from .experts import ExpertEnsemble

# Newton-step budget of the graphical lasso, over all components.  The S of
# the benchmark workloads, their random-parts variant and the rank-deficient
# test fixture took at most 23 steps at lam from 0.01 to 0.3 and 40 at 0.001;
# a fully coupled 40-expert S that does not converge stops after about 3 s.
GLASSO_MAX_ITER = 100


@dataclass
class ExpertGraph:
    """Estimated dependency structure over experts.

    ``order`` ranks experts most-connected first (ties broken by ascending
    index); ``selected`` is the sorted index set of the kept experts.
    ``steps`` counts the graphical lasso's Newton steps, ``converged`` says
    that it met its KKT gate within ``GLASSO_MAX_ITER`` of them, and
    ``components`` holds its screening's components, as sorted index arrays.
    The penalty and kept fraction stay with the caller of :func:`expert_graph`.
    """

    sample_cov: np.ndarray
    precision: np.ndarray
    importance: np.ndarray
    order: np.ndarray
    selected: np.ndarray
    steps: int
    converged: bool
    components: list


def prediction_covariance(ensemble: ExpertEnsemble, xs) -> np.ndarray:
    """Second-moment matrix of expert means across the test inputs.

    S[i, j] = mean_t mu_i(x_t) * mu_j(x_t), the zero-mean sample covariance.
    An expert that predicts a constant carries no coupling information; its
    off-diagonal entries are set to 0 (diagonal 1, isolating the node) and a
    warning is issued.
    """
    xs = np.asarray(xs, dtype=float)
    if (xs.shape[0] if xs.ndim > 0 else 0) < 2:
        raise ValueError("need at least two test points to estimate covariance")
    means = ensemble.moments(xs)[0]
    cov = means.T @ means / means.shape[0]
    degenerate = np.ptp(means, axis=0) == 0.0
    if degenerate.any():
        warnings.warn(
            f"{int(degenerate.sum())} expert(s) predict a constant; "
            "their graph couplings are set to zero",
            RuntimeWarning,
            stacklevel=2,
        )
        cov[degenerate, :] = cov[:, degenerate] = 0.0
        cov[degenerate, degenerate] = 1.0
    return cov


def _objective(s, omega, lam, low):
    """Penalized objective of ``omega`` given its lower Cholesky factor."""
    off_l1 = np.sum(np.abs(omega)) - np.sum(np.abs(np.diagonal(omega)))
    logdet = 2.0 * np.sum(np.log(np.diagonal(low)))
    return logdet - float(np.sum(s * omega)) - lam * off_l1


def _penalized_objective(s, omega, lam):
    low, info = dpotrf(omega, lower=1, clean=0)
    return -np.inf if info else _objective(s, omega, lam, low)


def _pinned_solve(hess, slope, sign, start, target):
    """Newton step u on the free pairs that keeps every orthant sign.

    Solves ``hess u = -slope`` by Cholesky.  Each pair the step would carry
    across zero is pinned at ``target`` (u = -start moves it to 0, u = 0
    holds it) and the system is solved again on the other pairs.  A system
    that dpotrf cannot factor gives no step (u = 0).
    """
    pinned = np.zeros(len(slope), dtype=bool)
    while True:
        keep = ~pinned
        u = np.where(pinned, target, 0.0)
        low, info = dpotrf(hess[np.ix_(keep, keep)] if pinned.any() else hess, lower=1)
        if info:
            return np.zeros_like(slope)
        rhs = -slope[keep] - hess[np.ix_(keep, pinned)] @ u[pinned]
        u[keep] = dpotrs(low, rhs, lower=1)[0]
        flips = keep & (sign * (start + u) < 0)
        if not flips.any():
            return u
        pinned |= flips


def _newton(s, lam, thresh, budget):
    """Sign-consistent Newton steps on one component; yields each step.

    The free set F holds the diagonal, the nonzeros, and the zeros where
    |S - W| > lam.  Each free off-diagonal entry takes an orthant sign z:
    sign(O) on a nonzero, -sign(S - W) on a zero.  The step D solves the
    Newton system on F, (W D W)_F = -(S - W + lam z)_F, by Cholesky.  A free
    entry that the step would carry across zero is pinned to 0 and the
    system solved again, until the step keeps every sign; should that step
    not rise, pinned entries are held instead.  The objective is smooth along
    such a step, so a backtracking line search on the exact objective takes
    the first length at which dpotrf factors the iterate and the objective
    rises by a share of its slope, or no move at all below a length of 2^-40.
    Ends before ``budget`` steps only once the KKT residual is at most
    ``thresh``.
    """
    pen = lam * (1.0 - np.eye(len(s)))  # the diagonal is not penalized
    omega, w = np.diag(1.0 / np.diagonal(s)), np.diag(np.diagonal(s))
    value = _objective(s, omega, lam, np.sqrt(omega))  # a diagonal's factor
    rows, cols = np.triu_indices(len(s))
    for _ in range(budget):
        grad = s - w
        # KKT residual: |g + lam sign O| on the support, |g| - lam off it
        if np.all(np.abs(grad + pen * np.sign(omega)) - pen * (omega == 0) <= thresh):
            return
        z = np.where(omega != 0, np.sign(omega), -np.sign(grad)) * (pen > 0)
        free = ((omega != 0) | (np.abs(grad) > pen))[rows, cols]
        i, j = rows[free], cols[free]
        # In u = D off the diagonal and D / 2 on it, the system's matrix is
        # H_pq = W_ik W_jl + W_il W_jk for pairs p = (i, j), q = (k, l).
        wi, wj = w[i], w[j]
        hess = wi.take(i, 1) * wj.take(j, 1) + wi.take(j, 1) * wj.take(i, 1)
        slope, sign, start = grad[i, j] + lam * z[i, j], z[i, j], omega[i, j]
        u = _pinned_solve(hess, slope, sign, start, -start)
        if slope @ u >= 0.0:
            u = _pinned_solve(hess, slope, sign, start, 0.0)
        move = np.zeros_like(omega)
        move[i, j] = move[j, i] = np.where(i == j, 2.0 * u, u)
        rise = -2.0 * float(slope @ u)  # the objective's slope along move
        for t in 0.5 ** np.arange(41):
            trial = omega + t * move
            low, info = dpotrf(trial, lower=1, clean=1)
            new = _objective(s, trial, lam, low) if info == 0 else -np.inf
            if new >= value + 1e-4 * t * rise:
                w = dpotri(low, lower=1)[0]  # lower triangle, zeros above
                w = w + w.T - np.diag(np.diagonal(w))
                omega, value = trial, new
                break
        yield omega


def graphical_lasso(s, lam: float, tol=1e-3, max_iter=GLASSO_MAX_ITER):
    """l1-penalized precision estimate maximizing log det O - tr(SO) - lam*|O|_1.

    Only off-diagonal entries are penalized.  Exact covariance thresholding
    (Mazumder & Hastie, JMLR 2012) splits the experts into the connected
    components of the graph with an edge wherever |S_ij| > lam: the solution
    is block diagonal over them, and an isolated expert gets O_ii = 1/S_ii
    exactly.  Each larger component is solved by sign-consistent Newton steps
    (in the spirit of QUIC, Hsieh et al., JMLR 2014, and orthant-based Newton,
    Oztoprak et al., NIPS 2012) until the element-wise KKT residual of
    W = O^-1 is at most ``tol * lam`` (``tol * max|S|`` at lam = 0):
    diag W = diag S, |W_ij - S_ij| <= lam, and W_ij - S_ij = lam * sign(O_ij)
    on edges.  A step's Newton system has one row per free pair (i <= j) of
    its component, so it takes 8 |F|^2 bytes: 5.4 MB for a fully coupled
    component of 40 experts.  ``max_iter`` caps the Newton steps over all
    components, so a run that takes all of them did not converge: it returns
    the last iterate with a warning.

    Returns ``(omega, objectives, components)``: the estimate, the whole-matrix
    objective after each accepted step (never falling), the sorted components.
    """
    s = np.asarray(s, dtype=float)
    if s.ndim != 2 or s.shape[0] != s.shape[1]:
        raise ValueError("S must be square")
    if not np.allclose(s, s.T, atol=1e-10):
        raise ValueError("S must be symmetric")
    if np.any(np.diagonal(s) <= 0):
        raise ValueError("S must have a positive diagonal")
    if lam < 0:
        raise ValueError("penalty must be >= 0")
    diag = np.diagonal(s)
    omega, objectives = np.diag(1.0 / diag), []
    thresh = tol * (lam if lam > 0 else float(np.max(np.abs(s))))
    alone = -np.log(diag) - 1.0  # objective of each expert at O_ii = 1/S_ii
    count, labels = connected_components(np.abs(s) > lam, directed=False)
    components = [np.flatnonzero(labels == c) for c in range(count)]
    for comp in [c for c in components if c.size > 1]:
        block, sub = np.ix_(comp, comp), s[np.ix_(comp, comp)]
        rest = (objectives[-1] if objectives else np.sum(alone)) - np.sum(alone[comp])
        for iterate in _newton(sub, lam, thresh, max_iter - len(objectives)):
            omega[block] = iterate
            objectives.append(rest + _penalized_objective(sub, iterate, lam))
    if len(objectives) >= max_iter:
        message = f"graphical lasso did not converge in {max_iter} Newton steps"
        warnings.warn(message, RuntimeWarning, stacklevel=2)
    return omega, objectives, components


def rank_importance(omega):
    """Total absolute off-diagonal precision per expert, and the ranking.

    Returns ``(importance, order)``; order lists expert indices by descending
    importance with ties broken by ascending index.
    """
    omega = np.asarray(omega, dtype=float)
    importance = np.sum(np.abs(omega), axis=1) - np.abs(np.diagonal(omega))
    order = np.lexsort((np.arange(omega.shape[0]), -importance))
    return importance, order


def select_experts(order, n_experts: int, alpha: float) -> np.ndarray:
    """Sorted indices of the ceil(alpha * m) most-connected experts."""
    if not 0.0 < alpha <= 1.0:
        raise ValueError("alpha must be in (0, 1]")
    # Guard ceil against float dust in alpha * m (e.g. 0.1 * 3).
    keep = min(max(math.ceil(alpha * n_experts - 1e-12), 1), n_experts)
    return np.sort(np.asarray(order[:keep], dtype=int))


def expert_graph(
    ensemble: ExpertEnsemble, xs, lam: float = 0.1, alpha: float = 1.0
) -> ExpertGraph:
    """Estimate the expert graph at penalty ``lam``; keep the top ``alpha``.

    The graphical lasso runs at its default ``tol`` and gets
    ``max_iter=GLASSO_MAX_ITER`` by keyword.
    """
    cov = prediction_covariance(ensemble, xs)
    omega, history, components = graphical_lasso(cov, lam, max_iter=GLASSO_MAX_ITER)
    importance, order = rank_importance(omega)
    selected = select_experts(order, ensemble.n_experts, alpha)
    return ExpertGraph(cov, omega, importance, order, selected, len(history),
                       len(history) < GLASSO_MAX_ITER, components)

