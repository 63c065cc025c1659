"""Graph-based expert selection.

Expert means over the test inputs are samples of an m-dimensional zero-mean
vector (targets are normalized); the sparse inverse of their second-moment
matrix, estimated by the graphical lasso, is a dependency graph between
experts.  Experts with large off-diagonal precision mass are strongly coupled
to the rest and carry the most information, so aggregation can keep only the
top-connected fraction.  Raw magnitudes (no correlation rescaling) matter:
weak experts predict low-amplitude curves, which ranks them last.
"""

import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import dpotrf, dpotri
from scipy.sparse.csgraph import connected_components

from .experts import ExpertEnsemble

# Proximal-step budget of the graphical lasso, over all components.
GLASSO_MAX_ITER = 10000


@dataclass
class ExpertGraph:
    """Estimated dependency structure over experts.

    ``order`` ranks experts most-connected first (ties broken by ascending
    index); ``selected`` is the sorted index set of the kept experts.
    ``steps`` and ``converged`` describe the graphical lasso's proximal steps
    and ``components`` its screening's components, as sorted index arrays.
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


def _penalized_objective(s, omega, lam):
    sign, logdet = np.linalg.slogdet(omega)
    if sign <= 0:
        return -np.inf
    off_l1 = np.sum(np.abs(omega)) - np.sum(np.abs(np.diagonal(omega)))
    return logdet - float(np.sum(s * omega)) - lam * off_l1


def _gista(s, lam, thresh, budget):
    """G-ISTA (Rolfs et al., NIPS 2012) on one component; yields each step.

    A trial step of size t is accepted once dpotrf factors it and
    t <D, W - W'> <= |D|^2 for the move D: the symmetrized Bregman divergence
    of -log det bounds the one-sided one, so the objective rises, with no
    log-determinant difference (which loses every digit near the optimum).
    Rejection halves t; acceptance resets it to the Barzilai-Borwein size
    <D, dG> / |dG|^2.  Ends before ``budget`` steps only once the KKT
    residual is at most ``thresh``.
    """
    lam = lam * (1.0 - np.eye(len(s)))  # the diagonal is not penalized
    omega, w = np.diag(1.0 / np.diagonal(s)), np.diag(np.diagonal(s))
    step = float(np.min(np.diagonal(omega))) ** 2
    for _ in range(budget):
        grad = s - w
        # KKT residual: |g + lam sign O| on the support, |g| - lam off it
        if np.all(np.abs(grad + lam * np.sign(omega)) - lam * (omega == 0) <= thresh):
            return
        while True:
            trial = omega - step * grad
            trial -= np.clip(trial, -step * lam, step * lam)  # soft threshold
            low, info = dpotrf(trial, lower=1, clean=1)
            if info == 0:
                w_next = dpotri(low, lower=1)[0]  # lower triangle, zeros above
                w_next = w_next + w_next.T - np.diag(np.diagonal(w_next))
                move, change = trial - omega, w - w_next
                curvature = float(np.vdot(move, change))
                if step * curvature <= float(np.vdot(move, move)):
                    break
            step *= 0.5
        if curvature > 0.0:
            step = curvature / float(np.vdot(change, change))
        omega, w = trial, w_next
        yield omega


def graphical_lasso(s, lam: float, tol=1e-3, max_iter=GLASSO_MAX_ITER):
    """l1-penalized precision estimate maximizing log det O - tr(SO) - lam*|O|_1.

    Only off-diagonal entries are penalized.  Exact covariance thresholding
    (Mazumder & Hastie, JMLR 2012) splits the experts into the connected
    components of the graph with an edge wherever |S_ij| > lam: the solution
    is block diagonal over them, and an isolated expert gets O_ii = 1/S_ii
    exactly.  Each larger component is solved by G-ISTA proximal gradient
    steps until the element-wise KKT residual of W = O^-1 is at most
    ``tol * lam`` (``tol * max|S|`` at lam = 0): diag W = diag S,
    |W_ij - S_ij| <= lam, and W_ij - S_ij = lam * sign(O_ij) on edges.
    ``max_iter`` caps the proximal steps over all components, so a run that
    takes all of them did not converge: it returns the last iterate with a
    warning.

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
        for iterate in _gista(sub, lam, thresh, max_iter - len(objectives)):
            omega[block] = iterate
            objectives.append(rest + _penalized_objective(sub, iterate, lam))
    if len(objectives) >= max_iter:
        message = f"graphical lasso did not converge in {max_iter} proximal steps"
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

