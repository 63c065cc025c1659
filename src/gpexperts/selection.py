"""Graph-based expert selection.

Expert means over the test inputs are samples of an m-dimensional zero-mean
vector (targets are normalized); the sparse inverse of their second-moment
matrix, estimated by the graphical lasso, is a dependency graph between
experts.  Experts with large off-diagonal precision mass are strongly coupled
to the rest and carry the most information, so aggregation can keep only the
top-connected fraction.  Raw magnitudes (no correlation rescaling) matter:
weak experts predict low-amplitude curves, which ranks them last.  The
graphical lasso screens the experts into the connected components of the
graph |S_ij| > lam, found by squaring its reachability matrix in NumPy, and
solves each by sign-consistent Newton steps until its KKT gate passes (see
:func:`graphical_lasso`).

At m = 10 most of :func:`expert_graph`'s time is fixed per-call cost, so
the solver's small reductions avoid NumPy's function wrappers.  README
prices selection against NPAE on the benchmark workloads.
"""

import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import dpotrf, dpotri, dpotrs

from .experts import ExpertEnsemble
from .kernels import check_integer

# Newton-step budget of the graphical lasso, over all components.  The S of
# the benchmark workloads, their random-parts variant and the rank-deficient
# test fixture took at most 23 steps at lam from 0.01 to 0.3 and 40 at 0.001;
# a fully coupled 40-expert S that does not converge stops after about 3 s.
GLASSO_MAX_ITER = 100

# Backtracking line search lengths of a Newton step: 1, 1/2, ..., 2^-40.
_STEP_LENGTHS = 0.5 ** np.arange(41)


@dataclass(eq=False)
class ExpertGraph:
    """Estimated dependency structure over experts.

    ``order`` ranks experts most-connected first (ties broken by ascending
    index); ``selected`` is the sorted index set of the kept experts.
    ``steps`` counts the graphical lasso's Newton steps, ``converged`` is its
    verdict (whether the estimate passed its KKT gate), and ``components``
    holds its screening's components, as sorted index arrays.
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
    off_l1 = np.abs(omega).sum() - np.abs(omega.diagonal()).sum()
    logdet = 2.0 * np.log(low.diagonal()).sum()
    return logdet - float((s * omega).sum()) - lam * off_l1


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
    keep, system, rhs, u = ~pinned, hess, -slope, np.zeros_like(slope)
    while True:
        low, info = dpotrf(system, lower=1)
        if info:
            return np.zeros_like(slope)
        u[keep] = dpotrs(low, rhs, lower=1)[0]
        flips = keep & (sign * (start + u) < 0)
        if not flips.any():
            return u
        pinned |= flips
        keep = ~pinned
        u = np.where(pinned, target, 0.0)
        system = hess[np.ix_(keep, keep)]
        rhs = -slope[keep] - hess[np.ix_(keep, pinned)] @ u[pinned]


def _newton(s, lam, thresh, budget):
    """Sign-consistent Newton steps on one component, at most ``budget``.

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
    Returns ``(omega, values, converged)``: the last iterate, the objective
    after each step, and whether the KKT residual met ``thresh`` in ``budget`` steps.
    """
    pen = lam * (1.0 - np.eye(len(s)))  # the diagonal is not penalized
    penalized = pen > 0
    omega, w = np.diag(1.0 / s.diagonal()), np.diag(s.diagonal())
    value = _objective(s, omega, lam, np.sqrt(omega))  # a diagonal's factor
    index = np.arange(len(s))
    rows, cols = np.nonzero(index[:, None] <= index)  # the pairs i <= j
    values = []
    while True:
        grad, nonzero, orthant = s - w, omega != 0, np.sign(omega)
        # KKT residual: |g + lam sign O| on the support, |g| - lam off it
        met = (np.abs(grad + pen * orthant) - pen * ~nonzero <= thresh).all()
        if met or len(values) >= budget:
            return omega, values, bool(met)
        z = np.where(nonzero, orthant, -np.sign(grad)) * penalized
        free = (nonzero | (np.abs(grad) > pen))[rows, cols]
        i, j = rows[free], cols[free]
        # In u = D off the diagonal and D / 2 on it, the system's matrix is
        # H_pq = W_ik W_jl + W_il W_jk for pairs p = (i, j), q = (k, l).
        wi, wj = w[i], w[j]
        hess = wi.take(i, 1) * wj.take(j, 1) + wi.take(j, 1) * wj.take(i, 1)
        sign, start = z[i, j], omega[i, j]
        slope = grad[i, j] + lam * sign
        u = _pinned_solve(hess, slope, sign, start, -start)
        if slope @ u >= 0.0:
            u = _pinned_solve(hess, slope, sign, start, 0.0)
        move = np.zeros_like(omega)
        move[i, j] = move[j, i] = np.where(i == j, 2.0 * u, u)
        rise = -2.0 * float(slope @ u)  # the objective's slope along move
        for t in _STEP_LENGTHS:
            trial = omega + t * move
            low, info = dpotrf(trial, lower=1, clean=1)
            new = _objective(s, trial, lam, low) if info == 0 else -np.inf
            if new >= value + 1e-4 * t * rise:
                omega, w = trial, dpotri(low, lower=1)[0]  # w: lower half, zeros above
                w = w + w.T - np.diag(w.diagonal())
                break
        value = _penalized_objective(s, omega, lam)  # perfbench's counted sweep
        values.append(value)


def _components(adj):
    """Connected components of the symmetric boolean adjacency ``adj``.

    Starting from ``adj`` with self-loops, each squaring of the 0/1
    reachability matrix doubles the path length it covers, until nothing
    changes: about log2 of the graph's diameter squarings.  Its entries are
    small integer counts, so every product is exact.  Each component is a
    sorted index array, and they come in the order of their smallest members.
    """
    reach = (adj | np.eye(len(adj), dtype=bool)).astype(float)
    while True:
        wider = np.minimum(reach @ reach, 1.0)
        if (wider == reach).all():
            break
        reach = wider
    # a component's smallest member is the one that reaches no smaller index
    roots = np.flatnonzero(~np.tril(reach, -1).any(axis=1))
    return [np.flatnonzero(reach[r]) for r in roots]


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
    components; only the KKT gate says whether the run converged, and a run
    that did not returns its last iterate with a warning.

    Returns ``(omega, objectives, components, converged)``: the estimate, whose
    blocks hold each component's last step, the whole-matrix objective after
    each accepted step (never falling), the sorted components and the verdict.
    """
    s = np.asarray(s, dtype=float)
    if s.ndim != 2 or s.shape[0] != s.shape[1]:
        raise ValueError("S must be square")
    if not np.isfinite(s).all():
        raise ValueError("S must be finite")
    # np.allclose(s, s.T, atol=1e-10), without its overhead, on finite S
    if not (np.abs(s - s.T) <= 1e-10 + 1e-5 * np.abs(s.T)).all():
        raise ValueError("S must be symmetric")
    diag = s.diagonal()
    if (diag <= 0).any():
        raise ValueError("S must have a positive diagonal")
    if not lam >= 0:  # NaN fails this too
        raise ValueError("penalty must be >= 0")
    if not 0 < tol < np.inf:
        raise ValueError(f"tol must be finite and > 0, got {tol!r}")
    check_integer(max_iter, "max_iter")
    if max_iter < 0:
        raise ValueError(f"max_iter must be >= 0, got {max_iter}")
    omega, objectives, converged = np.diag(1.0 / diag), [], True
    thresh = tol * (lam if lam > 0 else float(np.max(np.abs(s))))
    alone = -np.log(diag) - 1.0  # objective of each expert at O_ii = 1/S_ii
    components = _components(np.abs(s) > lam)
    for comp in [c for c in components if c.size > 1]:
        block = np.ix_(comp, comp)
        rest = (objectives[-1] if objectives else alone.sum()) - alone[comp].sum()
        omega[block], values, met = _newton(
            s[block], lam, thresh, max_iter - len(objectives))
        converged &= met
        objectives.extend(rest + value for value in values)
    if not converged:
        message = f"graphical lasso did not converge in {max_iter} Newton steps"
        warnings.warn(message, RuntimeWarning, stacklevel=2)
    return omega, objectives, components, converged


def rank_importance(omega):
    """Total absolute off-diagonal precision per expert, and the ranking.

    Returns ``(importance, order)``; order lists expert indices by descending
    importance with ties broken by ascending index.
    """
    omega = np.asarray(omega, dtype=float)
    importance = np.sum(np.abs(omega), axis=1) - np.abs(np.diagonal(omega))
    order = np.lexsort((np.arange(omega.shape[0]), -importance))
    return importance, order


def select_experts(order, alpha: float) -> np.ndarray:
    """Sorted indices of the ceil(alpha * m) first of the m experts in ``order``."""
    if not 0.0 < alpha <= 1.0:
        raise ValueError("alpha must be in (0, 1]")
    # Guard ceil against float dust in alpha * m (e.g. 0.1 * 3).
    keep = min(max(math.ceil(alpha * len(order) - 1e-12), 1), len(order))
    return np.sort(np.asarray(order[:keep], dtype=int))


def expert_graph(
    ensemble: ExpertEnsemble, xs, lam: float = 0.1, alpha: float = 1.0
) -> ExpertGraph:
    """Estimate the expert graph at penalty ``lam``; keep the top ``alpha``.

    The graphical lasso runs at its default ``tol`` and gets
    ``max_iter=GLASSO_MAX_ITER`` by keyword.  ``lam`` is absolute, not
    relative to the scale of S: it is in units of the target variance,
    which is 1 under :func:`~gpexperts.bench.run_experiment`'s normalized
    targets.  S grows with the square of the targets' scale, so an
    ensemble built by hand on targets of variance v behaves as if ``lam``
    were lam / v on normalized ones.
    """
    cov = prediction_covariance(ensemble, xs)
    omega, history, components, converged = graphical_lasso(
        cov, lam, max_iter=GLASSO_MAX_ITER)
    importance, order = rank_importance(omega)
    selected = select_experts(order, alpha)
    return ExpertGraph(cov, omega, importance, order, selected, len(history),
                       converged, components)

