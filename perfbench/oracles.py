"""Independent correctness oracles, written with NumPy alone.

Nothing here calls a ``gpexperts`` solver: kernels, posteriors, fusion
rules, NPAE's covariance pieces, the graphical-lasso optimality conditions,
the selection rule and the likelihood are all recomputed from their
formulas with dense NumPy linear algebra.  Every ``check_*`` function
returns a list of problems; an empty list means the output passed.
"""

import math

import numpy as np

# Agreement required between the package and a dense NumPy recomputation.
RTOL = 1e-6


def kernel(a, b, hp):
    """Squared-exponential kernel, lengthscales dividing squared distances."""
    a = np.atleast_2d(a)
    b = np.atleast_2d(b)
    d2 = np.zeros((a.shape[0], b.shape[0]))
    for d in range(a.shape[1]):
        d2 += (a[:, d, None] - b[None, :, d]) ** 2 / hp.lengthscales[d]
    return hp.signal_variance * np.exp(-0.5 * d2)


def posterior(x, y, hp, xs):
    """Latent posterior mean and variance at ``xs`` by a dense solve."""
    c = kernel(x, x, hp) + hp.noise_variance * np.eye(x.shape[0])
    ks = kernel(x, xs, hp)
    sol = np.linalg.solve(c, np.column_stack([y, ks]))
    mean = ks.T @ sol[:, 0]
    var = hp.signal_variance - np.sum(ks * sol[:, 1:], axis=0)
    return mean, var


def _compare(label, got, want, scale, slack=0.0):
    got = np.asarray(got, dtype=float)
    err = np.abs(got - want)
    tol = (RTOL + slack) * (scale + np.abs(want))
    if not np.all(np.isfinite(got)):
        return [f"{label}: non-finite values"]
    if np.any(err > tol):
        k = int(np.argmax(err - tol))
        return [f"{label}: off by {err[k]:.3e} at sample {k} (want {want[k]:.6g})"]
    return []


def sample_points(n_points: int, count: int = 16) -> np.ndarray:
    """Evenly spread test-point indices, ends included."""
    return np.unique(np.linspace(0, n_points - 1, min(count, n_points)).astype(int))


def check_fullgp(x, y, hp, xs, means, variances):
    """Full-GP mean and latent variance against a dense solve."""
    mean, var = posterior(x, y, hp, xs)
    return _compare("fullgp mean", means, mean, 1.0) + _compare(
        "fullgp variance", variances, var, hp.signal_variance
    )


def expert_posteriors(blocks, hp, xs):
    """(t, m) means and latent variances of each (x, y) block at ``xs``."""
    pairs = [posterior(x, y, hp, xs) for x, y in blocks]
    return (
        np.column_stack([p[0] for p in pairs]),
        np.column_stack([p[1] for p in pairs]),
    )


def fuse_committee(means, variances, hp, rule):
    """poe, gpoe, bcm and rbcm by their precision formulas.

    poe adds expert precisions; gpoe takes their mean (weights 1/m); bcm
    adds them and corrects by (1 - m) / prior; rbcm weights each expert by
    its entropy gain over the prior, clipped at 0.  The prior is the
    observation-space variance k(x, x) + noise.
    """
    prior = hp.signal_variance + hp.noise_variance
    m = variances.shape[1]
    if rule == "poe":
        beta, correct = np.ones_like(variances), False
    elif rule == "gpoe":
        beta, correct = np.full_like(variances, 1.0 / m), False
    elif rule == "bcm":
        beta, correct = np.ones_like(variances), True
    elif rule == "rbcm":
        beta = np.maximum(0.5 * (math.log(prior) - np.log(variances)), 0.0)
        correct = True
    else:
        raise ValueError(f"no committee oracle for {rule!r}")
    precision = np.sum(beta / variances, axis=1)
    if correct:
        precision = precision + (1.0 - beta.sum(axis=1)) / prior
    mean = np.sum(beta * means / variances, axis=1) / precision
    return mean, 1.0 / precision


def check_committee(rule, means, variances, hp, fused_means, fused_variances):
    """A committee rule's output against precision fusion of oracle posteriors."""
    mean, var = fuse_committee(means, variances, hp, rule)
    return _compare(f"{rule} mean", fused_means, mean, 1.0) + _compare(
        f"{rule} variance", fused_variances, var, float(np.max(var))
    )


def npae_moments(blocks, hp, xs):
    """NPAE's c (t, m), M (t, m, m) and expert means mu (t, m) at ``xs``.

    c_i = k_i^T C_i^-1 k_i, M_ij = w_i^T K(X_i, X_j) w_j with
    w_i = C_i^-1 k_i, and M_ii = c_i because C_i carries the noise diagonal.
    """
    ws, mus = [], []
    for x, y in blocks:
        c = kernel(x, x, hp) + hp.noise_variance * np.eye(x.shape[0])
        ks = kernel(x, xs, hp)
        sol = np.linalg.solve(c, np.column_stack([y, ks]))
        mus.append(ks.T @ sol[:, 0])
        ws.append((ks, sol[:, 1:]))
    m, t = len(blocks), xs.shape[0]
    target = np.column_stack([np.sum(k * w, axis=0) for k, w in ws])
    mean_cov = np.empty((t, m, m))
    for i in range(m):
        mean_cov[:, i, i] = target[:, i]
        for j in range(i + 1, m):
            kij = kernel(blocks[i][0], blocks[j][0], hp)
            cov = np.sum((kij.T @ ws[i][1]) * ws[j][1], axis=0)
            mean_cov[:, i, j] = cov
            mean_cov[:, j, i] = cov
    return target, mean_cov, np.column_stack(mus)


def npae_fuse(target, mean_cov, mus, prior):
    """mean = c^T M^-1 mu and variance = prior - c^T M^-1 c, point by point.

    Also returns each M's condition number: far from an expert's data its
    weights vanish, M becomes numerically singular, and any two solvers
    agree only to about cond(M) * eps.
    """
    t = target.shape[0]
    mean, var, cond = np.empty(t), np.empty(t), np.empty(t)
    for p in range(t):
        rhs = np.column_stack([mus[p], target[p]])
        try:
            sol = np.linalg.solve(mean_cov[p], rhs)
        except np.linalg.LinAlgError:
            sol = np.linalg.lstsq(mean_cov[p], rhs, rcond=None)[0]
        mean[p] = target[p] @ sol[:, 0]
        var[p] = prior - target[p] @ sol[:, 1]
        cond[p] = np.linalg.cond(mean_cov[p])
    return mean, var, cond


def check_npae(blocks, hp, xs, means, variances):
    """NPAE's output against c, M and mu rebuilt from the kernel formula."""
    target, mean_cov, mus = npae_moments(blocks, hp, xs)
    mean, var, cond = npae_fuse(target, mean_cov, mus, hp.signal_variance)
    var = np.clip(var, 0.0, hp.signal_variance)
    slack = 10.0 * np.finfo(float).eps * np.nan_to_num(cond, nan=np.inf, posinf=1e300)
    return _compare("npae mean", means, mean, 1.0, slack) + _compare(
        "npae variance", variances, var, hp.signal_variance, slack
    )


def check_npae_bounds(variances, member_variances, prior, tol=1e-6):
    """NPAE variance lies in [0, prior] and under every member's variance."""
    problems = []
    if np.any(variances < 0) or np.any(variances > prior * (1 + tol)):
        problems.append("npae variance outside [0, prior]")
    floor = np.min(member_variances, axis=1)
    excess = variances - floor
    if np.any(excess > tol * prior):
        problems.append(
            f"npae variance exceeds the smallest member variance by "
            f"{float(np.max(excess)):.3e}"
        )
    return problems


def check_sample_cov(expert_means, sample_cov):
    """S is the zero-mean second moment of the expert means."""
    want = expert_means.T @ expert_means / expert_means.shape[0]
    return _compare("sample covariance", np.ravel(sample_cov), np.ravel(want),
                    float(np.max(np.abs(want))))


def check_glasso(s, omega, lam, tol):
    """KKT conditions of max log det O - tr(S O) - lam * |offdiag O|_1.

    With W = O^-1: diag W = diag S; |W_ij - S_ij| <= lam off the diagonal;
    and W_ij - S_ij = lam * sign(O_ij) wherever O_ij != 0, each up to
    ``tol``.
    """
    problems = []
    s = np.asarray(s, dtype=float)
    omega = np.asarray(omega, dtype=float)
    if not np.allclose(omega, omega.T, rtol=0.0, atol=1e-12 * np.max(np.abs(omega))):
        problems.append("precision is not symmetric")
    eig = np.linalg.eigvalsh(omega)
    if eig[0] <= 0:
        return problems + ["precision is not positive definite"]
    w = np.linalg.inv(omega)
    gap = w - s
    off = ~np.eye(s.shape[0], dtype=bool)
    diag_err = float(np.max(np.abs(np.diagonal(gap))))
    if diag_err > tol:
        problems.append(f"diag W differs from diag S by {diag_err:.3e}")
    bound_err = float(np.max(np.abs(gap[off]) - lam, initial=0.0))
    if bound_err > tol:
        problems.append(f"|W - S| exceeds lambda by {bound_err:.3e} off the diagonal")
    active = off & (omega != 0.0)
    if np.any(active):
        sign_err = float(np.max(np.abs(gap[active] - lam * np.sign(omega[active]))))
        if sign_err > tol:
            problems.append(f"W - S misses lambda*sign(O) on an edge by {sign_err:.3e}")
    return problems


def check_selection(omega, alpha, selected, order=None):
    """The kept set is the top ceil(alpha*m) experts by off-diagonal mass."""
    omega = np.asarray(omega, dtype=float)
    m = omega.shape[0]
    mass = np.abs(omega).sum(axis=1) - np.abs(np.diagonal(omega))
    ranked = sorted(range(m), key=lambda i: (-mass[i], i))
    keep = min(max(math.ceil(alpha * m - 1e-12), 1), m)
    problems = []
    if sorted(ranked[:keep]) != sorted(int(i) for i in selected):
        problems.append(f"kept {sorted(int(i) for i in selected)}, want {sorted(ranked[:keep])}")
    if order is not None and list(ranked) != [int(i) for i in order]:
        problems.append("importance order differs from the off-diagonal mass ranking")
    return problems


def log_likelihood(x, y, theta):
    """Log evidence at log-hyperparameters [log sf2, log ls..., log sn2]."""
    vals = np.exp(theta)
    sf2, ls, sn2 = vals[0], vals[1:-1], vals[-1]
    d2 = np.zeros((x.shape[0], x.shape[0]))
    for d in range(x.shape[1]):
        d2 += (x[:, d, None] - x[None, :, d]) ** 2 / ls[d]
    c = sf2 * np.exp(-0.5 * d2) + sn2 * np.eye(x.shape[0])
    sign, logdet = np.linalg.slogdet(c)
    return -0.5 * float(y @ np.linalg.solve(c, y)) - 0.5 * logdet - 0.5 * x.shape[0] * math.log(
        2.0 * math.pi
    )


def check_gradient(x, y, theta, value, grad, h=1e-5, tol=1e-4):
    """An analytic likelihood value and gradient against central differences."""
    problems = []
    want = log_likelihood(x, y, theta)
    if abs(value - want) > 1e-8 * (1.0 + abs(want)):
        problems.append(f"likelihood {value:.10g}, dense {want:.10g}")
    for j in range(theta.shape[0]):
        tp, tm = theta.copy(), theta.copy()
        tp[j] += h
        tm[j] -= h
        fd = (log_likelihood(x, y, tp) - log_likelihood(x, y, tm)) / (2.0 * h)
        if abs(grad[j] - fd) > tol * (1.0 + abs(fd)):
            problems.append(f"gradient[{j}] {grad[j]:.8g}, finite difference {fd:.8g}")
    return problems


def smse(y, means):
    return float(np.mean((y - means) ** 2) / np.var(y))

