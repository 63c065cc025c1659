"""Shared dense linear-algebra helpers with explicit failure policies."""

import numpy as np
from scipy.linalg import eigh
from scipy.linalg.lapack import dpotrf, dpotrs


class SingularMatrixError(np.linalg.LinAlgError):
    """Raised when a matrix stays non-factorizable after jitter escalation."""


def chol_with_jitter(a, initial=1e-10, maximum=1e-4, stat="mean", shift=0.0):
    """Lower Cholesky factor of symmetric ``a + shift * I``, with jitter.

    The first attempt uses no jitter.  On failure, ``initial * s`` is added
    to the diagonal, where ``s`` is the mean (or max) of the shifted
    diagonal, and the jitter grows tenfold per retry until it would exceed
    ``maximum * s``.  Each attempt factors a fresh Fortran-ordered copy in
    place with LAPACK ``dpotrf``; ``a`` itself is never written to.

    Returns ``(L, jitter)``, L zero above its diagonal, with the jitter
    actually applied (0.0 for a clean factorization).  Raises
    :class:`SingularMatrixError` once the ladder is exhausted.
    """
    a = np.asarray(a, dtype=float)
    diag = a.diagonal() + shift
    scale = float(diag.mean() if stat == "mean" else diag.max())
    if not np.isfinite(scale) or scale <= 0.0:
        scale = 1.0
    jitter = 0.0
    while True:
        # For symmetric a, the flat copy of a.T is a in Fortran order.
        low = np.array(a.T, order="F")
        np.fill_diagonal(low, diag + jitter)
        low, info = dpotrf(low, lower=1, overwrite_a=1)
        if info == 0:
            return low, jitter
        jitter = initial * scale if jitter == 0.0 else jitter * 10.0
        if jitter > maximum * scale * (1.0 + 1e-12):
            raise SingularMatrixError(
                f"Cholesky failed at jitter {jitter:.3e} (scale {scale:.3e})"
            )


def solve_spd(low, b):
    """Solve ``a x = b`` given the lower Cholesky factor of ``a``."""
    x, info = dpotrs(low, b, lower=1)
    if info != 0:
        raise ValueError(f"dpotrs failed with info {info}")
    return x


def solve_psd_robust(a, b, initial=1e-10, maximum=1e-6):
    """Solve ``a x = b`` for symmetric PSD ``a`` that may be singular.

    Tries Cholesky with escalating jitter (scaled by the max diagonal entry);
    if the matrix never factorizes, falls back to an eigendecomposition
    pseudo-inverse that drops eigenvalues below ``n * eps * lambda_max``.

    This is a reference solve for the tests; NPAE no longer calls it, since
    its deflating Cholesky keeps the far experts that this jitter and cut
    would wipe out (see :mod:`gpexperts.npae`).
    """
    a = np.asarray(a, dtype=float)
    # a non-positive diagonal leaves nothing to scale jitter against
    if float(np.max(np.diagonal(a))) > 0.0:
        try:
            low, _ = chol_with_jitter(a, initial=initial, maximum=maximum, stat="max")
            return solve_spd(low, b)
        except SingularMatrixError:
            pass
    w, v = eigh(a, check_finite=False)
    cutoff = a.shape[0] * np.finfo(float).eps * max(float(w.max()), 0.0)
    keep = w > cutoff
    if not np.any(keep):
        return np.zeros_like(np.asarray(b, dtype=float))
    vk = v[:, keep]
    return vk @ ((vk.T @ b).T / w[keep]).T
