"""Shared dense linear-algebra helpers with explicit failure policies."""

import numpy as np
from scipy.linalg import eigh
from scipy.linalg.lapack import dpotrf, dpotrs, dtrtri

# Triangles of at most this order go to LAPACK dtrtri whole: below it, the
# Python overhead of tri_inv's recursion outweighs its GEMM speed.
TRI_INV_LEAF = 128


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


def tri_inv(low):
    """Invert a lower-triangular factor in place; returns ``low``.

    ``low`` must be zero above its diagonal and is best Fortran-ordered, as
    LAPACK returns it.  With low = [[A, 0], [B, C]], the inverse is
    [[A^-1, 0], [-C^-1 B A^-1, C^-1]]: both diagonal blocks are inverted
    recursively, then B is updated by two GEMMs on views, so most of the
    work runs at matrix-multiply speed rather than at the speed of LAPACK
    ``dtrtri``.  The zero block above the diagonal is the scratch output of
    the first product and is zeroed again afterwards, so no half-size block
    is copied.  Blocks of order at most ``TRI_INV_LEAF`` go to ``dtrtri``
    (a leaf that is not contiguous is copied).  Raises
    :class:`SingularMatrixError` on a zero pivot.
    """
    n = low.shape[0]
    if n <= TRI_INV_LEAF:
        inv, info = dtrtri(low, lower=1, overwrite_c=1)
        if info != 0:
            raise SingularMatrixError(f"dtrtri failed with info {info}")
        if inv is not low:
            low[...] = inv
        return low
    h = n // 2
    a, b, c, scratch = low[:h, :h], low[h:, :h], low[h:, h:], low[:h, h:]
    tri_inv(a)
    tri_inv(c)
    np.matmul(a.T, b.T, out=scratch)  # (B A^-1)^T
    np.matmul(c, scratch.T, out=b)
    np.negative(b, out=b)
    scratch[...] = 0.0
    return low


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
