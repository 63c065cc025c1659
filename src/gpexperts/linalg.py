"""Shared dense linear-algebra helpers with explicit failure policies."""

import numpy as np
from scipy.linalg import eigh
from scipy.linalg.blas import dsyrk, dtrmm, dtrmv
from scipy.linalg.lapack import dpotrf, dtrtri

# Blocks of at most this order are factored and inverted by LAPACK dpotrf and
# dtrtri whole: below it, the Python overhead of the recursion in
# chol_with_jitter outweighs its TRMM/SYRK speed.
TRI_INV_LEAF = 128

# Column width of the panel passes over one triangle of an n x n buffer.
PANEL = 128


class SingularMatrixError(np.linalg.LinAlgError):
    """Raised when a matrix stays non-factorizable after jitter escalation."""


def chol_with_jitter(a, maximum=1e-4, scale=None, shift=0.0):
    """Inverse Cholesky factor W = L^{-1} of symmetric ``a + shift * I``.

    C = a + shift * I is read on and below the diagonal of ``a``, and W is
    written there: in place when ``a`` is a Fortran-ordered float64 array,
    in a Fortran-ordered copy otherwise.  The strict upper triangle is never
    written.  The first attempt uses no jitter.  On failure, the lower
    triangle is rebuilt from the strict upper one and the original diagonal,
    ``1e-10 * s`` is added to the diagonal, where ``s`` is ``scale`` or,
    when that is None, the mean of the shifted diagonal, and the jitter
    grows tenfold per retry until it would exceed ``maximum * s``.

    Returns ``(W, jitter)``: the array holding W in its lower triangle, and
    the jitter actually applied (0.0 for a clean factorization).  Raises
    :class:`SingularMatrixError` once the ladder is exhausted, or when W's
    diagonal is not finite and positive, which any NaN or infinity in C's
    lower triangle leads to.
    """
    a = np.asarray(a, dtype=float)
    if not a.flags.f_contiguous:
        # For symmetric a, the flat copy of a.T is a in Fortran order.
        a = np.array(a.T, order="F")
    diag = a.diagonal() + shift
    a_diag = a.T.reshape(-1)[:: a.shape[0] + 1]  # a.T is C-contiguous: a view
    a_diag[...] = diag
    jitter = 0.0
    while not _factor_invert(a):
        if jitter == 0.0:
            if scale is None:
                scale = float(diag.mean())
            if not np.isfinite(scale) or scale <= 0.0:
                scale = 1.0
            jitter = 1e-10 * scale
        else:
            jitter *= 10.0
        if jitter > maximum * scale * (1.0 + 1e-12):
            raise SingularMatrixError(
                f"Cholesky failed at jitter {jitter:.3e} (scale {scale:.3e})"
            )
        _mirror_upper(a)
        a_diag[...] = diag + jitter
    if not (a_diag.min() > 0.0 and a_diag.max() < np.inf):
        raise SingularMatrixError(
            "non-finite matrix: its inverse Cholesky factor has a diagonal "
            "that is not finite and positive"
        )
    return a, jitter


def _factor_invert(a):
    """Overwrite the lower triangle of C with W = L^{-1}; False on a failed pivot.

    ``a`` is square and Fortran-contiguous.  With C = [[C11, .], [C21, C22]]
    and W11 = L11^{-1} from the leading block, L21 = C21 W11^T (BLAS
    ``dtrmm``), the trailing block recurses on S = C22 - L21 L21^T (``dsyrk``)
    and W21 = -W22 L21 W11 (two ``dtrmm``), so no triangular solve runs
    (Elmroth, Gustavson, Jonsson & Kagstrom, SIAM Review 2004).  SciPy's BLAS
    wrappers take contiguous blocks, so each block is copied in and out, at
    most two half-order blocks at a time; the copies carry the strict upper
    triangle through unchanged.  Blocks of order at most ``TRI_INV_LEAF``
    go to LAPACK ``dpotrf`` + ``dtrtri``.
    """
    n = a.shape[0]
    if n <= TRI_INV_LEAF:
        _, info = dpotrf(a, lower=1, clean=0, overwrite_a=1)
        if info == 0:
            _, info = dtrtri(a, lower=1, overwrite_c=1)
        return info == 0
    h = n // 2
    w11 = np.array(a[:h, :h], order="F")
    if not _factor_invert(w11):
        return False
    l21 = dtrmm(1.0, w11, a[h:, :h], side=1, lower=1, trans_a=1)
    a[:h, :h] = w11
    del w11
    s = dsyrk(-1.0, l21, beta=1.0, c=a[h:, h:], lower=1)
    a[h:, :h] = l21
    del l21
    if not _factor_invert(s):
        return False
    w21 = dtrmm(-1.0, s, a[h:, :h], lower=1)
    a[h:, h:] = s
    del s
    w11 = np.array(a[:h, :h], order="F")
    a[h:, :h] = dtrmm(1.0, w11, w21, side=1, lower=1, overwrite_b=1)
    return True


def _mirror_upper(a):
    """Copy the strict upper triangle of square ``a`` onto its lower one."""
    n = a.shape[0]
    for j0 in range(0, n, PANEL):
        j1 = min(j0 + PANEL, n)
        a[j1:, j0:j1] = a[j0:j1, j1:].T
        block = a[j0:j1, j0:j1]
        np.copyto(block, block.T.copy(), where=np.tri(j1 - j0, k=-1, dtype=bool))


def solve_spd(w, b):
    """Solve ``C x = b`` given W = L^{-1} in the lower triangle of ``w``.

    With C = L L^T, x = W^T (W b): two BLAS triangular products.
    """
    b = np.asarray(b, dtype=float)
    if b.ndim == 1:
        return dtrmv(w, dtrmv(w, b, lower=1), lower=1, trans=1, overwrite_x=1)
    return dtrmm(1.0, w, dtrmm(1.0, w, b, lower=1), lower=1, trans_a=1, overwrite_b=1)


def solve_psd_robust(a, b):
    """Solve ``a x = b`` for symmetric PSD ``a`` that may be singular.

    Tries Cholesky with jitter escalating from 1e-10 to 1e-6 of the max
    diagonal entry; if the matrix never factorizes, falls back to an
    eigendecomposition pseudo-inverse that drops eigenvalues below
    ``n * eps * lambda_max``.

    This is the tests' reference solve, kept here because perfbench's tracer
    wraps it by name; NPAE factors by deflation instead (see
    :mod:`gpexperts.npae`).
    """
    a = np.asarray(a, dtype=float)
    top = float(np.max(np.diagonal(a)))
    # a non-positive diagonal leaves nothing to scale jitter against
    if top > 0.0:
        try:
            w, _ = chol_with_jitter(np.array(a, order="F"), maximum=1e-6, scale=top)
            return solve_spd(w, b)
        except SingularMatrixError:
            pass
    w, v = eigh(a, check_finite=False)
    cutoff = a.shape[0] * np.finfo(float).eps * max(float(w.max()), 0.0)
    keep = w > cutoff
    if not np.any(keep):
        return np.zeros_like(np.asarray(b, dtype=float))
    vk = v[:, keep]
    return vk @ ((vk.T @ b).T / w[keep]).T
