"""Anisotropic squared-exponential kernel and its hyperparameter gradients.

The kernel is

    k(x, x') = signal_variance * exp(-0.5 * sum_d (x_d - x'_d)^2 / lengthscales[d])

with one positive lengthscale per input dimension (note the lengthscales act
on squared distances, i.e. they carry squared-length units).  Gradients are
taken with respect to log-hyperparameters so that optimizers can work on an
unconstrained vector; see :meth:`Hyperparams.to_log_vector` for the layout.

:func:`kernel_matrix` picks its method by D alone.  In 1-D, with u and v
the scaled points, one K = 2 GEMM of [u, -1] (n x 2) and [1; v] (2 x m)
gives u - v: each entry sums two exact products with a single rounding, so
it is fl(u - v), the same bits as ``np.subtract.outer`` (and as ``cdist``'s
squared distance once squared) under any BLAS summation order, FMA or
thread count, at GEMM speed.  With D >= 2 the difference has D terms, so
the GEMM works on the expansion instead: for a and b the rows of x and x2,
less x's mean, over sqrt(l), one GEMM of [a, log sf2 - |a|^2/2, 1] and
[b, 1, -|b|^2/2] gives log K, then a clip at log sf2 and an exp.  That
expansion is inexact.  Its error in log k is a few ulps of |a|^2 + |b|^2,
and an entry may move by a few ulps with the other rows of x2 in the call,
as BLAS orders its sums by block shape.  So with D >= 2 the self-kernel
``kernel_matrix(x, x, hp)`` is not bitwise symmetric, and its diagonal may
miss signal_variance by those ulps: callers that need either (the
factorizations, through ``gp._self_kernel``) write it themselves.
"""

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Hyperparams:
    """Kernel and noise hyperparameters, all strictly positive.

    Attributes
    ----------
    signal_variance : prior variance of the latent function, k(x, x).
    lengthscales : per-dimension scales dividing squared distances, shape (D,).
    noise_variance : observation noise variance added to the kernel diagonal.
    """

    signal_variance: float
    lengthscales: np.ndarray
    noise_variance: float

    def __post_init__(self):
        ls = np.atleast_1d(np.asarray(self.lengthscales, dtype=float))
        if ls.ndim != 1 or ls.size == 0:
            raise ValueError(
                f"lengthscales must be a non-empty 1-D array, got shape {ls.shape}")
        object.__setattr__(self, "lengthscales", ls)
        # NaN passes every comparison below; infinities are left to them.
        for name, value in (
            ("signal_variance", self.signal_variance),
            ("lengthscales", ls),
            ("noise_variance", self.noise_variance),
        ):
            if np.any(np.isnan(value)):
                raise ValueError(f"{name} must not be NaN")
        if self.signal_variance <= 0 or self.noise_variance < 0:
            raise ValueError("signal variance must be > 0 and noise variance >= 0")
        if np.any(ls <= 0):
            raise ValueError("lengthscales must be > 0")

    # By value; the generated methods would compare and hash the array itself.
    def __eq__(self, other):
        if not isinstance(other, Hyperparams):
            return NotImplemented
        return bool(self.signal_variance == other.signal_variance
                    and self.noise_variance == other.noise_variance
                    and np.array_equal(self.lengthscales, other.lengthscales))

    def __hash__(self):
        return hash((float(self.signal_variance), tuple(self.lengthscales.tolist()),
                     float(self.noise_variance)))

    @property
    def dim(self) -> int:
        return self.lengthscales.shape[0]

    def to_log_vector(self) -> np.ndarray:
        """Pack as [log signal_variance, log lengthscales..., log noise_variance].

        Zero noise (legal for kernel-only use) has no log and is rejected.
        """
        if self.noise_variance == 0:
            raise ValueError("zero noise variance has no log-space value")
        return np.log(
            np.concatenate(
                [[self.signal_variance], self.lengthscales, [self.noise_variance]]
            )
        )


def as_points(x) -> np.ndarray:
    """Inputs as an (n, D) float array: a 1-D array is n points of one input."""
    x = np.asarray(x, dtype=float)
    if x.ndim not in (1, 2):
        raise ValueError(f"inputs must be a 1-D or 2-D array, got shape {x.shape}")
    return x[:, None] if x.ndim == 1 else x


def kernel_matrix(x, x2, hp: Hyperparams) -> np.ndarray:
    """Cross-kernel matrix of shape (n, m), C-ordered, for row sets ``x`` and ``x2``.

    The method depends on D alone, so equal inputs give equal bits, whether
    or not ``x2`` is ``x``.  In 1-D each entry comes from its own pair alone,
    as signal_variance * exp(-0.5 * (u - v)^2) of the scaled points u and v,
    where u - v is a K = 2 GEMM whose single rounding gives fl(u - v)
    exactly.  So the self-kernel is symmetric and identical rows give
    signal_variance exactly.  With D >= 2 it is one GEMM of the inexact
    |a|^2 + |b|^2 expansion, which promises neither (see the module
    docstring).  Inputs must be 1-D or 2-D arrays (see :func:`as_points`).
    """
    x, x2 = as_points(x), as_points(x2)
    if x.shape[1] != x2.shape[1]:
        raise ValueError(f"input dims differ: {x.shape[1]} vs {x2.shape[1]}")
    if x.shape[1] != hp.dim:
        raise ValueError(f"inputs have dim {x.shape[1]}, hyperparams have {hp.dim}")
    scale = 1.0 / np.sqrt(hp.lengthscales)
    if x.shape[1] == 1:  # [u, -1] @ [1; v]: two exact products, one rounding
        a, b = np.full((x.shape[0], 2), -1.0), np.ones((2, x2.shape[0]))
        np.multiply(x[:, 0], scale, out=a[:, 0])
        np.multiply(x2[:, 0], scale, out=b[1])
        k = a @ b
        with np.errstate(over="ignore"):  # inf beyond ~1.3e154 apart; exp(-inf) = 0
            k *= k
        k *= -0.5
        np.exp(k, out=k)
        if hp.signal_variance != 1.0:
            k *= hp.signal_variance
        return k
    log_sf2, shift, lifted = np.log(hp.signal_variance), x.mean(axis=0), []
    for pts, col in ((x, -2), (x2, -1)):  # x's mean bounds the cancellation
        lifted.append(np.ones((pts.shape[0], hp.dim + 2)))
        s = np.multiply(pts - shift, scale, out=lifted[-1][:, :-2])
        lifted[-1][:, col] = -0.5 * np.einsum("ij,ij->i", s, s)
    lifted[0][:, -2] += log_sf2
    k = lifted[0] @ lifted[1].T
    np.exp(np.minimum(k, log_sf2, out=k), out=k)
    return k


def kernel_grad(x, hp: Hyperparams) -> np.ndarray:
    """Gradients of kernel_matrix(x, x, hp) w.r.t. log-hyperparameters.

    Returns an array of shape (1 + D, n, n): slice 0 is dK/dlog(signal_variance)
    (= K itself) and slice 1 + d is dK/dlog(lengthscales[d]).  The noise term
    is not part of K and is handled by the marginal-likelihood code.

    This dense tensor is the tests' reference for the likelihood gradient
    (see :mod:`gpexperts.gp`); it stays here because perfbench's tracer
    wraps it by name.
    """
    x = as_points(x)
    k = kernel_matrix(x, x, hp)  # checks the inputs' dimension
    out = np.empty((1 + hp.dim, x.shape[0], x.shape[0]))
    out[0] = k
    for d in range(hp.dim):
        sqd = (x[:, d, None] - x[None, :, d]) ** 2
        # d/dlog(l_d) of exp(-0.5 * sqd / l_d) multiplies by 0.5 * sqd / l_d.
        out[1 + d] = k * (0.5 * sqd / hp.lengthscales[d])
    return out
