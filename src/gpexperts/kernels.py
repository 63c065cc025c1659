"""Anisotropic squared-exponential kernel and its hyperparameter gradients.

The kernel is

    k(x, x') = signal_variance * exp(-0.5 * sum_d (x_d - x'_d)^2 / lengthscales[d])

with one positive lengthscale per input dimension (note the lengthscales act
on squared distances, i.e. they carry squared-length units).  Gradients are
taken with respect to log-hyperparameters so that optimizers can work on an
unconstrained vector; see :meth:`Hyperparams.to_log_vector` for the layout.

:func:`kernel_matrix` picks its method by D alone.  In 1-D it squares the
outer difference of the scaled points: the same (u - v)^2 per pair, bit for
bit, as ``cdist``'s squared Euclidean distance, without its call overhead.
There the GEMM form below is slower on small parts and less exact.  With
D >= 2, for a and b the rows of x and x2, less x's mean, over sqrt(l), one
GEMM of [a, log sf2 - |a|^2/2, 1] and [b, 1, -|b|^2/2] gives log K, then a
clip at log sf2 and an exp.  Its error in log k is a few ulps of |a|^2 + |b|^2, and
an entry may move by a few ulps with the other rows of x2 in the call, as
BLAS orders its sums by block shape.
"""

from dataclasses import dataclass

import numpy as np

from .linalg import _mirror_upper


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

    @staticmethod
    def from_log_vector(theta) -> "Hyperparams":
        theta = np.asarray(theta, dtype=float)
        vals = np.exp(theta)
        return Hyperparams(float(vals[0]), vals[1:-1].copy(), float(vals[-1]))


def as_points(x) -> np.ndarray:
    """Inputs as an (n, D) float array: a 1-D array is n points of one input."""
    x = np.asarray(x, dtype=float)
    return x[:, None] if x.ndim == 1 else x


def kernel_matrix(x, x2, hp: Hyperparams) -> np.ndarray:
    """Cross-kernel matrix of shape (n, m), C-ordered, for row sets ``x`` and ``x2``.

    Bitwise symmetric for ``x2 is x``, with the diagonal exactly signal_variance.
    In 1-D each entry comes from its own pair alone, as signal_variance *
    exp(-0.5 * (u - v)^2) of the scaled points u and v, so identical rows
    give signal_variance exactly.
    """
    same = x2 is x
    x, x2 = as_points(x), as_points(x2)
    if x.shape[1] != x2.shape[1]:
        raise ValueError(f"input dims differ: {x.shape[1]} vs {x2.shape[1]}")
    if x.shape[1] != hp.dim:
        raise ValueError(f"inputs have dim {x.shape[1]}, hyperparams have {hp.dim}")
    scale = 1.0 / np.sqrt(hp.lengthscales)
    if x.shape[1] == 1:
        k = np.subtract.outer(x[:, 0] * scale, x2[:, 0] * scale)
        k *= k
        k *= -0.5
        np.exp(k, out=k)
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
    if same:
        _mirror_upper(k)
        k.reshape(-1)[:: k.shape[0] + 1] = hp.signal_variance
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
