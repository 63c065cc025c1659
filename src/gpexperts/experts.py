"""Local GP experts trained jointly on a partition of the data.

All experts share one hyperparameter vector, trained by maximizing the sum of
the per-partition log marginal likelihoods (the factorized approximation to
the full-data evidence).  With a single part this reduces exactly to
:func:`gpexperts.gp.fit`.  Each expert is a :class:`gpexperts.gp.GpModel`.
"""

from dataclasses import dataclass, field

import numpy as np

from .gp import (
    GpModel,
    PredictiveDist,
    TrainingInfo,
    _member_pass,
    _member_weights,
    _optimize_shared,
    _prepare_xy,
    default_init,
    factorize,
    gp_predict,
)
from .kernels import Hyperparams
from .partition import Partitioning


@dataclass
class ExpertEnsemble:
    """All experts plus the shared hyperparameters.

    ``experts`` holds one :class:`gpexperts.gp.GpModel` per part, with its
    part's rows; the partitioning itself stays with the caller.  ``training``
    describes the optimizer run that chose ``hp``.  ``_memo`` holds the last
    test set, the means, c and, per expert, v_i^T, or w_i^T once
    :meth:`npae_moments` has made it read-only (see :meth:`moments`).

    NPAE's covariance of the expert means is exact only when the parts are
    disjoint, as :func:`train_ensemble` builds them; an ensemble built by
    hand with overlapping parts gets an overconfident NPAE (see
    :mod:`gpexperts.npae`).  Nothing checks the parts.
    """

    experts: list
    hp: Hyperparams
    training: TrainingInfo | None = None
    _memo: tuple | None = field(default=None, init=False, repr=False, compare=False)

    @property
    def n_experts(self) -> int:
        return len(self.experts)

    def subset_or_all(self, subset) -> np.ndarray:
        """Validate an expert index subset; None means every expert."""
        if subset is None:
            return np.arange(self.n_experts)
        subset = np.asarray(subset)
        if subset.size == 0:
            raise ValueError("expert subset is empty")
        if subset.dtype.kind not in "iu":
            raise ValueError(f"expert subset must be integers, not {subset.dtype}")
        if np.unique(subset).size != subset.size:
            raise ValueError("expert subset has duplicates")
        if subset.min() < 0 or subset.max() >= self.n_experts:
            raise ValueError("expert subset index out of range")
        return subset

    def moments(self, xs, subset=None):
        """Member posterior means and c_i = ||v_i||^2 at ``xs``, each (t, m).

        One column per expert of ``subset`` (None: all), in its order;
        :func:`gpexperts.gp._latent_variance` turns c_i into a variance.  The
        last test set is kept as a private copy, compared by value, so each
        expert is predicted at most once per test set; a new one replaces it
        once its first member pass accepts it.  The memo keeps the means, c_i
        and v_i^T = (L_i^{-1} k(X_i, xs))^T for :meth:`npae_moments`, even when
        no NPAE follows: sum_i n_i * t floats until :meth:`forget` or new ``xs``.
        """
        subset = self.subset_or_all(subset)
        xs, memo = np.asarray(xs, dtype=float), self._memo
        if memo is None or not np.array_equal(xs, memo[0]):
            shape = (xs.shape[0], self.n_experts)
            memo = (xs.copy(), np.empty(shape), np.empty(shape), [None] * shape[1])
        xs, means, target_cov, vts = memo
        for i in [i for i in subset if vts[i] is None]:
            means[:, i], vts[i], target_cov[:, i] = _member_pass(self.experts[i], xs)
            self._memo = memo
        # Fancy-indexed columns come back Fortran-ordered; row sums over
        # them would round differently from sums over stacked columns.
        return (np.ascontiguousarray(means[:, subset]),
                np.ascontiguousarray(target_cov[:, subset]))

    def npae_moments(self, xs, subset=None):
        """:meth:`moments` at ``xs`` and the memo's read-only
        w_i = L_i^{-T} v_i = C_i^{-1} k(X_i, xs), (n_i, t), per expert of
        ``subset``.  :func:`gpexperts.gp._member_weights` turns v_i into w_i
        in place on first request, so only the rules that read w_i pay it:
        NPAE for its subset, grbcm for its base expert.
        """
        means, target_cov = self.moments(xs, subset)
        subset, vts = self.subset_or_all(subset), self._memo[3]
        for i in [i for i in subset if vts[i].flags.writeable]:
            w_t = _member_weights(self.experts[i], vts[i])
            w_t.flags.writeable, vts[i] = False, w_t
        return means, target_cov, [vts[i].T for i in subset]

    def forget(self):
        """Drop the memo and the sum_i n_i * t floats of its v_i and w_i."""
        self._memo = None


def train_ensemble(
    x,
    y,
    partitioning: Partitioning,
    restarts: int = 1,
    seed=0,
) -> ExpertEnsemble:
    """Fit shared hyperparameters across all parts, starting from
    :func:`~gpexperts.gp.default_init`, then factorize each expert on its
    part's rows.  The ensemble does not keep ``partitioning``."""
    x, y = _prepare_xy(x, y)
    if partitioning.assignments.shape[0] != x.shape[0]:
        raise ValueError("partitioning does not cover the training set")
    parts = [
        (x[idx], y[idx])
        for idx in (partitioning.indices(i) for i in range(partitioning.n_parts))
    ]
    hp, info = _optimize_shared(parts, default_init(x), restarts, seed)
    experts = [factorize(px, py, hp) for px, py in parts]
    return ExpertEnsemble(experts, hp, info)


def expert_predict(expert: GpModel, xs) -> PredictiveDist:
    """:func:`gpexperts.gp.gp_predict` on one expert; kept for perfbench's tracer."""
    return gp_predict(expert, xs)
