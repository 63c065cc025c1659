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


@dataclass(eq=False)
class ExpertEnsemble:
    """All experts plus the shared hyperparameters.

    ``experts`` holds one :class:`gpexperts.gp.GpModel` per part, with its
    part's rows; the partitioning itself stays with the caller.  ``training``
    describes the optimizer run that chose ``hp``.  ``_memo`` holds the last
    test set and, for every expert, [mean, v_i^T, c_i], where
    :meth:`npae_moments` swaps v_i^T for a read-only w_i^T (see :meth:`moments`).

    NPAE's covariance of the expert means is exact only when the parts are
    disjoint, as :func:`train_ensemble` builds them; an ensemble built by
    hand with overlapping parts gets an overconfident NPAE (see
    :mod:`gpexperts.npae`).  Nothing checks the parts.
    """

    experts: list
    hp: Hyperparams
    training: TrainingInfo | None = None
    _memo: tuple | None = field(default=None, init=False, repr=False)

    @property
    def n_experts(self) -> int:
        return len(self.experts)

    def subset_or_all(self, subset) -> np.ndarray:
        """Validate an expert index subset; None means every expert."""
        if subset is None:
            return np.arange(self.n_experts)
        subset = np.asarray(subset)
        if subset.ndim != 1:
            raise ValueError(
                f"expert subset must be a 1-D array, got shape {subset.shape}")
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
        last test set is kept as a private copy, compared by value; a new one
        runs every expert's member pass, whatever ``subset`` asks, and replaces
        the memo once all have accepted it.  Per expert the memo keeps the
        mean, v_i^T = (L_i^{-1} k(X_i, xs))^T and c_i for :meth:`npae_moments`,
        even when no NPAE follows: sum_i n_i * t floats until :meth:`forget`
        or new ``xs``.
        """
        subset = self.subset_or_all(subset)
        xs = np.asarray(xs, dtype=float)
        if self._memo is None or not np.array_equal(xs, self._memo[0]):
            xs = xs.copy()
            self._memo = (xs, [list(_member_pass(e, xs)) for e in self.experts])
        members = self._memo[1]
        return (np.column_stack([members[i][0] for i in subset]),
                np.column_stack([members[i][2] for i in subset]))

    def npae_moments(self, xs, subset=None):
        """:meth:`moments` at ``xs`` and the memo's read-only
        w_i = L_i^{-T} v_i = C_i^{-1} k(X_i, xs), (n_i, t), per expert of
        ``subset``.  :func:`gpexperts.gp._member_weights` turns v_i into w_i
        in place on first request, so only the rules that read w_i pay it:
        NPAE for its subset, grbcm for its base expert.
        """
        means, target_cov = self.moments(xs, subset)
        subset, members = self.subset_or_all(subset), self._memo[1]
        for i in [i for i in subset if members[i][1].flags.writeable]:
            w_t = _member_weights(self.experts[i], members[i][1])
            w_t.flags.writeable, members[i][1] = False, w_t
        return means, target_cov, [members[i][1].T for i in subset]

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
