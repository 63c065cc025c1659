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
    _optimize_shared,
    _predict_latent,
    _prepare_xy,
    default_init,
    factorize,
)
from .kernels import Hyperparams
from .partition import Partitioning


@dataclass
class ExpertEnsemble:
    """All experts plus the shared hyperparameters and source partitioning.

    ``experts`` holds one :class:`gpexperts.gp.GpModel` per part;
    ``training`` describes the optimizer run that chose ``hp``.
    """

    experts: list
    hp: Hyperparams
    partitioning: Partitioning
    training: TrainingInfo | None = None
    # (test set, means, variances, which columns are filled) of moments()
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
        """Member posterior means and latent variances at ``xs``, as (t, m).

        One column per expert of ``subset`` (None: all), in its order.  The
        last test set is kept as a private copy, compared by value, so each
        expert is predicted at most once per test set.
        """
        subset = self.subset_or_all(subset)
        xs = np.asarray(xs, dtype=float)
        if self._memo is None or not np.array_equal(xs, self._memo[0]):
            shape = (xs.shape[0], self.n_experts)
            self._memo = (xs.copy(), np.empty(shape), np.empty(shape),
                          np.zeros(self.n_experts, dtype=bool))
        xs, means, variances, done = self._memo
        for i in subset[~done[subset]]:
            pred = expert_predict(self.experts[i], xs)
            means[:, i], variances[:, i] = pred.means, pred.variances
            done[i] = True
        # Fancy-indexed columns come back Fortran-ordered; row sums over
        # them would round differently from sums over stacked columns.
        return (np.ascontiguousarray(means[:, subset]),
                np.ascontiguousarray(variances[:, subset]))


def train_ensemble(
    x,
    y,
    partitioning: Partitioning,
    init: Hyperparams | None = None,
    restarts: int = 1,
    seed=0,
) -> ExpertEnsemble:
    """Fit shared hyperparameters across all parts, then factorize each expert."""
    x, y = _prepare_xy(x, y)
    if partitioning.assignments.shape[0] != x.shape[0]:
        raise ValueError("partitioning does not cover the training set")
    if init is None:
        init = default_init(x)
    parts = [
        (x[idx], y[idx])
        for idx in (partitioning.indices(i) for i in range(partitioning.n_parts))
    ]
    hp, info = _optimize_shared(parts, init, restarts, seed)
    experts = [factorize(px, py, hp) for px, py in parts]
    return ExpertEnsemble(experts, hp, partitioning, info)


def expert_predict(expert: GpModel, xs) -> PredictiveDist:
    """Posterior marginals of the latent function under one expert."""
    return _predict_latent(expert, xs)
