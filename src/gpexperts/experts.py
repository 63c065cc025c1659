"""Local GP experts trained jointly on a partition of the data.

All experts share one hyperparameter vector, trained by maximizing the sum of
the per-partition log marginal likelihoods (the factorized approximation to
the full-data evidence).  With a single part this reduces exactly to
:func:`gpexperts.gp.fit`.
"""

from dataclasses import dataclass

import numpy as np

from .gp import (
    PredictiveDist,
    TrainingInfo,
    _factor_inverse,
    _optimize_shared,
    _predict_latent,
    _prepare_xy,
    default_init,
)
from .kernels import Hyperparams
from .partition import Partitioning


@dataclass
class ExpertModel:
    """One local GP: its data slice and factorized kernel matrix.

    ``chol_inv`` is the inverse of the lower Cholesky factor of
    K(X_i, X_i) + noise_variance * I, inverted in the factor's own storage
    (see :class:`gpexperts.gp.GpModel`); ``jitter`` is the diagonal jitter
    its factorization needed.
    """

    index: int
    x: np.ndarray
    y: np.ndarray
    hp: Hyperparams
    chol_inv: np.ndarray
    alpha: np.ndarray
    jitter: float = 0.0

    @property
    def size(self) -> int:
        return self.x.shape[0]


@dataclass
class ExpertEnsemble:
    """All experts plus the shared hyperparameters and source partitioning.

    ``training`` describes the optimizer run that chose ``hp``.
    """

    experts: list
    hp: Hyperparams
    partitioning: Partitioning
    training: TrainingInfo | None = None

    @property
    def n_experts(self) -> int:
        return len(self.experts)

    def subset_or_all(self, subset) -> np.ndarray:
        """Validate an expert index subset; None means every expert."""
        if subset is None:
            return np.arange(self.n_experts)
        subset = np.asarray(subset, dtype=int)
        if subset.size == 0:
            raise ValueError("expert subset is empty")
        if np.unique(subset).size != subset.size:
            raise ValueError("expert subset has duplicates")
        if subset.min() < 0 or subset.max() >= self.n_experts:
            raise ValueError("expert subset index out of range")
        return subset


def _factorize_expert(index, x, y, hp) -> ExpertModel:
    return ExpertModel(index, x, y, hp, *_factor_inverse(x, y, hp))


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
    experts = [
        _factorize_expert(i, px, py, hp) for i, (px, py) in enumerate(parts)
    ]
    return ExpertEnsemble(experts, hp, partitioning, info)


def expert_predict(expert: ExpertModel, xs) -> PredictiveDist:
    """Posterior marginals of the latent function under one expert."""
    means, variances = _predict_latent(
        expert.x, expert.chol_inv, expert.alpha, expert.hp, xs
    )
    return PredictiveDist(means, variances)

