"""Shared fixtures: one small trained ensemble reused across test modules."""

import numpy as np
import pytest

from gpexperts import (
    ExpertEnsemble,
    Partitioning,
    kernel_matrix,
    partition_kmeans,
    synth_dataset,
    train_ensemble,
)
from gpexperts.experts import _factorize_expert


@pytest.fixture(scope="session")
def small_data():
    return synth_dataset(n=240, n_test=40, noise_sd=0.2, seed=0)


@pytest.fixture(scope="session")
def small_ensemble(small_data):
    parts = partition_kmeans(small_data.x_train, 3, seed=1)
    return train_ensemble(
        small_data.x_train, small_data.y_train, parts, restarts=1, seed=2
    )


@pytest.fixture(scope="session")
def small_grid(small_data):
    # interior test slice, away from the extrapolating ends
    return small_data.x_test[5:35]


def manual_ensemble(datasets, hp):
    """Experts over explicit (x, y) blocks, bypassing the trainer."""
    experts = [_factorize_expert(i, x, y, hp) for i, (x, y) in enumerate(datasets)]
    sizes = [np.asarray(x).shape[0] for x, _ in datasets]
    assign = np.repeat(np.arange(len(sizes)), sizes)
    parts = Partitioning(assign, len(sizes), "manual", 0)
    return ExpertEnsemble(experts, hp, parts)


def expert_weights(expert, xs):
    """Weights of the expert's linear predictor, by a dense solve.

    Row t holds w such that the expert's posterior mean at xs[t] is
    w @ expert.y: w = (K + noise I)^{-1} k(X, xs[t]), shape (n_test, n_i).
    """
    xs = np.asarray(xs, dtype=float)
    if xs.ndim == 1:
        xs = xs[:, None]
    c = kernel_matrix(expert.x, expert.x, expert.hp)
    c[np.diag_indices_from(c)] += expert.hp.noise_variance
    return np.linalg.solve(c, kernel_matrix(expert.x, xs, expert.hp)).T
