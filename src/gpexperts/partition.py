"""Deterministic training-set partitioning for local experts."""

from dataclasses import dataclass

import numpy as np
from scipy.spatial.distance import cdist

from .kernels import as_points, check_integer

LLOYD_MAX_ITER = 100  # Lloyd-iteration budget of k-means


@dataclass(eq=False)
class Partitioning:
    """Assignment of every training point to exactly one expert.

    assignments[t] is the owning expert index in [0, n_parts), kept as a 1-D
    integer array; every expert owns at least one point.  ``iterations``
    counts k-means' Lloyd iterations and ``converged`` says whether the last
    one moved no point; a random split runs none and leaves ``converged``
    None.  The strategy and seed that made the split stay with the caller.
    """

    assignments: np.ndarray
    n_parts: int
    iterations: int = 0
    converged: bool | None = None

    def __post_init__(self):
        self.assignments = a = np.asarray(self.assignments)
        if a.ndim != 1:
            raise ValueError(f"assignments must be a 1-D array, got shape {a.shape}")
        if a.dtype.kind not in "iu":
            raise ValueError(f"assignments must be integers, not {a.dtype}")
        if a.min(initial=0) < 0 or a.max(initial=-1) >= self.n_parts:
            raise ValueError("assignment index out of range")
        if np.any(self.sizes == 0):
            raise ValueError("every part must own at least one point")

    @property
    def sizes(self) -> np.ndarray:
        """Number of points each expert owns."""
        return np.bincount(self.assignments, minlength=self.n_parts)

    def indices(self, i: int) -> np.ndarray:
        return np.flatnonzero(self.assignments == i)


def _kmeans_pp_centers(x, m, rng):
    """k-means++ seeding: spread initial centers by squared-distance sampling."""
    n = x.shape[0]
    centers = np.empty((m, x.shape[1]))
    centers[0] = x[rng.integers(n)]
    d2 = cdist(x, centers[:1], "sqeuclidean").ravel()
    for j in range(1, m):
        total = d2.sum()
        if total > 0:
            idx = rng.choice(n, p=d2 / total)
        else:
            idx = rng.integers(n)  # duplicates exhausted the spread
        centers[j] = x[idx]
        d2 = np.minimum(d2, cdist(x, centers[j : j + 1], "sqeuclidean").ravel())
    return centers


def _lloyd(x, centers, max_iter):
    """Lloyd iterations, updating ``centers`` in place; returns (assignments,
    iterations run, converged), where converged means the last iteration
    moved no point."""
    m = centers.shape[0]
    assign, iterations, changed = np.full(x.shape[0], -1), 0, True
    for iterations in range(1, max_iter + 1):
        d2 = cdist(x, centers, "sqeuclidean")
        new_assign = np.argmin(d2, axis=1)
        # Repair empty clusters by stealing the point farthest from its
        # current centroid (clusters of one point are left alone).
        counts = np.bincount(new_assign, minlength=m)
        for empty in np.flatnonzero(counts == 0):
            own_d2 = d2[np.arange(x.shape[0]), new_assign]
            own_d2 = np.where(counts[new_assign] > 1, own_d2, -np.inf)
            thief = int(np.argmax(own_d2))
            counts[new_assign[thief]] -= 1
            new_assign[thief] = empty
            counts[empty] = 1
        changed = np.any(new_assign != assign)
        assign = new_assign
        for d in range(x.shape[1]):
            centers[:, d] = np.bincount(assign, weights=x[:, d], minlength=m) / counts
        if not changed:
            break
    return assign, iterations, not changed


def partition_kmeans(x, n_parts: int, seed=0) -> Partitioning:
    """Cluster inputs into ``n_parts`` local regions with seeded K-means."""
    x = as_points(x)
    check_integer(n_parts, "n_parts")
    if not 1 <= n_parts <= x.shape[0]:
        raise ValueError(f"need 1 <= n_parts <= n, got {n_parts} for n={x.shape[0]}")
    rng = np.random.default_rng(seed)
    centers = _kmeans_pp_centers(x, n_parts, rng)
    assign, iterations, converged = _lloyd(x, centers, LLOYD_MAX_ITER)
    return Partitioning(assign, n_parts, iterations, converged)


def partition_random(n: int, n_parts: int, seed=0) -> Partitioning:
    """Shuffle points into ``n_parts`` groups whose sizes differ by at most 1."""
    check_integer(n, "n")
    check_integer(n_parts, "n_parts")
    if not 1 <= n_parts <= n:
        raise ValueError(f"need 1 <= n_parts <= n, got {n_parts} for n={n}")
    order = np.random.default_rng(seed).permutation(n)
    sizes = n // n_parts + (np.arange(n_parts) < n % n_parts)
    assign = np.empty(n, dtype=int)
    assign[order] = np.repeat(np.arange(n_parts), sizes)
    return Partitioning(assign, n_parts)
