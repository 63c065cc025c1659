"""Partitioning strategies: seeded k-means and balanced random split."""

import re

import numpy as np
import pytest

import gpexperts.partition
from gpexperts import Partitioning, partition_kmeans, partition_random
from gpexperts.partition import _kmeans_pp_centers, _lloyd


def test_kmeans_single_part_collapses():
    x = np.random.default_rng(0).normal(size=(12, 2))
    parts = partition_kmeans(x, 1, seed=0)
    np.testing.assert_array_equal(parts.assignments, 0)
    assert parts.n_parts == 1


def test_kmeans_one_part_per_point():
    x = np.arange(6.0)[:, None]
    parts = partition_kmeans(x, 6, seed=0)
    assert sorted(parts.assignments.tolist()) == [0, 1, 2, 3, 4, 5]
    for i in range(6):
        assert parts.indices(i).shape == (1,)


def test_kmeans_separates_two_blobs():
    rng = np.random.default_rng(1)
    left = rng.normal(0.0, 0.1, size=(5, 1))
    right = rng.normal(10.0, 0.1, size=(5, 1))
    x = np.vstack([left, right])
    parts = partition_kmeans(x, 2, seed=2)
    first, second = set(parts.assignments[:5]), set(parts.assignments[5:])
    assert len(first) == 1 and len(second) == 1
    assert first != second


def test_kmeans_covers_every_point_and_part():
    x = np.random.default_rng(3).normal(size=(50, 3))
    parts = partition_kmeans(x, 7, seed=4)
    counts = np.bincount(parts.assignments, minlength=7)
    assert counts.sum() == 50
    assert counts.min() >= 1


def test_kmeans_deterministic_per_seed():
    x = np.random.default_rng(5).normal(size=(40, 2))
    a = partition_kmeans(x, 4, seed=6)
    b = partition_kmeans(x, 4, seed=6)
    np.testing.assert_array_equal(a.assignments, b.assignments)


def test_lloyd_objective_never_increases():
    # Lloyd is deterministic, so a budget of k iterations stops at the
    # k-th iterate of the full run: its WCSS is the objective after k.
    rng = np.random.default_rng(7)
    x = rng.normal(size=(80, 2))
    start = _kmeans_pp_centers(x, 5, rng)
    _, iterations, converged = _lloyd(x, start.copy(), max_iter=50)
    assert converged and iterations >= 3
    history = []
    for k in range(1, iterations + 1):
        centers = start.copy()
        assign, _, _ = _lloyd(x, centers, max_iter=k)
        history.append(np.sum((x - centers[assign]) ** 2))
    assert np.all(np.diff(history) <= 1e-10)


def test_kmeans_survives_duplicate_points():
    # more parts than distinct locations forces empty-cluster repair
    x = np.repeat(np.array([[0.0], [1.0]]), 5, axis=0)
    parts = partition_kmeans(x, 4, seed=0)
    counts = np.bincount(parts.assignments, minlength=4)
    assert counts.min() >= 1


def test_random_split_sizes_differ_by_at_most_one():
    parts = partition_random(7, 3, seed=0)
    sizes = sorted(np.bincount(parts.assignments).tolist(), reverse=True)
    assert sizes == [3, 2, 2]


def test_random_split_even_division():
    parts = partition_random(10, 5, seed=1)
    np.testing.assert_array_equal(np.bincount(parts.assignments), 2)


def test_random_split_is_a_permutation():
    parts = partition_random(23, 4, seed=2)
    assert parts.assignments.shape == (23,)
    assert np.bincount(parts.assignments, minlength=4).min() >= 1


def test_random_split_deterministic_and_seed_sensitive():
    a = partition_random(30, 3, seed=3)
    b = partition_random(30, 3, seed=3)
    c = partition_random(30, 3, seed=4)
    np.testing.assert_array_equal(a.assignments, b.assignments)
    assert not np.array_equal(a.assignments, c.assignments)


def test_part_count_bounds_rejected():
    x = np.zeros((3, 1))
    with pytest.raises(ValueError):
        partition_kmeans(x, 4, seed=0)
    with pytest.raises(ValueError):
        partition_kmeans(x, 0, seed=0)
    with pytest.raises(ValueError):
        partition_random(3, 4, seed=0)
    with pytest.raises(ValueError):
        partition_random(3, 0, seed=0)
    for n_parts in (2.0, 1.5, True):
        with pytest.raises(ValueError, match="n_parts must be an integer"):
            partition_kmeans(x, n_parts, seed=0)
        with pytest.raises(ValueError, match="n_parts must be an integer"):
            partition_random(3, n_parts, seed=0)
    with pytest.raises(ValueError, match="n must be an integer"):
        partition_random(3.0, 2, seed=0)
    assert partition_kmeans(x, np.int64(2), seed=0).n_parts == 2
    assert partition_random(np.int64(3), np.int32(2), seed=0).n_parts == 2


def test_partitioning_validates_assignments():
    with pytest.raises(ValueError):
        Partitioning(np.array([0, 1, 3]), 3)  # index out of range
    with pytest.raises(ValueError):
        Partitioning(np.array([0, 0, 2]), 3)  # part 1 empty
    with pytest.raises(ValueError, match="out of range"):
        Partitioning(np.array([0, -1, 1]), 2)
    with pytest.raises(ValueError, match="integers"):
        Partitioning(np.array([0.0, 1.0, 1.5]), 2)
    ok = Partitioning(np.array([1, 0, 1]), 2)
    np.testing.assert_array_equal(ok.indices(1), [0, 2])
    for assignments in ([1, 0, 1], (1, 0, 1)):  # kept as the array validated
        ok = Partitioning(assignments, 2)
        assert isinstance(ok.assignments, np.ndarray)
        np.testing.assert_array_equal(ok.indices(1), [0, 2])
    for assignments, shape in ((np.zeros((2, 3), dtype=int), "(2, 3)"),
                               ([[0, 1], [1, 0]], "(2, 2)"), (np.int64(0), "()")):
        message = re.escape(f"assignments must be a 1-D array, got shape {shape}")
        with pytest.raises(ValueError, match=message):
            Partitioning(assignments, 2)


def test_kmeans_reports_lloyd_iterations(monkeypatch):
    x = np.random.default_rng(8).normal(size=(60, 2))
    parts = partition_kmeans(x, 4, seed=9)
    centers = _kmeans_pp_centers(x, 4, np.random.default_rng(9))
    _, iterations, _ = _lloyd(x, centers, max_iter=100)
    assert parts.iterations == iterations >= 2
    assert partition_random(60, 4, seed=9).iterations == 0
    monkeypatch.setattr(gpexperts.partition, "LLOYD_MAX_ITER", 1)
    assert partition_kmeans(x, 4, seed=9).iterations == 1


def test_kmeans_reports_whether_lloyd_converged(monkeypatch):
    x = np.random.default_rng(8).normal(size=(60, 2))
    assert partition_kmeans(x, 4, seed=9).converged is True
    assert partition_random(60, 4, seed=9).converged is None
    monkeypatch.setattr(gpexperts.partition, "LLOYD_MAX_ITER", 1)
    assert partition_kmeans(x, 4, seed=9).converged is False


def test_lloyd_centers_are_the_masked_cluster_means_bit_for_bit():
    x = np.random.default_rng(12).normal(size=(500, 3))
    centers = _kmeans_pp_centers(x, 9, np.random.default_rng(1))
    assign, _, _ = _lloyd(x, centers, 100)
    for j in range(9):
        np.testing.assert_array_equal(centers[j], x[assign == j].mean(axis=0))


def test_sizes_count_the_points_of_each_part():
    parts = Partitioning(np.array([2, 0, 2, 1, 2]), 3)
    np.testing.assert_array_equal(parts.sizes, [1, 1, 3])
    x = np.random.default_rng(13).normal(size=(60, 2))
    parts = partition_kmeans(x, 5, seed=2)
    assert parts.sizes.sum() == 60
    for i in range(5):
        assert parts.sizes[i] == parts.indices(i).size
