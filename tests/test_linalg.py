"""Jittered Cholesky ladder, triangular inversion and the robust PSD solver."""

import tracemalloc

import numpy as np
import pytest
from scipy.linalg.lapack import dpotrf, dtrtri

from gpexperts import SingularMatrixError
from gpexperts.linalg import (
    TRI_INV_LEAF,
    chol_with_jitter,
    solve_psd_robust,
    solve_spd,
    tri_inv,
)


def spd(n, seed, boost=1.0):
    rng = np.random.default_rng(seed)
    b = rng.normal(size=(n, n))
    return b @ b.T + boost * np.eye(n)


def test_clean_factorization_uses_no_jitter():
    a = spd(6, 0)
    low, jitter = chol_with_jitter(a)
    assert jitter == 0.0
    b = np.arange(6.0)
    np.testing.assert_allclose(solve_spd(low, b), np.linalg.solve(a, b), rtol=1e-10)


def test_singular_matrix_gets_jitter():
    a = np.ones((3, 3))  # rank one
    low, jitter = chol_with_jitter(a)
    assert jitter > 0.0
    # the jittered system is still essentially the original for vectors in range
    x = solve_spd(low, np.ones(3))
    np.testing.assert_allclose(a @ x, np.ones(3), atol=1e-4)


def test_indefinite_matrix_exhausts_ladder():
    with pytest.raises(SingularMatrixError):
        chol_with_jitter(-np.eye(3))


def test_solve_spd_matrix_rhs():
    a = spd(5, 2)
    low, _ = chol_with_jitter(a)
    b = np.random.default_rng(3).normal(size=(5, 2))
    np.testing.assert_allclose(solve_spd(low, b), np.linalg.solve(a, b), rtol=1e-9)


def test_robust_solve_on_well_conditioned_system():
    a = spd(7, 4)
    b = np.random.default_rng(5).normal(size=7)
    np.testing.assert_allclose(solve_psd_robust(a, b), np.linalg.solve(a, b), rtol=1e-8)


def test_robust_solve_rank_deficient_in_range():
    # b lies in the range of the rank-one matrix, so the pinv solution is exact
    a = np.ones((2, 2))
    x = solve_psd_robust(a, np.array([2.0, 2.0]))
    np.testing.assert_allclose(a @ x, [2.0, 2.0], atol=1e-6)


def test_robust_solve_zero_matrix_returns_zeros():
    out = solve_psd_robust(np.zeros((3, 3)), np.ones(3))
    np.testing.assert_array_equal(out, np.zeros(3))


def test_robust_solve_matches_pinv_on_duplicated_rows():
    base = spd(3, 6)
    a = np.zeros((4, 4))
    a[:3, :3] = base
    a[3, :3] = base[0]
    a[:3, 3] = base[:, 0]
    a[3, 3] = base[0, 0]  # row 3 duplicates row 0
    b = np.array([1.0, -2.0, 0.5, 1.0])
    x = solve_psd_robust(a, b)
    np.testing.assert_allclose(a @ x, b, atol=1e-5)


def late_pivot_singular(n=8, seed=7):
    """PSD matrix of rank n - 1 whose leading (n-1) x (n-1) block is PD."""
    b = np.random.default_rng(seed).normal(size=(n, n - 1))
    return b @ b.T


def test_factorization_leaves_the_input_untouched():
    for a in (spd(6, 8), late_pivot_singular()):
        before = a.copy()
        chol_with_jitter(a, shift=0.25)
        chol_with_jitter(a)
        np.testing.assert_array_equal(a, before)


def test_jittered_factor_is_rebuilt_from_the_input():
    # The clean attempt fails only at the last pivot, after LAPACK has
    # overwritten every earlier column; the retry must start from a again.
    a = late_pivot_singular() - 0.5 * np.eye(8)
    _, info = dpotrf(a + 0.5 * np.eye(8), lower=1)
    assert info == 8
    low, jitter = chol_with_jitter(a, shift=0.5)
    assert jitter > 0.0
    np.testing.assert_array_equal(np.triu(low, 1), 0.0)
    target = a + (0.5 + jitter) * np.eye(8)
    np.testing.assert_allclose(low @ low.T, target, rtol=1e-12, atol=1e-12)


def test_shift_matches_adding_it_to_the_diagonal_first():
    for a in (spd(6, 9), late_pivot_singular() - 0.5 * np.eye(8)):
        shifted = a + 0.5 * np.eye(a.shape[0])
        low, jitter = chol_with_jitter(a, shift=0.5)
        low_ref, jitter_ref = chol_with_jitter(shifted)
        assert jitter == jitter_ref
        np.testing.assert_array_equal(low, low_ref)


def lower_factor(n, seed):
    low, _ = chol_with_jitter(spd(n, seed))
    return low


@pytest.mark.parametrize("n", [1, 2, 127, 128, 129, 257, 600])
def test_tri_inv_matches_dtrtri_in_place(n):
    low = lower_factor(n, seed=n)
    ref, info = dtrtri(low, lower=1)
    assert info == 0
    out = tri_inv(low)
    assert out is low
    assert not np.any(np.triu(low, 1))
    assert np.max(np.abs(low - ref)) <= 1e-13 * np.max(np.abs(ref))


@pytest.mark.parametrize("n, pivot", [(5, 3), (300, 250)])
def test_tri_inv_zero_pivot_raises(n, pivot):
    low = lower_factor(n, seed=1)
    low[pivot, pivot] = 0.0
    with pytest.raises(SingularMatrixError):
        tri_inv(low)


def test_tri_inv_copies_no_half_size_block():
    # Only a leaf that is not contiguous is copied; a copy of any half-size
    # block at n=600 (300^2 doubles) would exceed this bound.
    low = lower_factor(600, seed=3)
    tracemalloc.start()
    try:
        tri_inv(low)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 2 * 8 * TRI_INV_LEAF**2 + 8192
