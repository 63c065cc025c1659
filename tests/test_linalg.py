"""Jittered inverse-Cholesky ladder, the solve from it and the robust PSD solver."""

import tracemalloc

import numpy as np
import pytest
from scipy.linalg.lapack import dpotrf, dtrtri

from gpexperts import Hyperparams, SingularMatrixError, kernel_matrix
from gpexperts.linalg import chol_with_jitter, solve_psd_robust, solve_spd


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


def test_jitter_ladder_steps_in_the_given_scale():
    # Indefinite at 1e-19, like the rounding left of a matrix that cancelled
    # to zero: steps of its own diagonal's size stop short of 1e-19, while
    # steps in a given scale of 1 factor it at the first one.
    a = np.array([[1e-20, 1e-19], [1e-19, 1e-20]])
    with pytest.raises(SingularMatrixError):
        chol_with_jitter(a)
    _, jitter = chol_with_jitter(a, scale=1.0)
    assert jitter == 1e-10


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


def test_robust_solve_falls_back_to_the_kept_eigenpairs():
    # [[1, 2], [2, 1]] has eigenvalues 3 and -1: no rung of jitter factors
    # it, and the pseudo-inverse keeps the eigenvalue 3 of (1, 1) / sqrt(2).
    a = np.array([[1.0, 2.0], [2.0, 1.0]])
    with pytest.raises(SingularMatrixError):
        chol_with_jitter(a, maximum=1e-6, scale=1.0)
    b = np.array([1.0, 5.0])
    np.testing.assert_allclose(solve_psd_robust(a, b), [1.0, 1.0], rtol=1e-14)
    np.testing.assert_allclose(
        solve_psd_robust(a, np.column_stack([b, -b])),
        [[1.0, -1.0], [1.0, -1.0]], rtol=1e-14)


def late_pivot_singular(n=8, seed=7):
    """PSD matrix of rank n - 1 whose leading (n-1) x (n-1) block is PD."""
    b = np.random.default_rng(seed).normal(size=(n, n - 1))
    return b @ b.T


def test_factorization_leaves_the_input_untouched():
    # An array that is not Fortran-ordered is factored in a copy.
    for a in (spd(6, 8), late_pivot_singular()):
        before = a.copy()
        chol_with_jitter(a, shift=0.25)
        chol_with_jitter(a)
        np.testing.assert_array_equal(a, before)


@pytest.mark.parametrize("n", [8, 300])
def test_factorization_never_writes_the_upper_triangle(n):
    a = np.array(spd(n, n), order="F")
    upper = np.triu(a, 1)
    w, _ = chol_with_jitter(a, shift=0.25)
    assert w is a
    np.testing.assert_array_equal(np.triu(a, 1), upper)


def test_jittered_factor_is_rebuilt_from_the_input():
    # The clean attempt fails only at the last pivot, after LAPACK has
    # overwritten every earlier column; the retry must start from a again.
    a = late_pivot_singular() - 0.5 * np.eye(8)
    _, info = dpotrf(a + 0.5 * np.eye(8), lower=1)
    assert info == 8
    w, jitter = chol_with_jitter(a, shift=0.5)
    assert jitter > 0.0
    np.testing.assert_array_equal(np.triu(w, 1), np.triu(a, 1))
    ref, ref_jitter = chol_with_jitter(a + 0.5 * np.eye(8), shift=jitter)
    assert ref_jitter == 0.0
    np.testing.assert_array_equal(np.tril(w), np.tril(ref))


def test_late_pivot_failure_retries_from_the_pristine_matrix():
    # The last pivot of n=300 sits in the last leaf, after the recursion has
    # overwritten the lower triangle of every earlier block.
    n = 300
    a = late_pivot_singular(n, seed=11)
    a[-1, -1] -= 1e-6 * a.diagonal().mean()
    w, jitter = chol_with_jitter(np.array(a, order="F"))
    assert jitter > 0.0
    ref, ref_jitter = chol_with_jitter(np.array(a, order="F"), shift=jitter)
    assert ref_jitter == 0.0
    np.testing.assert_array_equal(np.tril(w), np.tril(ref))
    np.testing.assert_array_equal(np.triu(w, 1), np.triu(a, 1))


def test_zero_pivot_in_the_leading_block_takes_the_first_rung():
    # At n=300 the first pivot sits in the first leaf of the leading block;
    # zeroing row and column 0 makes it exactly 0, and the first rung of
    # jitter lifts it.
    n = 300
    x = np.random.default_rng(3).normal(size=(n, 8))
    c = kernel_matrix(x, x, Hyperparams(1.0, np.ones(8), 0.1))
    c[0, :] = c[:, 0] = 0.0
    w, jitter = chol_with_jitter(np.array(c, order="F"))
    assert jitter == 1e-10 * c.diagonal().mean()
    np.testing.assert_array_equal(np.triu(w, 1), np.triu(c, 1))
    w = np.tril(w)
    np.testing.assert_allclose(w @ (c + jitter * np.eye(n)) @ w.T, np.eye(n),
                               rtol=0, atol=1e-10)


def test_shift_matches_adding_it_to_the_diagonal_first():
    for a in (spd(6, 9), late_pivot_singular() - 0.5 * np.eye(8), spd(300, 9)):
        shifted = a + 0.5 * np.eye(a.shape[0])
        low, jitter = chol_with_jitter(a, shift=0.5)
        low_ref, jitter_ref = chol_with_jitter(shifted)
        assert jitter == jitter_ref
        np.testing.assert_array_equal(low, low_ref)


@pytest.mark.parametrize("n", [1, 2, 127, 128, 129, 257, 600, 1000])
def test_tri_inv_matches_dtrtri_in_place(n):
    # The triangular inverse W = L^{-1} that chol_with_jitter leaves in
    # place, against LAPACK's dtrtri of dpotrf's factor.
    a = spd(n, seed=n)
    low, info = dpotrf(a, lower=1)
    assert info == 0
    ref, info = dtrtri(low, lower=1)
    assert info == 0
    buf = np.array(a, order="F")
    w, _ = chol_with_jitter(buf)
    assert w is buf
    w = np.tril(w)
    assert np.max(np.abs(w - ref)) <= 1e-13 * np.max(np.abs(ref))
    np.testing.assert_allclose(w @ a @ w.T, np.eye(n), rtol=0, atol=1e-10)


@pytest.mark.parametrize("n, pivot", [(5, 3), (300, 250)])
def test_tri_inv_zero_pivot_raises(n, pivot):
    # A zeroed diagonal entry leaves a pivot that no jitter on the ladder
    # can lift; at n=300 it sits in the last leaf of the recursion.
    a = spd(n, seed=1)
    a[pivot, pivot] = 0.0
    with pytest.raises(SingularMatrixError, match="jitter"):
        chol_with_jitter(a)


@pytest.mark.parametrize("n, cell, value", [
    (3, None, np.nan), (300, (260, 40), np.nan), (300, (10, 2), np.inf),
])
def test_non_finite_matrix_raises(n, cell, value):
    a = np.full((n, n), value) if cell is None else spd(n, seed=2)
    if cell is not None:
        a[cell] = a[cell[::-1]] = value
    with pytest.raises(SingularMatrixError, match="non-finite"):
        chol_with_jitter(a)


def test_factorization_holds_two_half_order_blocks_at_most():
    # The recursion copies each block it hands to BLAS; at most two
    # half-order blocks (n^2 / 2 doubles) are alive at a time.
    n = 600
    a = np.array(spd(n, seed=3), order="F")
    tracemalloc.start()
    try:
        chol_with_jitter(a)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.05 * 8 * n**2 / 2
