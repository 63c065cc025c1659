"""Squared-exponential kernel values and log-space gradients."""

import tracemalloc

import numpy as np
import pytest

from conftest import kernel_eval
from gpexperts import Hyperparams, kernel_grad, kernel_matrix


def test_zero_distance_gives_signal_variance():
    hp = Hyperparams(2.5, [0.7], 0.0)
    assert kernel_eval([0.3], [0.3], hp) == pytest.approx(2.5)


def test_unit_lengthscale_closed_form():
    # squared distance 2, unit lengthscale: k = exp(-0.5 * 2) = exp(-1)
    hp = Hyperparams(1.0, [1.0], 0.0)
    k = kernel_eval([0.0], [np.sqrt(2.0)], hp)
    assert k == pytest.approx(np.exp(-1.0), abs=1e-12)


def test_lengthscale_divides_squared_distance():
    # ls = 4 is a squared-length unit: exponent -0.5 * 2 / 4, not -0.5 * 2 / 16
    hp = Hyperparams(1.0, [4.0], 0.0)
    k = kernel_eval([0.0], [np.sqrt(2.0)], hp)
    assert k == pytest.approx(np.exp(-0.25), abs=1e-12)


def test_value_linear_in_signal_variance():
    a, b = np.array([0.1, -0.4]), np.array([0.5, 0.2])
    k1 = kernel_eval(a, b, Hyperparams(1.0, [0.3, 0.8], 0.0))
    k2 = kernel_eval(a, b, Hyperparams(2.0, [0.3, 0.8], 0.0))
    assert k2 == pytest.approx(2.0 * k1)


def test_symmetry_and_bounds():
    rng = np.random.default_rng(0)
    hp = Hyperparams(1.3, [0.5, 2.0, 1.0], 0.0)
    for _ in range(20):
        a, b = rng.normal(size=3), rng.normal(size=3)
        k = kernel_eval(a, b, hp)
        assert k == kernel_eval(b, a, hp)
        assert 0.0 < k <= hp.signal_variance


def test_matrix_matches_pairwise_eval():
    rng = np.random.default_rng(3)
    x, x2 = rng.normal(size=(4, 2)), rng.normal(size=(5, 2))
    hp = Hyperparams(1.7, [0.5, 2.0], 0.0)
    k = kernel_matrix(x, x2, hp)
    assert k.shape == (4, 5)
    for i in range(4):
        for j in range(5):
            assert k[i, j] == pytest.approx(kernel_eval(x[i], x2[j], hp), rel=1e-12)


def test_matrix_exact_on_identical_rows():
    # coordinate-difference distances make k(x, x) hit signal_variance exactly
    x = np.array([[0.25, -1.0], [3.5, 0.125]])
    hp = Hyperparams(1.9, [0.7, 1.1], 0.0)
    k = kernel_matrix(x, x, hp)
    assert k[0, 0] == 1.9
    assert k[1, 1] == 1.9
    assert k[0, 1] == k[1, 0]


def test_matrix_far_points_decay_to_zero():
    hp = Hyperparams(1.0, [1.0], 0.0)
    k = kernel_matrix(np.array([[0.0]]), np.array([[1e4]]), hp)
    assert k[0, 0] == 0.0


def test_matrix_plus_noise_is_positive_definite():
    rng = np.random.default_rng(5)
    x = rng.normal(size=(20, 3))
    hp = Hyperparams(1.3, [0.4, 1.0, 2.5], 0.05)
    c = kernel_matrix(x, x, hp) + hp.noise_variance * np.eye(20)
    assert np.linalg.eigvalsh(c).min() > hp.noise_variance - 1e-8


def test_grad_signal_slice_is_kernel_matrix():
    rng = np.random.default_rng(1)
    x = rng.normal(size=(6, 2))
    hp = Hyperparams(0.8, [0.6, 1.4], 0.1)
    g = kernel_grad(x, hp)
    assert g.shape == (3, 6, 6)
    np.testing.assert_array_equal(g[0], kernel_matrix(x, x, hp))


def test_grad_matches_finite_differences():
    rng = np.random.default_rng(7)
    x = rng.normal(size=(5, 2))
    hp = Hyperparams(1.4, [0.6, 1.8], 0.2)
    g = kernel_grad(x, hp)
    theta = hp.to_log_vector()
    h = 1e-6
    # noise never enters K itself, so only the first 1 + D slots are live
    for j in range(1 + hp.dim):
        tp, tm = theta.copy(), theta.copy()
        tp[j] += h
        tm[j] -= h
        kp = kernel_matrix(x, x, Hyperparams.from_log_vector(tp))
        km = kernel_matrix(x, x, Hyperparams.from_log_vector(tm))
        fd = (kp - km) / (2.0 * h)
        rel = np.abs(g[j] - fd).max() / max(np.abs(fd).max(), 1e-12)
        assert rel < 1e-5


def test_grad_lengthscale_zero_on_diagonal():
    x = np.array([[0.0], [1.0], [2.5]])
    g = kernel_grad(x, Hyperparams(1.0, [0.9], 0.0))
    np.testing.assert_array_equal(np.diagonal(g[1]), 0.0)


def test_dimension_mismatch_rejected():
    hp = Hyperparams(1.0, [1.0, 1.0], 0.1)
    with pytest.raises(ValueError):
        kernel_eval([0.0], [0.0], hp)
    with pytest.raises(ValueError):
        kernel_matrix(np.zeros((3, 1)), np.zeros((3, 1)), hp)
    with pytest.raises(ValueError):
        kernel_matrix(np.zeros((3, 2)), np.zeros((3, 1)), hp)
    with pytest.raises(ValueError):
        kernel_grad(np.zeros((3, 1)), hp)


def test_one_dimensional_arrays_are_points_of_one_input():
    x = np.linspace(0.0, 1.0, 5)
    hp = Hyperparams(1.0, [0.1], 0.01)
    column = x[:, None]
    k = kernel_matrix(x, x, hp)
    assert k.shape == (5, 5)
    np.testing.assert_array_equal(k, kernel_matrix(column, column, hp))
    np.testing.assert_array_equal(kernel_matrix(column, x[:2], hp), k[:, :2])
    np.testing.assert_array_equal(kernel_grad(x, hp), kernel_grad(column, hp))


def test_hyperparams_must_be_positive():
    with pytest.raises(ValueError):
        Hyperparams(0.0, [1.0], 0.1)
    with pytest.raises(ValueError):
        Hyperparams(1.0, [0.0], 0.1)
    with pytest.raises(ValueError):
        Hyperparams(1.0, [1.0], -0.1)
    # zero noise is a legal (interpolating) model
    assert Hyperparams(1.0, [1.0], 0.0).noise_variance == 0.0


@pytest.mark.parametrize("field", ["signal_variance", "lengthscales", "noise_variance"])
def test_hyperparams_reject_nan_naming_the_field(field):
    values = {"signal_variance": 1.0, "lengthscales": [1.0, 2.0], "noise_variance": 0.1}
    values[field] = [1.0, np.nan] if field == "lengthscales" else np.nan
    with pytest.raises(ValueError, match=field):
        Hyperparams(**values)


def test_hyperparams_leave_infinities_to_the_range_checks():
    # The optimizer can reach +inf through from_log_vector's exp; it stays legal.
    assert Hyperparams(np.inf, [np.inf], np.inf).signal_variance == np.inf
    with pytest.raises(ValueError, match="signal variance"):
        Hyperparams(-np.inf, [1.0], 0.1)


def test_zero_noise_has_no_log_vector():
    with pytest.raises(ValueError, match="zero noise"):
        Hyperparams(1.0, [1.0], 0.0).to_log_vector()


def test_log_vector_round_trip():
    hp = Hyperparams(2.0, [0.3, 0.9, 4.0], 0.01)
    theta = hp.to_log_vector()
    assert theta.shape == (5,)
    back = Hyperparams.from_log_vector(theta)
    assert back.signal_variance == pytest.approx(2.0)
    np.testing.assert_allclose(back.lengthscales, [0.3, 0.9, 4.0])
    assert back.noise_variance == pytest.approx(0.01)


def test_kernel_matrix_allocates_only_its_output():
    rng = np.random.default_rng(4)
    hp = Hyperparams(1.5, [0.1, 0.2], 0.0)
    x, x2 = rng.uniform(size=(500, 2)), rng.uniform(size=(300, 2))
    tracemalloc.start()
    try:
        k = kernel_matrix(x, x2, hp)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.1 * k.nbytes
