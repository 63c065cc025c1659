"""Squared-exponential kernel values and log-space gradients."""

import json
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

import gpexperts
from conftest import from_log_vector, kernel_eval, mirrored_self_kernel
from gpexperts import Hyperparams, kernel_matrix
from gpexperts.kernels import kernel_grad


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
    # In 1-D, coordinate differences make k(x, x) hit signal_variance
    # exactly.  With D >= 2 the GEMM does not promise it: the mirrored
    # self-kernel, like the factorizations' own, writes the diagonal.
    x = np.array([[0.25, -1.0], [3.5, 0.125]])
    one_d = kernel_matrix(x[:, :1], x[:, :1], Hyperparams(1.9, [0.7], 0.0))
    for k in (one_d, mirrored_self_kernel(x, Hyperparams(1.9, [0.7, 1.1], 0.0))):
        assert k[0, 0] == 1.9
        assert k[1, 1] == 1.9
        assert k[0, 1] == k[1, 0]


@pytest.mark.parametrize("dim", [2, 8])
def test_gemm_path_matches_pairwise_eval_across_scales(dim):
    # lengthscales over four decades, inputs far from the origin
    rng = np.random.default_rng(dim)
    hp = Hyperparams(1.7, rng.permutation(np.geomspace(1e-2, 1e2, dim)), 0.0)
    x, x2 = 1e3 + rng.uniform(size=(40, dim)), 1e3 + rng.uniform(size=(30, dim))
    for a, b in ((x, x2), (x2, x), (x, x)):
        ref = [[kernel_eval(p, q, hp) for q in b] for p in a]
        np.testing.assert_allclose(kernel_matrix(a, b, hp), ref, rtol=1e-12, atol=0)


@pytest.mark.parametrize("dim", [2, 8])
def test_gemm_self_kernel_is_symmetric_with_an_exact_diagonal(dim):
    # n > 128: the upper triangle is mirrored panel by panel
    rng = np.random.default_rng(10 + dim)
    hp = Hyperparams(1.9, rng.uniform(0.5, 2.0, dim), 0.0)
    x = 1e3 + rng.normal(size=(300, dim))
    k = mirrored_self_kernel(x, hp)
    np.testing.assert_array_equal(np.diagonal(k), 1.9)
    np.testing.assert_array_equal(k, k.T)
    # below the diagonal it holds the raw GEMM's upper triangle
    raw = kernel_matrix(x, x, hp)
    upper = np.triu(np.ones(raw.shape, dtype=bool), 1)
    np.testing.assert_array_equal(k[upper.T], raw.T[upper.T])


@pytest.mark.parametrize("dim", [1, 2, 8])
def test_self_kernel_does_not_depend_on_the_objects_identity(dim):
    # One method per input dimension: x itself and an equal copy of it
    # take the same path and give the same bits.
    rng = np.random.default_rng(40 + dim)
    hp = Hyperparams(1.9, rng.uniform(0.5, 2.0, dim), 0.0)
    x = 1e3 + rng.normal(size=(300, dim))
    np.testing.assert_array_equal(kernel_matrix(x, x, hp), kernel_matrix(x, x.copy(), hp))


@pytest.mark.parametrize("dim", [2, 8])
def test_gemm_path_never_exceeds_the_signal_variance(dim):
    # widely spread equal rows: the GEMM's cancellation error in log k
    # (a few ulps of |a|^2) goes both ways, and the clip cuts the upward side
    rng = np.random.default_rng(30 + dim)
    hp = Hyperparams(1.9, np.ones(dim), 0.0)
    x = 300.0 * rng.normal(size=(60, dim))
    k = kernel_matrix(x, x.copy(), hp)
    assert k.max() <= 1.9 * (1.0 + 2.0**-51)  # exp(log 1.9) may round up
    np.testing.assert_allclose(np.diagonal(k), 1.9, rtol=1e-9)


@pytest.mark.parametrize("dim", [2, 8])
def test_gemm_column_slices_match_the_full_call(dim):
    # one GEMM call rounds by its block shape: a slice may differ by a few ulps
    rng = np.random.default_rng(20 + dim)
    hp = Hyperparams(1.3, np.geomspace(0.3 * dim, 10.0 * dim, dim), 0.0)
    x, x2 = 1e3 + rng.uniform(size=(150, dim)), 1e3 + rng.uniform(size=(257, dim))
    full = kernel_matrix(x, x2, hp)
    for j0, j1 in ((0, 1), (17, 18), (3, 40), (100, 257), (0, 256)):
        np.testing.assert_array_max_ulp(
            kernel_matrix(x, x2[j0:j1], hp), full[:, j0:j1], maxulp=4
        )


@pytest.mark.parametrize("n, m", [(75, 75), (75, 2900), (1000, 1000)])
def test_one_dimensional_kernel_matches_cdist_bitwise(n, m):
    from scipy.spatial.distance import cdist

    rng = np.random.default_rng(n + m)
    x, x2 = rng.uniform(-3.0, 3.0, (n, 1)), rng.uniform(-3.0, 3.0, (m, 1))
    hp = Hyperparams(1.7, [0.3], 0.1)
    s = 1.0 / np.sqrt(hp.lengthscales)

    def reference(a, b):
        return hp.signal_variance * np.exp(-0.5 * cdist(a * s, b * s, "sqeuclidean"))

    np.testing.assert_array_equal(kernel_matrix(x, x2, hp), reference(x, x2))
    np.testing.assert_array_equal(kernel_matrix(x, x, hp), reference(x, x))


def outer_difference_kernel(x, x2, hp):
    """The 1-D kernel as np.subtract.outer built it: the bitwise reference."""
    s = 1.0 / np.sqrt(hp.lengthscales)
    k = np.subtract.outer(x[:, 0] * s, x2[:, 0] * s)
    with np.errstate(over="ignore"):  # squares past the float range are inf
        k *= k
    k *= -0.5
    np.exp(k, out=k)
    k *= hp.signal_variance
    return k


def one_dimensional_cases():
    """name -> (x, x2, lengthscale) of 1-D inputs that stress the rounding."""
    rng = np.random.default_rng(0)
    mags = np.geomspace(1e-300, 1e150, 46)
    mags = np.concatenate([mags, -mags, [5e-324, -5e-324, 0.0, -0.0]])
    zeros = np.array([0.0, -0.0, 0.0, -0.0, 1e-300, -1e-300])
    repeated = np.repeat(rng.uniform(-1.0, 1.0, 4), 3)
    wide = rng.uniform(-3.0, 3.0, 900)
    cases = {
        "signed zeros": (zeros, zeros[::-1], 0.3),
        "repeated points": (repeated, rng.permutation(repeated), 0.3),
        "magnitudes": (mags, rng.permutation(mags), 0.3),
        "tiny lengthscale": (mags, rng.permutation(mags), 1e-3),
        "overflowing squares": (mags, rng.permutation(mags), 1e-20),
        "infinite lengthscale": (wide[:50], wide[50:90], np.inf),
        "empty left": (wide[:0], wide[:5], 0.3),
        "empty right": (wide[:5], wide[:0], 0.3),
        "wide": (wide[:700], wide, 0.3),
    }
    return {k: (x[:, None], x2[:, None], ls) for k, (x, x2, ls) in cases.items()}


def one_dimensional_mismatches():
    """The checks the 1-D kernel fails against its reference, by case name.

    Both the cross-kernel and each self-kernel must equal the reference bit
    for bit; a self-kernel must also be bitwise symmetric with a diagonal of
    exactly signal_variance.
    """
    failed = []
    for name, (x, x2, ls) in one_dimensional_cases().items():
        for sf2 in (1.0, 1.7):
            hp, tag = Hyperparams(sf2, [ls], 0.1), f"{name}, sf2={sf2}"
            for a, b in ((x, x2), (x, x), (x2, x2)):
                k, ref = kernel_matrix(a, b, hp), outer_difference_kernel(a, b, hp)
                if k.shape != ref.shape or not k.flags.c_contiguous:
                    failed.append(f"{tag}: shape or order")
                elif k.tobytes() != ref.tobytes():
                    failed.append(f"{tag}: differs from the reference")
                elif a is b and (k.tobytes() != k.T.copy().tobytes()
                                 or np.any(np.diagonal(k) != sf2)):
                    failed.append(f"{tag}: self-kernel asymmetric or off its diagonal")
    return failed


def test_one_dimensional_kernel_equals_the_outer_difference_bitwise():
    # The K = 2 GEMM of [u, -1] and [1; v] rounds u - v once, so it must
    # match the outer difference bit for bit, at sf2 = 1 (no final scaling)
    # and away from it, through signed zeros, subnormals, and squares up to
    # 4e303 and past the float range (points up to 1e160 apart).
    assert one_dimensional_mismatches() == []


def test_one_dimensional_kernel_is_exact_at_one_and_two_blas_threads():
    src = str(Path(gpexperts.__file__).resolve().parents[1])
    tests = str(Path(__file__).resolve().parent)
    path = os.pathsep.join(filter(None, [src, tests, os.environ.get("PYTHONPATH")]))
    child = ("import json, test_kernels; "
             "print(json.dumps(test_kernels.one_dimensional_mismatches()))")
    for threads in ("1", "2"):
        env = {**os.environ, "PYTHONPATH": path, "OPENBLAS_NUM_THREADS": threads}
        proc = subprocess.run([sys.executable, "-c", child], capture_output=True,
                              text=True, check=True, env=env)
        assert json.loads(proc.stdout) == [], threads


def test_matrix_far_points_decay_to_zero():
    hp = Hyperparams(1.0, [1.0], 0.0)
    k = kernel_matrix(np.array([[0.0]]), np.array([[1e4]]), hp)
    assert k[0, 0] == 0.0
    # (1e160)^2 overflows to inf, and exp(-inf) = 0 is the right value
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        k = kernel_matrix([0.0], [1e160], Hyperparams(1.0, 1.0, 0.1))
    assert k.tobytes() == np.zeros((1, 1)).tobytes()


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
        kp = kernel_matrix(x, x, from_log_vector(tp))
        km = kernel_matrix(x, x, from_log_vector(tm))
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


def test_inputs_of_three_dimensions_are_rejected_by_shape():
    # (2, 3, 1) is not two rows of three inputs: the error names its shape.
    hp = Hyperparams(1.0, [1.0], 0.1)
    cube = np.zeros((2, 3, 1))
    for x, x2 in ((cube, np.zeros((2, 1))), (np.zeros(2), cube)):
        with pytest.raises(ValueError, match=r"1-D or 2-D array, got shape \(2, 3, 1\)"):
            kernel_matrix(x, x2, hp)
    with pytest.raises(ValueError, match=r"got shape \(\)"):
        kernel_matrix(0.5, np.zeros(2), hp)


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
    # lengthscales are a non-empty 1-D array; a scalar is one of them
    for bad, shape in (([[0.5, 0.7]], r"\(1, 2\)"), ([[0.5], [0.7]], r"\(2, 1\)"),
                       ([], r"\(0,\)")):
        with pytest.raises(ValueError, match=f"lengthscales .* shape {shape}"):
            Hyperparams(1.0, bad, 0.1)
    assert Hyperparams(1.0, 0.5, 0.1).dim == 1


@pytest.mark.parametrize("dim", [1, 8])
def test_hyperparams_compare_and_hash_by_value(dim):
    ls = np.linspace(0.5, 2.0, dim)
    hp = Hyperparams(1.3, ls, 0.1)
    same = Hyperparams(1.3, list(ls), 0.1)
    assert hp == same and not hp != same
    assert hash(hp) == hash(same) and len({hp, same}) == 1
    moved = ls.copy()
    moved[-1] *= 1.5
    for other in (Hyperparams(1.4, ls, 0.1), Hyperparams(1.3, moved, 0.1),
                  Hyperparams(1.3, ls, 0.2), Hyperparams(1.3, np.ones(dim + 1), 0.1)):
        assert hp != other and not hp == other
    assert hp != tuple(ls)


@pytest.mark.parametrize("field", ["signal_variance", "lengthscales", "noise_variance"])
def test_hyperparams_reject_nan_naming_the_field(field):
    values = {"signal_variance": 1.0, "lengthscales": [1.0, 2.0], "noise_variance": 0.1}
    values[field] = [1.0, np.nan] if field == "lengthscales" else np.nan
    with pytest.raises(ValueError, match=field):
        Hyperparams(**values)


def test_hyperparams_leave_infinities_to_the_range_checks():
    # Training can reach +inf through the exp of its log search; it stays legal.
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
    back = from_log_vector(theta)
    assert back.signal_variance == pytest.approx(2.0)
    np.testing.assert_allclose(back.lengthscales, [0.3, 0.9, 4.0])
    assert back.noise_variance == pytest.approx(0.01)


def test_kernel_matrix_allocates_only_its_output():
    rng = np.random.default_rng(4)
    for hp in (Hyperparams(1.5, [0.1, 0.2], 0.0), Hyperparams(1.5, np.full(8, 0.3), 0.0)):
        x, x2 = rng.uniform(size=(500, hp.dim)), rng.uniform(size=(300, hp.dim))
        tracemalloc.start()
        try:
            k = kernel_matrix(x, x2, hp)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.1 * k.nbytes
