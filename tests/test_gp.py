"""Exact GP training: marginal likelihood, gradients, and prediction."""

import tracemalloc

import numpy as np
import pytest

import gpexperts.gp
from gpexperts import (
    Hyperparams,
    PredictiveDist,
    SingularMatrixError,
    TrainingError,
    fit,
    gp_predict,
    kernel_matrix,
    log_marginal_likelihood,
    partition_kmeans,
    train_ensemble,
)
from conftest import force_jitter
from gpexperts.gp import factorize
from gpexperts.kernels import kernel_grad


def sample_problem(n=6, d=2, seed=0, noise=0.1):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, d))
    y = np.sin(x[:, 0]) + 0.5 * x[:, -1] + noise * rng.normal(size=n)
    return x, y


def test_lml_single_zero_observation_closed_form():
    # C = [[2]], quadratic term vanishes: lml = -0.5 * log(4 * pi)
    hp = Hyperparams(1.0, [1.0], 1.0)
    value, _ = log_marginal_likelihood(np.array([[0.0]]), np.array([0.0]), hp)
    assert value == pytest.approx(-0.5 * np.log(4.0 * np.pi), abs=1e-12)


def test_lml_zero_targets_leaves_only_determinant_terms():
    x, _ = sample_problem(5, 2, seed=1)
    hp = Hyperparams(1.5, [0.8, 1.2], 0.3)
    value, _ = log_marginal_likelihood(x, np.zeros(5), hp)
    from gpexperts import kernel_matrix

    c = kernel_matrix(x, x, hp) + hp.noise_variance * np.eye(5)
    expected = -0.5 * np.linalg.slogdet(c)[1] - 0.5 * 5 * np.log(2.0 * np.pi)
    assert value == pytest.approx(expected, rel=1e-10)


def test_lml_matches_dense_formula():
    x, y = sample_problem(7, 3, seed=2)
    hp = Hyperparams(0.9, [0.5, 1.5, 2.0], 0.2)
    value, _ = log_marginal_likelihood(x, y, hp)
    from gpexperts import kernel_matrix

    c = kernel_matrix(x, x, hp) + hp.noise_variance * np.eye(7)
    expected = (
        -0.5 * y @ np.linalg.solve(c, y)
        - 0.5 * np.linalg.slogdet(c)[1]
        - 0.5 * 7 * np.log(2.0 * np.pi)
    )
    assert value == pytest.approx(expected, rel=1e-10)


def test_lml_gradient_matches_finite_differences():
    x, y = sample_problem(6, 3, seed=3)
    hp = Hyperparams(1.2, [0.7, 1.1, 0.4], 0.15)
    _, grad = log_marginal_likelihood(x, y, hp)
    theta = hp.to_log_vector()
    h = 1e-6
    for j in range(theta.shape[0]):
        tp, tm = theta.copy(), theta.copy()
        tp[j] += h
        tm[j] -= h
        vp, _ = log_marginal_likelihood(x, y, Hyperparams.from_log_vector(tp))
        vm, _ = log_marginal_likelihood(x, y, Hyperparams.from_log_vector(tm))
        fd = (vp - vm) / (2.0 * h)
        assert abs(grad[j] - fd) / max(abs(fd), 1e-8) < 1e-5


def dense_gradient(x, y, hp):
    """0.5 * tr((alpha alpha^T - C^{-1}) dC_j) from the full kernel_grad tensor."""
    c = kernel_matrix(x, x, hp) + hp.noise_variance * np.eye(x.shape[0])
    c_inv = np.linalg.inv(c)
    alpha = c_inv @ y
    a = np.outer(alpha, alpha) - c_inv
    dk = kernel_grad(x, hp)
    traces = [0.5 * np.sum(a * dk[j]) for j in range(hp.dim + 1)]
    return np.array(traces + [0.5 * hp.noise_variance * np.trace(a)])


@pytest.mark.parametrize("shift", [0.0, 1e3, 1e4])
@pytest.mark.parametrize("d, n", [(1, 200), (8, 150)])
def test_lml_gradient_matches_dense_traces(d, n, shift):
    # Shifted inputs guard the centering of the lengthscale traces against
    # cancellation in sum_ij B_ij (x_i - x_j)^2.  Without it the error is
    # about 4e-9 at +1e3 and 3e-7 at +1e4; with it, about 1e-14.
    rng = np.random.default_rng(d)
    x = rng.uniform(-1.0, 1.0, size=(n, d))
    y = np.sin(3.0 * x[:, 0]) + 0.1 * rng.normal(size=n)
    hp = Hyperparams(1.3, rng.uniform(0.3, 2.0, size=d), 0.05)
    _, grad = log_marginal_likelihood(x + shift, y, hp)
    np.testing.assert_allclose(grad, dense_gradient(x + shift, y, hp), rtol=1e-8)


def test_lml_builds_the_kernel_matrix_once(monkeypatch):
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return kernel_matrix(*args, **kwargs)

    monkeypatch.setattr(gpexperts.gp, "kernel_matrix", counted)
    x, y = sample_problem(20, 3, seed=14)
    log_marginal_likelihood(x, y, Hyperparams(1.0, [1.0, 0.5, 2.0], 0.1))
    assert len(calls) == 1


@pytest.mark.parametrize("d", [1, 8])
def test_core_on_a_prepared_part_matches_the_public_function(d):
    # Training prepares a part once and reuses it for every evaluation, so
    # a core call must leave the prepared part as it found it.
    x, y = sample_problem(40, d, seed=15)
    part = gpexperts.gp._prepare_part(x, y)
    for hp in (Hyperparams(1.3, np.linspace(0.5, 2.0, d), 0.05),
               Hyperparams(0.7, np.linspace(2.0, 0.3, d), 0.2)):
        value, grad, jitter = gpexperts.gp._lml(*part, hp)
        expected_value, expected_grad = log_marginal_likelihood(x, y, hp)
        assert value == expected_value and jitter == 0.0
        np.testing.assert_array_equal(grad, expected_grad)


def test_lml_invariant_to_data_order():
    x, y = sample_problem(8, 2, seed=4)
    hp = Hyperparams(1.0, [1.0, 1.0], 0.1)
    v1, g1 = log_marginal_likelihood(x, y, hp)
    perm = np.random.default_rng(0).permutation(8)
    v2, g2 = log_marginal_likelihood(x[perm], y[perm], hp)
    assert v1 == pytest.approx(v2, rel=1e-12)
    np.testing.assert_allclose(g1, g2, rtol=1e-9, atol=1e-12)


def test_fit_reaches_at_least_the_generating_hyperparams():
    rng = np.random.default_rng(5)
    true = Hyperparams(1.0, [0.5], 0.05)
    x = rng.uniform(-2, 2, size=(60, 1))
    from gpexperts import kernel_matrix

    k = kernel_matrix(x, x, true) + true.noise_variance * np.eye(60)
    y = np.linalg.cholesky(k + 1e-12 * np.eye(60)) @ rng.normal(size=60)
    model = fit(x, y, restarts=2, seed=0)
    fitted, _ = log_marginal_likelihood(x, y, model.hp)
    reference, _ = log_marginal_likelihood(x, y, true)
    assert fitted >= reference - 1e-6


def test_fit_conflicting_duplicates_keeps_noise_positive():
    # same input, different targets: only observation noise can explain it
    x = np.array([[0.0], [0.0], [1.0], [1.0]])
    y = np.array([1.0, -1.0, 2.0, 0.0])
    model = fit(x, y, restarts=2, seed=0)
    assert model.hp.noise_variance > 1e-3


def test_fit_is_deterministic():
    x, y = sample_problem(30, 2, seed=6)
    a = fit(x, y, restarts=3, seed=7)
    b = fit(x, y, restarts=3, seed=7)
    assert a.hp.signal_variance == b.hp.signal_variance
    np.testing.assert_array_equal(a.hp.lengthscales, b.hp.lengthscales)
    assert a.hp.noise_variance == b.hp.noise_variance


def test_more_restarts_never_lose_likelihood():
    # restart 0 always evaluates the plain init, so best-of includes it
    x, y = sample_problem(25, 2, seed=8)
    one = fit(x, y, restarts=1, seed=9)
    three = fit(x, y, restarts=3, seed=9)
    l1, _ = log_marginal_likelihood(x, y, one.hp)
    l3, _ = log_marginal_likelihood(x, y, three.hp)
    assert l3 >= l1 - 1e-9


def test_fit_records_its_training(monkeypatch):
    calls = []
    core = gpexperts.gp._lml

    def counted(*args, **kwargs):
        calls.append(1)
        return core(*args, **kwargs)

    monkeypatch.setattr(gpexperts.gp, "_lml", counted)
    x, y = sample_problem(25, 2, seed=8)
    model = fit(x, y, restarts=2, seed=9)
    info = model.training
    assert info.evaluations == len(calls)
    assert info.evaluations > info.iterations >= 1
    assert info.converged and info.failed_restarts == 0
    assert model.jitter == 0.0


def test_failed_restarts_are_skipped_and_counted(monkeypatch):
    # The likelihood raises at every point off restart 0's own path, so the
    # two perturbed restarts fail at their first evaluation.
    x, y = sample_problem(25, 2, seed=8)
    path = set()
    core = gpexperts.gp._lml

    def recording(px, py, pz, hp):
        path.add(hp.to_log_vector().tobytes())
        return core(px, py, pz, hp)

    def failing_off_path(px, py, pz, hp):
        if hp.to_log_vector().tobytes() not in path:
            raise SingularMatrixError("off the first restart's path")
        return core(px, py, pz, hp)

    monkeypatch.setattr(gpexperts.gp, "_lml", recording)
    one = fit(x, y, restarts=1, seed=9)
    monkeypatch.setattr(gpexperts.gp, "_lml", failing_off_path)
    three = fit(x, y, restarts=3, seed=9)
    assert three.hp.signal_variance == one.hp.signal_variance
    np.testing.assert_array_equal(three.hp.lengthscales, one.hp.lengthscales)
    assert three.hp.noise_variance == one.hp.noise_variance
    assert three.training.failed_restarts == 2
    assert three.training.evaluations == one.training.evaluations + 2
    assert three.training.iterations == one.training.iterations


def test_fit_raises_when_every_restart_fails(monkeypatch):
    def failing(px, py, pz, hp):
        raise SingularMatrixError("no factor")

    monkeypatch.setattr(gpexperts.gp, "_lml", failing)
    x, y = sample_problem(25, 2, seed=8)
    with pytest.raises(TrainingError, match="all optimizer restarts") as caught:
        fit(x, y, restarts=3, seed=9)
    assert isinstance(caught.value.__cause__, SingularMatrixError)


def test_fit_needs_at_least_one_restart():
    x, y = sample_problem(8, 1, seed=3)
    with pytest.raises(ValueError, match="restarts must be >= 1"):
        fit(x, y, restarts=0)


def test_training_prepares_each_part_once(monkeypatch, small_data):
    prepared, seen, calls = [], {}, []
    prepare, core = gpexperts.gp._prepare_part, gpexperts.gp._lml

    def counted(x, y):
        prepared.append(1)
        return prepare(x, y)

    def recording(px, py, pz, hp):
        # Every part stays alive during training, so ids are not reused.
        calls.append(1)
        assert seen.setdefault(id(px), pz) is pz
        return core(px, py, pz, hp)

    monkeypatch.setattr(gpexperts.gp, "_prepare_part", counted)
    monkeypatch.setattr(gpexperts.gp, "_lml", recording)
    parts = partition_kmeans(small_data.x_train, 3, seed=1)
    ensemble = train_ensemble(small_data.x_train, small_data.y_train, parts, seed=2)
    assert ensemble.training.evaluations > 1
    assert len(prepared) == len(seen) == 3
    assert len(calls) == 3 * ensemble.training.evaluations


def test_training_reports_the_largest_jitter_it_needed(monkeypatch):
    x, y = sample_problem(25, 2, seed=8)
    assert fit(x, y, seed=9).training.max_jitter == 0.0
    runs = force_jitter(monkeypatch)
    model = fit(x, y, seed=9)
    assert len(runs) == 1 and min(runs[0]) > 0.0
    assert len(runs[0]) == model.training.evaluations
    assert model.training.max_jitter == max(runs[0])


def noise_input_problem():
    """120 points in 2-D whose targets ignore the second input."""
    rng = np.random.default_rng(0)
    x = rng.uniform(0.0, 1.0, size=(120, 2))
    y = np.sin(6.0 * x[:, 0]) + 0.1 * rng.normal(size=120)
    return x, y


def test_training_stops_on_a_small_relative_gain(monkeypatch):
    # The second input is pure noise, so the evidence keeps rising, by ever
    # smaller amounts, as that input's lengthscale l grows without bound.
    # The run stops once an iteration gains at most d = FTOL * |f|.  Near
    # l = oo the input's kernel terms are 1 - dx^2 / (2 l) + ..., so the
    # evidence nears its limit as A / l = A exp(-t) in t = log l; L-BFGS-B's
    # steps along t then leave gains that shrink by rho = exp(-dt) a step,
    # and all the gains a longer run could still make sum to
    # d * rho / (1 - rho).  That is below 10 d for steps dt of at least 0.1
    # (rho <= 0.905).  The 8-D table's gap was 4.9 d, and this data's is too.
    x, y = noise_input_problem()
    model = fit(x, y, seed=0)
    value, _ = log_marginal_likelihood(x, y, model.hp)
    bound = 10.0 * gpexperts.gp.FTOL * abs(value)
    # SciPy's own default: factr = 1e7 times the machine epsilon.
    monkeypatch.setattr(gpexperts.gp, "FTOL", 1e7 * np.finfo(float).eps)
    tight = fit(x, y, seed=0)
    tight_value, _ = log_marginal_likelihood(x, y, tight.hp)
    assert tight.training.evaluations > model.training.evaluations
    assert tight_value - value <= bound


def test_a_run_stopped_by_a_small_relative_gain_has_converged():
    # ``converged`` is SciPy's success flag, which the relative-reduction
    # test sets too, with the gradient still above GRAD_TOL.
    x, y = noise_input_problem()
    model = fit(x, y, seed=0)
    _, grad = log_marginal_likelihood(x, y, model.hp)
    assert np.abs(grad).max() > gpexperts.gp.GRAD_TOL
    assert model.training.converged


def test_a_run_capped_by_the_iteration_budget_has_not_converged(monkeypatch):
    monkeypatch.setattr(gpexperts.gp, "MAX_OPT_ITER", 2)
    x, y = noise_input_problem()
    model = fit(x, y, seed=0)
    assert model.training.iterations == 2
    assert not model.training.converged


@pytest.mark.parametrize("n", [30, 300])
def test_factorize_stores_the_inverse_cholesky_factor(n):
    # n=300 takes the recursive path of linalg.chol_with_jitter.
    x, y = sample_problem(n, 2, seed=14)
    hp = Hyperparams(1.5, [0.7, 1.2], 0.05)
    model = factorize(x, y, hp)
    c = kernel_matrix(x, x, hp) + hp.noise_variance * np.eye(n)
    assert not np.any(np.triu(model.chol_inv, 1))
    np.testing.assert_allclose(
        model.chol_inv @ c @ model.chol_inv.T, np.eye(n), atol=1e-10
    )
    np.testing.assert_allclose(model.alpha, np.linalg.solve(c, y), rtol=1e-10)


def test_predict_matches_dense_two_point_formula():
    x = np.array([[0.0], [1.0]])
    y = np.array([1.0, -1.0])
    hp = Hyperparams(1.0, [1.0], 0.1)
    model = factorize(x, y, hp)
    xs = np.array([[0.5], [2.0]])
    pred = gp_predict(model, xs)

    from gpexperts import kernel_matrix

    c = kernel_matrix(x, x, hp) + hp.noise_variance * np.eye(2)
    ks = kernel_matrix(x, xs, hp)
    mean = ks.T @ np.linalg.solve(c, y)
    var = hp.signal_variance - np.sum(ks * np.linalg.solve(c, ks), axis=0)
    np.testing.assert_allclose(pred.means, mean, rtol=1e-10, atol=1e-14)
    np.testing.assert_allclose(pred.variances, var, rtol=1e-8)


def test_predict_interpolates_with_tiny_noise():
    x = np.linspace(0, 1, 8)[:, None]
    y = np.sin(3 * x).ravel()
    model = factorize(x, y, Hyperparams(1.0, [0.05], 1e-10))
    pred = gp_predict(model, x)
    np.testing.assert_allclose(pred.means, y, atol=1e-4)
    assert pred.variances.max() < 1e-6


def test_predict_reverts_to_prior_far_away():
    x, y = sample_problem(10, 1, seed=10)
    hp = Hyperparams(1.3, [0.8], 0.1)
    model = factorize(x, y, hp)
    pred = gp_predict(model, np.array([[500.0]]))
    assert pred.means[0] == pytest.approx(0.0, abs=1e-10)
    assert pred.variances[0] == pytest.approx(hp.signal_variance, rel=1e-10)


def test_predict_variance_bounds():
    x, y = sample_problem(15, 2, seed=11)
    hp = Hyperparams(2.0, [1.0, 1.0], 0.3)
    model = factorize(x, y, hp)
    xs = np.random.default_rng(12).normal(size=(50, 2)) * 3
    pred = gp_predict(model, xs)
    assert np.all(pred.variances >= 0.0)
    assert np.all(pred.variances <= hp.signal_variance + 1e-12)


def test_nested_data_never_increases_variance():
    rng = np.random.default_rng(13)
    x = rng.uniform(-1, 1, size=(20, 1))
    y = np.cos(2 * x).ravel() + 0.05 * rng.normal(size=20)
    hp = Hyperparams(1.0, [0.3], 0.05)
    small = factorize(x[:10], y[:10], hp)
    big = factorize(x, y, hp)  # superset under the same hyperparameters
    xs = np.linspace(-1.5, 1.5, 40)[:, None]
    v_small = gp_predict(small, xs).variances
    v_big = gp_predict(big, xs).variances
    assert np.all(v_big <= v_small + 1e-8)


def test_predictive_dist_validation():
    with pytest.raises(ValueError):
        PredictiveDist(np.zeros(3), np.zeros(2))
    with pytest.raises(ValueError):
        PredictiveDist(np.zeros(2), np.array([0.1, -0.1]))
    assert len(PredictiveDist(np.zeros(4), np.ones(4))) == 4


def test_predictive_dist_rejects_nan_variances():
    with pytest.raises(ValueError, match="NaN"):
        PredictiveDist(np.zeros(2), np.array([0.1, np.nan]))


def test_training_data_must_be_finite():
    hp = Hyperparams(1.0, [1.0], 0.1)
    x = np.linspace(0.0, 1.0, 4)[:, None]
    with pytest.raises(ValueError, match="finite"):
        log_marginal_likelihood(x, np.array([0.0, np.nan, 1.0, 2.0]), hp)
    with pytest.raises(ValueError, match="finite"):
        fit(np.array([[0.0], [np.inf], [1.0]]), np.zeros(3))


def test_shape_validation():
    hp = Hyperparams(1.0, [1.0], 0.1)
    with pytest.raises(ValueError):
        log_marginal_likelihood(np.zeros((3, 1)), np.zeros(2), hp)
    with pytest.raises(ValueError):
        fit(np.zeros((0, 1)), np.zeros(0))


def peak_in_n_squared_doubles(func, n=400):
    """tracemalloc peak of one call at n=400, D=2, in units of n^2 doubles."""
    x, y = sample_problem(n=n, d=2, seed=9)
    hp = Hyperparams(1.0, [0.3, 0.3], 0.1)
    tracemalloc.start()
    try:
        func(x, y, hp)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak / (8 * n**2)


def test_likelihood_holds_one_n_by_n_buffer():
    # K above the diagonal and C, W, C^{-1}, C^{-1} o K on and below it share
    # one buffer; the factorization adds at most two half-order blocks
    # (n^2 / 2 doubles), plus n x (D + 1) temporaries.  A second full
    # matrix would peak above 2 n^2 doubles.
    assert peak_in_n_squared_doubles(log_marginal_likelihood) <= 1.6


def test_factorize_holds_one_n_by_n_buffer():
    # The model keeps the kernel buffer as L^{-1}; the same bound holds.
    assert peak_in_n_squared_doubles(factorize) <= 1.6
