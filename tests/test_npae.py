"""Dependent-expert aggregation through the joint covariance of expert means."""

import numpy as np
import pytest

import gpexperts.npae
from conftest import expert_weights, manual_ensemble
from gpexperts import (
    Hyperparams,
    expert_predict,
    kernel_matrix,
    npae_aggregate,
    partition_kmeans,
    pointwise_cov,
    train_ensemble,
)
from gpexperts.linalg import solve_psd_robust
from gpexperts.npae import _assemble


def make_ensemble(n=30, m=3, seed=0, noise=0.1):
    rng = np.random.default_rng(seed)
    x = rng.uniform(0, 1, size=(n, 1))
    y = np.sin(5 * x).ravel() + noise * rng.normal(size=n)
    parts = partition_kmeans(x, m, seed=seed + 1)
    return train_ensemble(x, y, parts, restarts=1, seed=seed + 2)


def dense_cov_oracle(ensemble, x_star, noise_free_diag):
    """Covariance pieces from explicit per-expert weight vectors."""
    hp = ensemble.hp
    m = ensemble.n_experts
    gammas = [expert_weights(e, x_star).ravel() for e in ensemble.experts]
    k_star = [kernel_matrix(e.x, x_star, hp).ravel() for e in ensemble.experts]
    ka = np.array([g @ k for g, k in zip(gammas, k_star)])
    big = np.empty((m, m))
    for i in range(m):
        for j in range(m):
            cross = kernel_matrix(ensemble.experts[i].x, ensemble.experts[j].x, hp)
            if i == j and not noise_free_diag:
                cross = cross + hp.noise_variance * np.eye(cross.shape[0])
            big[i, j] = gammas[i] @ cross @ gammas[j]
    return ka, big


@pytest.mark.parametrize("noise_free", [False, True])
def test_pointwise_cov_matches_dense_construction(noise_free):
    ens = make_ensemble(36, 3, seed=1)
    x_star = np.array([[0.4]])
    pc = pointwise_cov(ens, x_star, noise_free_diag=noise_free)
    ka, big = dense_cov_oracle(ens, x_star, noise_free)
    np.testing.assert_allclose(pc.target_cov, ka, rtol=1e-9, atol=1e-12)
    np.testing.assert_allclose(pc.mean_cov, big, rtol=1e-9, atol=1e-12)
    assert pc.prior_var == ens.hp.signal_variance


def test_single_expert_cov_collapses_to_scalar_identity():
    # with the noisy diagonal, kA and KA coincide at k*' C^{-1} k* for any noise
    for noise in (0.0, 0.3):
        hp = Hyperparams(1.0, [0.5], noise)
        x = np.array([[0.0], [0.7], [1.3]])
        y = np.array([0.5, -0.2, 0.9])
        ens = manual_ensemble([(x, y)], hp)
        pc = pointwise_cov(ens, np.array([[0.4]]))
        c = kernel_matrix(x, x, hp) + noise * np.eye(3)
        ks = kernel_matrix(x, np.array([[0.4]]), hp).ravel()
        expected = ks @ np.linalg.solve(c, ks)
        assert pc.target_cov[0] == pytest.approx(expected, rel=1e-10)
        assert pc.mean_cov[0, 0] == pytest.approx(expected, rel=1e-10)


def test_duplicate_experts_are_perfectly_correlated_without_noise():
    hp = Hyperparams(1.0, [0.5], 0.2)
    x = np.array([[0.0], [0.7], [1.3]])
    y = np.array([0.5, -0.2, 0.9])
    ens = manual_ensemble([(x, y), (x, y)], hp)
    clean = pointwise_cov(ens, np.array([[0.4]]), noise_free_diag=True)
    assert clean.mean_cov[0, 0] == pytest.approx(clean.mean_cov[0, 1], rel=1e-12)
    # the noisy diagonal strictly dominates the cross term
    noisy = pointwise_cov(ens, np.array([[0.4]]))
    assert noisy.mean_cov[0, 0] > noisy.mean_cov[0, 1]


def test_aggregate_single_expert_returns_expert_prediction():
    ens = make_ensemble(25, 1, seed=2)
    xs = np.linspace(0, 1, 11)[:, None]
    agg = npae_aggregate(ens, xs)
    ref = expert_predict(ens.experts[0], xs)
    np.testing.assert_allclose(agg.means, ref.means, atol=1e-10)
    np.testing.assert_allclose(agg.variances, ref.variances, atol=1e-10)


def test_aggregate_duplicate_experts_equals_single_expert():
    # with the noise-free diagonal the two-expert system is exactly singular,
    # so the pseudo-inverse must reproduce the one-expert aggregation
    hp = Hyperparams(1.2, [0.4], 0.15)
    rng = np.random.default_rng(3)
    x = rng.uniform(0, 1, size=(12, 1))
    y = np.cos(4 * x).ravel() + 0.1 * rng.normal(size=12)
    single = manual_ensemble([(x, y)], hp)
    double = manual_ensemble([(x, y), (x, y)], hp)
    xs = np.linspace(-0.1, 1.1, 9)[:, None]
    a = npae_aggregate(single, xs, noise_free_diag=True)
    b = npae_aggregate(double, xs, noise_free_diag=True)
    np.testing.assert_allclose(b.means, a.means, atol=1e-6)
    np.testing.assert_allclose(b.variances, a.variances, atol=1e-6)


def test_aggregate_full_subset_is_default():
    ens = make_ensemble(30, 3, seed=4)
    xs = np.linspace(0, 1, 7)[:, None]
    a = npae_aggregate(ens, xs)
    b = npae_aggregate(ens, xs, subset=np.arange(3))
    np.testing.assert_array_equal(a.means, b.means)
    np.testing.assert_array_equal(a.variances, b.variances)


def test_aggregate_subset_of_one_is_that_expert():
    ens = make_ensemble(30, 3, seed=5)
    xs = np.linspace(0, 1, 7)[:, None]
    agg = npae_aggregate(ens, xs, subset=[1])
    ref = expert_predict(ens.experts[1], xs)
    np.testing.assert_allclose(agg.means, ref.means, atol=1e-9)
    np.testing.assert_allclose(agg.variances, ref.variances, atol=1e-9)


def test_no_weight_vector_beats_the_solved_one():
    # expected squared error prior - 2 w'kA + w'KA w is minimized by the solve
    ens = make_ensemble(45, 3, seed=6)
    pc = pointwise_cov(ens, np.array([[0.55]]))
    w_star = np.linalg.solve(pc.mean_cov, pc.target_cov)

    def expected_sq_err(w):
        return pc.prior_var - 2 * w @ pc.target_cov + w @ pc.mean_cov @ w

    best = expected_sq_err(w_star)
    deltas = np.array([-0.1, 0.0, 0.1])
    for da in deltas:
        for db in deltas:
            for dc in deltas:
                w = w_star + np.array([da, db, dc])
                assert expected_sq_err(w) >= best - 1e-6


def test_variance_stays_within_prior_band():
    ens = make_ensemble(40, 4, seed=7)
    xs = np.linspace(-0.5, 1.5, 60)[:, None]
    agg = npae_aggregate(ens, xs)
    assert np.all(agg.variances >= 0.0)
    assert np.all(agg.variances <= ens.hp.signal_variance + 1e-12)
    assert agg.failed is None


def test_far_from_everything_reverts_to_prior():
    ens = make_ensemble(30, 3, seed=8)
    agg = npae_aggregate(ens, np.array([[1e4]]))
    assert agg.means[0] == pytest.approx(0.0, abs=1e-8)
    assert agg.variances[0] == pytest.approx(ens.hp.signal_variance, rel=1e-8)


def test_empty_subset_rejected():
    ens = make_ensemble(30, 3, seed=9)
    with pytest.raises(ValueError):
        npae_aggregate(ens, np.array([[0.5]]), subset=[])


def per_point_reference(target_cov, mean_cov, means, prior_var):
    """NPAE from assembled pieces with one robust solve per test point."""
    nt = target_cov.shape[0]
    out_mean, out_var = np.zeros(nt), np.full(nt, prior_var)
    for t in range(nt):
        sol = solve_psd_robust(mean_cov[t], np.column_stack([means[t], target_cov[t]]))
        mean = target_cov[t] @ sol[:, 0]
        var = prior_var - target_cov[t] @ sol[:, 1]
        if np.isfinite(mean) and np.isfinite(var):
            out_mean[t], out_var[t] = mean, min(max(var, 0.0), prior_var)
    return out_mean, out_var


@pytest.mark.parametrize("noise_free", [False, True])
def test_batched_solve_matches_per_point_robust_solves(noise_free):
    ens = make_ensemble(120, 5, seed=10)
    xs = np.linspace(-0.2, 1.2, 80)[:, None]
    pieces = _assemble(ens, xs, np.arange(5), noise_free)
    mean, var = per_point_reference(*pieces, ens.hp.signal_variance)
    agg = npae_aggregate(ens, xs, noise_free_diag=noise_free)
    assert agg.failed is None
    np.testing.assert_allclose(agg.means, mean, rtol=1e-10, atol=1e-14)
    np.testing.assert_allclose(agg.variances, var, rtol=1e-10, atol=1e-14)


def test_points_that_fail_to_factor_take_the_robust_path(monkeypatch):
    # Points 3, 17 and 18 get a second expert that duplicates the first with
    # a smaller variance, so their M is indefinite and has no Cholesky factor.
    ens = make_ensemble(90, 4, seed=11)
    xs = np.linspace(0.0, 1.0, 25)[:, None]
    bad = [3, 17, 18]
    clean = _assemble(ens, xs, np.arange(4), False)
    target_cov, mean_cov, means = (a.copy() for a in clean)
    for t in bad:
        mean_cov[t, 1, :] = mean_cov[t, 0, :]
        mean_cov[t, :, 1] = mean_cov[t, :, 0]
        mean_cov[t, 1, 1] = 0.9 * mean_cov[t, 0, 0]
        target_cov[t, 1], means[t, 1] = target_cov[t, 0], means[t, 0]
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.cholesky(mean_cov[t])

    robust_calls = []

    def counted(*args, **kwargs):
        robust_calls.append(1)
        return solve_psd_robust(*args, **kwargs)

    monkeypatch.setattr(
        gpexperts.npae, "_assemble", lambda *a: (target_cov, mean_cov, means)
    )
    monkeypatch.setattr(gpexperts.npae, "solve_psd_robust", counted)
    agg = npae_aggregate(ens, xs)
    assert len(robust_calls) == len(bad)  # the other points stayed in the batch

    prior = ens.hp.signal_variance
    ref_mean, ref_var = per_point_reference(target_cov, mean_cov, means, prior)
    np.testing.assert_array_equal(agg.means[bad], ref_mean[bad])
    np.testing.assert_array_equal(agg.variances[bad], ref_var[bad])
    monkeypatch.setattr(gpexperts.npae, "_assemble", lambda *a: clean)
    batched = npae_aggregate(ens, xs)
    good = np.setdiff1d(np.arange(xs.shape[0]), bad)
    np.testing.assert_array_equal(agg.means[good], batched.means[good])
    np.testing.assert_array_equal(agg.variances[good], batched.variances[good])
    assert agg.failed is None and batched.failed is None


def test_point_with_non_finite_cov_reverts_to_prior_and_is_flagged(monkeypatch):
    ens = make_ensemble(60, 3, seed=12)
    xs = np.linspace(0.0, 1.0, 6)[:, None]
    target_cov, mean_cov, means = (
        a.copy() for a in _assemble(ens, xs, np.arange(3), False)
    )
    mean_cov[2, 1, 0] = mean_cov[2, 0, 1] = np.nan
    monkeypatch.setattr(
        gpexperts.npae, "_assemble", lambda *a: (target_cov, mean_cov, means)
    )
    agg = npae_aggregate(ens, xs)
    np.testing.assert_array_equal(agg.failed, np.arange(6) == 2)
    assert agg.means[2] == 0.0 and agg.variances[2] == ens.hp.signal_variance
    assert np.all(agg.variances[agg.failed == 0] < ens.hp.signal_variance)
