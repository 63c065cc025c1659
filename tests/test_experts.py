"""Local expert training on a shared set of hyperparameters."""

import re

import numpy as np
import pytest
from scipy.linalg import solve_triangular

import gpexperts.experts
import gpexperts.gp
from conftest import expert_weights
from gpexperts import (
    ExpertEnsemble,
    Hyperparams,
    Partitioning,
    bcm_aggregate,
    expert_graph,
    fit,
    gp_predict,
    grbcm_aggregate,
    kernel_matrix,
    npae_aggregate,
    partition_kmeans,
    poe_aggregate,
    synth_dataset,
    train_ensemble,
)
from gpexperts.gp import _latent_variance, factorize


def sample_problem(n=40, seed=0):
    rng = np.random.default_rng(seed)
    x = rng.uniform(0, 1, size=(n, 1))
    y = np.sin(6 * x).ravel() + 0.1 * rng.normal(size=n)
    return x, y


def test_single_part_reproduces_full_gp_exactly():
    # one expert runs through the very same optimizer path as the full model
    x, y = sample_problem(50, seed=1)
    parts = partition_kmeans(x, 1, seed=0)
    ens = train_ensemble(x, y, parts, restarts=1, seed=2)
    full = fit(x, y, restarts=1, seed=2)
    assert ens.hp.signal_variance == full.hp.signal_variance
    np.testing.assert_array_equal(ens.hp.lengthscales, full.hp.lengthscales)
    assert ens.hp.noise_variance == full.hp.noise_variance

    xs = np.linspace(-0.2, 1.2, 25)[:, None]
    mine = gp_predict(ens.experts[0], xs)
    ref = gp_predict(full, xs)
    np.testing.assert_array_equal(mine.means, ref.means)
    np.testing.assert_array_equal(mine.variances, ref.variances)


def test_identical_parts_give_identical_experts():
    xa, ya = sample_problem(20, seed=3)
    x = np.vstack([xa, xa])
    y = np.concatenate([ya, ya])
    parts = Partitioning(np.repeat([0, 1], 20), 2)
    ens = train_ensemble(x, y, parts, restarts=1, seed=0)
    xs = np.linspace(0, 1, 15)[:, None]
    p0 = gp_predict(ens.experts[0], xs)
    p1 = gp_predict(ens.experts[1], xs)
    np.testing.assert_array_equal(p0.means, p1.means)
    np.testing.assert_array_equal(p0.variances, p1.variances)


def test_training_is_deterministic(small_data):
    parts = partition_kmeans(small_data.x_train, 3, seed=1)
    a = train_ensemble(small_data.x_train, small_data.y_train, parts, seed=2)
    b = train_ensemble(small_data.x_train, small_data.y_train, parts, seed=2)
    assert a.hp == b.hp
    for ea, eb in zip(a.experts, b.experts):
        np.testing.assert_array_equal(ea.alpha, eb.alpha)


def test_expert_metadata(small_ensemble, small_data):
    assert small_ensemble.n_experts == 3
    total = sum(e.x.shape[0] for e in small_ensemble.experts)
    assert total == small_data.n_train
    for e in small_ensemble.experts:
        assert e.hp == small_ensemble.hp


def test_expert_two_point_closed_form():
    x = np.array([[0.0], [1.0]])
    y = np.array([1.0, -1.0])
    hp = Hyperparams(1.0, [1.0], 0.1)
    e = factorize(x, y, hp)
    xs = np.array([[0.25]])
    pred = gp_predict(e, xs)

    from gpexperts import kernel_matrix

    c = kernel_matrix(x, x, hp) + hp.noise_variance * np.eye(2)
    ks = kernel_matrix(x, xs, hp)
    np.testing.assert_allclose(pred.means, ks.T @ np.linalg.solve(c, y), rtol=1e-10)
    expected_var = hp.signal_variance - ks.T @ np.linalg.solve(c, ks)
    np.testing.assert_allclose(pred.variances, expected_var.ravel(), rtol=1e-8)


def test_expert_variance_bounds(small_ensemble, small_grid):
    for e in small_ensemble.experts:
        v = gp_predict(e, small_grid).variances
        assert np.all(v >= 0.0)
        assert np.all(v <= small_ensemble.hp.signal_variance + 1e-12)


def test_expert_reverts_to_prior_far_away(small_ensemble):
    pred = gp_predict(small_ensemble.experts[0], np.array([[1e4]]))
    assert pred.means[0] == pytest.approx(0.0, abs=1e-12)
    assert pred.variances[0] == pytest.approx(
        small_ensemble.hp.signal_variance, rel=1e-12
    )


def test_variances_match_a_triangular_solve_on_a_trained_model():
    # Criterion 01's data: trained noise about 0.004 leaves C with a condition
    # number near 6e4.  sigma^2 - ||L^{-1} k||^2 stays within 1e-14 of the
    # triangular-solve form; the quadratic form sigma^2 - k^T C^{-1} k with
    # C^{-1} from dpotri is off by 6e-12 here, which the 1e-12 bound rejects.
    ds = synth_dataset(n=300, n_test=30, seed=0)
    ens = train_ensemble(
        ds.x_train, ds.y_train, partition_kmeans(ds.x_train, 1, seed=1), seed=2
    )
    full = fit(ds.x_train, ds.y_train, seed=2)
    hp = full.hp
    assert 0.002 < hp.noise_variance < 0.008
    c = kernel_matrix(ds.x_train, ds.x_train, hp)
    c[np.diag_indices_from(c)] += hp.noise_variance
    v = solve_triangular(
        np.linalg.cholesky(c), kernel_matrix(ds.x_train, ds.x_test, hp), lower=True
    )
    ref = np.maximum(hp.signal_variance - np.sum(v * v, axis=0), 0.0)
    preds = gp_predict(full, ds.x_test), gp_predict(ens.experts[0], ds.x_test)
    for pred in preds:
        np.testing.assert_allclose(pred.variances, ref, rtol=0.0, atol=1e-12)


def test_weights_reproduce_posterior_mean(small_ensemble, small_grid):
    for e in small_ensemble.experts:
        w = expert_weights(e, small_grid)
        assert w.shape == (small_grid.shape[0], e.x.shape[0])
        mean = gp_predict(e, small_grid).means
        assert np.abs(w @ e.y - mean).max() <= 1e-10


def test_weights_singleton_identity_with_zero_noise():
    hp = Hyperparams(1.0, [1.0], 0.0)
    e = factorize(np.array([[0.5]]), np.array([2.0]), hp)
    w = expert_weights(e, np.array([[0.5]]))
    np.testing.assert_allclose(w, [[1.0]], atol=1e-12)


def test_weights_vanish_far_away(small_ensemble):
    w = expert_weights(small_ensemble.experts[0], np.array([[1e4]]))
    assert np.abs(w).max() == 0.0


def test_subset_validation(small_ensemble, small_grid):
    np.testing.assert_array_equal(small_ensemble.subset_or_all(None), [0, 1, 2])
    np.testing.assert_array_equal(small_ensemble.subset_or_all([2, 0]), [2, 0])
    with pytest.raises(ValueError):
        small_ensemble.subset_or_all([])
    with pytest.raises(ValueError):
        small_ensemble.subset_or_all([0, 0])
    with pytest.raises(ValueError):
        small_ensemble.subset_or_all([3])
    with pytest.raises(ValueError, match="integers"):
        small_ensemble.subset_or_all([0.9, 1.7])  # would truncate to [0, 1]
    with pytest.raises(ValueError, match="integers"):
        small_ensemble.subset_or_all([True, False, True])
    for subset, shape in ((2, "()"), (np.int64(1), "()"), ([[0, 1], [2, 3]], "(2, 2)")):
        message = re.escape(f"expert subset must be a 1-D array, got shape {shape}")
        with pytest.raises(ValueError, match=message):
            small_ensemble.subset_or_all(subset)
    for rule in (npae_aggregate, poe_aggregate):
        with pytest.raises(ValueError, match="expert subset must be a 1-D array"):
            rule(small_ensemble, small_grid, subset=2)


def test_a_list_built_partition_trains_the_same_ensemble_as_an_array_built_one():
    x, y = sample_problem(30, seed=5)
    assign = [0, 1, 2] * 10
    xs = np.linspace(-0.1, 1.1, 9)[:, None]
    listed, arrayed = (train_ensemble(x, y, Partitioning(a, 3), restarts=1, seed=0)
                       for a in (assign, np.array(assign)))
    assert listed.hp == arrayed.hp
    for el, ea in zip(listed.experts, arrayed.experts):
        assert el.x.tobytes() == ea.x.tobytes()
        assert el.alpha.tobytes() == ea.alpha.tobytes()
    assert listed.moments(xs)[0].tobytes() == arrayed.moments(xs)[0].tobytes()


def test_partition_must_cover_training_set():
    x, y = sample_problem(10, seed=4)
    parts = Partitioning(np.zeros(8, dtype=int), 1)
    with pytest.raises(ValueError):
        train_ensemble(x, y, parts)


def test_ensemble_is_plain_data(small_ensemble):
    assert isinstance(small_ensemble, ExpertEnsemble)
    assert small_ensemble.n_experts == 3


def test_each_member_is_predicted_once_per_test_set(
    small_ensemble, small_data, monkeypatch
):
    # a fresh ensemble over the same experts, so nothing is memoized yet
    ens = ExpertEnsemble(small_ensemble.experts, small_ensemble.hp)
    calls = []
    member_pass = gpexperts.gp._member_pass

    def counted(model, xs):
        calls.append(model)
        return member_pass(model, xs)

    monkeypatch.setattr(gpexperts.gp, "_member_pass", counted)
    monkeypatch.setattr(gpexperts.experts, "_member_pass", counted)
    xs = small_data.x_test.copy()
    graph = expert_graph(ens, xs, lam=0.05)
    poe_aggregate(ens, xs)
    bcm_aggregate(ens, xs, scheme="diff_entropy")
    grbcm_aggregate(ens, xs, int(graph.order[0]))
    npae_aggregate(ens, xs)
    npae_aggregate(ens, xs, subset=graph.selected)
    members = [c for c in calls if any(c is e for e in ens.experts)]
    assert len(members) == ens.n_experts
    assert all(any(c is e for c in members) for e in ens.experts)
    assert len(calls) == ens.n_experts

    def assert_direct(points, subset=(0, 1, 2)):
        means, c = ens.moments(points, list(subset))
        assert means.flags.c_contiguous and c.flags.c_contiguous
        variances = _latent_variance(ens.hp, c)
        for col, i in enumerate(subset):
            ref = gp_predict(ens.experts[i], points)
            np.testing.assert_array_equal(means[:, col], ref.means)
            np.testing.assert_array_equal(variances[:, col], ref.variances)

    assert_direct(xs, (2, 0))
    xs *= 0.5  # the caller's array changes in place after a call
    assert_direct(xs)
    assert_direct(xs + 0.1)  # a new test set of the same shape


@pytest.mark.parametrize("one_d", [False, True])
def test_a_rejected_test_set_keeps_the_memo(
    small_ensemble, small_grid, monkeypatch, one_d
):
    ens = ExpertEnsemble(small_ensemble.experts, small_ensemble.hp)
    calls = []
    member_pass = gpexperts.experts._member_pass

    def counted(model, xs):
        # whether the memo already holds the test set being filled
        calls.append(ens._memo is not None and np.array_equal(ens._memo[0], xs))
        return member_pass(model, xs)

    monkeypatch.setattr(gpexperts.experts, "_member_pass", counted)
    good = small_grid[:, 0].copy() if one_d else small_grid.copy()
    first = poe_aggregate(ens, good)
    assert len(calls) == ens.n_experts
    bad = good.copy()
    bad[3] = np.nan
    with pytest.raises(ValueError, match="test inputs must be finite"):
        poe_aggregate(ens, bad)
    before = len(calls)
    again = poe_aggregate(ens, good)
    assert len(calls) == before
    np.testing.assert_array_equal(again.means, first.means)
    np.testing.assert_array_equal(again.variances, first.variances)
    # a new test set replaces the old memo only after every member pass
    poe_aggregate(ens, good * 0.5)
    assert calls[before:] == [False] * ens.n_experts


def test_a_subset_request_predicts_every_member_once(
    small_ensemble, small_data, monkeypatch
):
    ens = ExpertEnsemble(small_ensemble.experts, small_ensemble.hp)
    calls = []
    member_pass = gpexperts.experts._member_pass

    def counted(model, xs):
        calls.append(model)
        return member_pass(model, xs)

    monkeypatch.setattr(gpexperts.experts, "_member_pass", counted)
    xs = small_data.x_test
    means, c = ens.moments(xs, [1])
    assert [id(m) for m in calls] == [id(e) for e in ens.experts]
    all_means, all_c = ens.moments(xs)
    assert len(calls) == ens.n_experts
    np.testing.assert_array_equal(all_means[:, [1]], means)
    np.testing.assert_array_equal(all_c[:, [1]], c)


NON_FINITE_CALLS = {
    "gp_predict": lambda ens, xs: gp_predict(ens.experts[0], xs),
    "poe": lambda ens, xs: poe_aggregate(ens, xs),
    "rbcm": lambda ens, xs: bcm_aggregate(ens, xs, scheme="diff_entropy"),
    "grbcm": lambda ens, xs: grbcm_aggregate(ens, xs, 0),
    "npae": lambda ens, xs: npae_aggregate(ens, xs),
    "expert_graph": lambda ens, xs: expert_graph(ens, xs),
}


@pytest.mark.parametrize("value", [np.nan, np.inf])
@pytest.mark.parametrize("call", sorted(NON_FINITE_CALLS))
def test_a_non_finite_test_point_raises_the_same_error_everywhere(
    small_ensemble, small_grid, call, value
):
    xs = small_grid.copy()
    xs[3, 0] = value
    with pytest.raises(ValueError, match="test inputs must be finite"):
        NON_FINITE_CALLS[call](small_ensemble, xs)
