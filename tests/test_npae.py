"""Dependent-expert aggregation through the joint covariance of expert means."""

import numpy as np
import pytest
import scipy.linalg

import gpexperts.experts
import gpexperts.gp
import gpexperts.npae
from conftest import expert_weights, manual_ensemble
from gpexperts import (
    ExpertEnsemble,
    Hyperparams,
    bcm_aggregate,
    expert_graph,
    gp_predict,
    kernel_matrix,
    npae_aggregate,
    partition_kmeans,
    poe_aggregate,
    synth_dataset,
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


def pack(target_cov, mean_cov, means):
    """``_assemble``'s factor buffer g from dense (t, m), (t, m, m), (t, m) pieces.

    g holds M's lower triangle, zeros above it, then the means and c as rows.
    """
    m = target_cov.shape[1]
    g = np.zeros((m + 2, m, target_cov.shape[0]))
    g[:m] = np.tril(mean_cov).transpose(1, 2, 0)
    g[m], g[m + 1] = means.T, target_cov.T
    return g


def unpack(g):
    """The dense (target_cov, mean_cov, means) that :func:`pack` packs into g."""
    m = g.shape[1]
    low = np.tril(g[:m].transpose(2, 0, 1))
    return g[m + 1].T.copy(), low + np.tril(low, -1).transpose(0, 2, 1), g[m].T.copy()


def noise_free_pieces(ensemble, xs):
    """Dense NPAE pieces (see :func:`unpack`) with the noise term left out of
    M's diagonal."""
    pieces = [dense_cov_oracle(ensemble, xs[t : t + 1], True) for t in range(len(xs))]
    means = [gp_predict(e, xs).means for e in ensemble.experts]
    return (
        np.array([p[0] for p in pieces]),
        np.array([p[1] for p in pieces]),
        np.column_stack(means),
    )


def test_assembled_cov_matches_dense_construction():
    ens = make_ensemble(36, 3, seed=1)
    x_star = np.array([[0.4]])
    target_cov, mean_cov, _ = unpack(_assemble(ens, x_star, np.arange(3)))
    ka, big = dense_cov_oracle(ens, x_star, False)
    np.testing.assert_allclose(target_cov[0], ka, rtol=1e-9, atol=1e-12)
    np.testing.assert_allclose(mean_cov[0], big, rtol=1e-9, atol=1e-12)


def test_single_expert_cov_collapses_to_scalar_identity():
    # with the noisy diagonal, kA and KA coincide at k*' C^{-1} k* for any noise
    for noise in (0.0, 0.3):
        hp = Hyperparams(1.0, [0.5], noise)
        x = np.array([[0.0], [0.7], [1.3]])
        y = np.array([0.5, -0.2, 0.9])
        ens = manual_ensemble([(x, y)], hp)
        target_cov, mean_cov, _ = unpack(_assemble(ens, np.array([[0.4]]), [0]))
        c = kernel_matrix(x, x, hp) + noise * np.eye(3)
        ks = kernel_matrix(x, np.array([[0.4]]), hp).ravel()
        expected = ks @ np.linalg.solve(c, ks)
        assert target_cov[0, 0] == pytest.approx(expected, rel=1e-10)
        assert mean_cov[0, 0, 0] == pytest.approx(expected, rel=1e-10)


def test_duplicate_experts_are_perfectly_correlated_without_noise():
    hp = Hyperparams(1.0, [0.5], 0.2)
    x = np.array([[0.0], [0.7], [1.3]])
    y = np.array([0.5, -0.2, 0.9])
    ens = manual_ensemble([(x, y), (x, y)], hp)
    _, clean = dense_cov_oracle(ens, np.array([[0.4]]), True)
    _, noisy, _ = unpack(_assemble(ens, np.array([[0.4]]), np.arange(2)))
    # the cross term is the noise-free variance of either expert's mean
    assert noisy[0, 0, 1] == pytest.approx(clean[0, 0], rel=1e-12)
    assert clean[0, 1] == pytest.approx(clean[0, 0], rel=1e-12)
    # the noisy diagonal strictly dominates the cross term
    assert noisy[0, 0, 0] > noisy[0, 0, 1]


def test_aggregate_single_expert_returns_expert_prediction():
    ens = make_ensemble(25, 1, seed=2)
    xs = np.linspace(0, 1, 11)[:, None]
    agg = npae_aggregate(ens, xs)
    ref = gp_predict(ens.experts[0], xs)
    np.testing.assert_allclose(agg.means, ref.means, atol=1e-10)
    np.testing.assert_allclose(agg.variances, ref.variances, atol=1e-10)


def test_aggregate_duplicate_experts_equals_single_expert(monkeypatch):
    # with the noise-free diagonal the two-expert system is exactly singular,
    # so the second expert deflates and the one-expert aggregation remains
    hp = Hyperparams(1.2, [0.4], 0.15)
    rng = np.random.default_rng(3)
    x = rng.uniform(0, 1, size=(12, 1))
    y = np.cos(4 * x).ravel() + 0.1 * rng.normal(size=12)
    single = manual_ensemble([(x, y)], hp)
    double = manual_ensemble([(x, y), (x, y)], hp)
    xs = np.linspace(-0.1, 1.1, 9)[:, None]
    pieces = {1: noise_free_pieces(single, xs), 2: noise_free_pieces(double, xs)}
    monkeypatch.setattr(
        gpexperts.npae, "_assemble", lambda ens, xs, subset: pack(*pieces[len(subset)])
    )
    a = npae_aggregate(single, xs)
    b = npae_aggregate(double, xs)
    assert a.deflated is None and b.failed is None
    assert b.deflated.all()
    np.testing.assert_allclose(b.means, a.means, rtol=0, atol=1e-12)
    np.testing.assert_allclose(b.variances, a.variances, rtol=0, atol=1e-12)


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
    ref = gp_predict(ens.experts[1], xs)
    np.testing.assert_allclose(agg.means, ref.means, atol=1e-9)
    np.testing.assert_allclose(agg.variances, ref.variances, atol=1e-9)


def test_no_weight_vector_beats_the_solved_one():
    # expected squared error prior - 2 w'kA + w'KA w is minimized by the solve
    ens = make_ensemble(45, 3, seed=6)
    target_cov, mean_cov, _ = (
        a[0] for a in unpack(_assemble(ens, [[0.55]], np.arange(3)))
    )
    w_star = np.linalg.solve(mean_cov, target_cov)

    def expected_sq_err(w):
        return ens.hp.signal_variance - 2 * w @ target_cov + w @ mean_cov @ w

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


def test_batched_solve_matches_per_point_robust_solves():
    ens = make_ensemble(120, 5, seed=10)
    xs = np.linspace(-0.2, 1.2, 80)[:, None]
    pieces = unpack(_assemble(ens, xs, np.arange(5)))
    mean, var = per_point_reference(*pieces, ens.hp.signal_variance)
    agg = npae_aggregate(ens, xs)
    assert agg.failed is None
    np.testing.assert_allclose(agg.means, mean, rtol=1e-10, atol=1e-14)
    np.testing.assert_allclose(agg.variances, var, rtol=1e-10, atol=1e-14)


def test_points_with_a_redundant_expert_deflate_it(monkeypatch):
    # Points 3, 17 and 18 get a second expert that duplicates the first with
    # a smaller variance, so their M is indefinite and has no Cholesky factor.
    # The second expert deflates there, which leaves NPAE over the others.
    ens = make_ensemble(90, 4, seed=11)
    xs = np.linspace(0.0, 1.0, 25)[:, None]
    bad = [3, 17, 18]
    clean = unpack(_assemble(ens, xs, np.arange(4)))
    target_cov, mean_cov, means = (a.copy() for a in clean)
    for t in bad:
        mean_cov[t, 1, :] = mean_cov[t, 0, :]
        mean_cov[t, :, 1] = mean_cov[t, :, 0]
        mean_cov[t, 1, 1] = 0.9 * mean_cov[t, 0, 0]
        target_cov[t, 1], means[t, 1] = target_cov[t, 0], means[t, 0]
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.cholesky(mean_cov[t])

    def npae_on(pieces):
        monkeypatch.setattr(gpexperts.npae, "_assemble", lambda *a: pack(*pieces))
        return npae_aggregate(ens, xs)

    agg = npae_on((target_cov, mean_cov, means))
    batched = npae_on(clean)
    keep = [0, 2, 3]
    c, cov, mu = clean
    without = npae_on((c[:, keep], cov[:, keep][:, :, keep], mu[:, keep]))

    np.testing.assert_allclose(agg.means[bad], without.means[bad], rtol=0, atol=1e-12)
    np.testing.assert_allclose(
        agg.variances[bad], without.variances[bad], rtol=0, atol=1e-12
    )
    good = np.setdiff1d(np.arange(xs.shape[0]), bad)
    np.testing.assert_array_equal(agg.means[good], batched.means[good])
    np.testing.assert_array_equal(agg.variances[good], batched.variances[good])
    np.testing.assert_array_equal(agg.deflated, np.isin(np.arange(25), bad))
    assert agg.failed is None and batched.failed is None and batched.deflated is None


def test_an_expert_that_adds_little_is_kept(monkeypatch):
    # Expert 1 becomes mu_0 + 1e-4 mu_1: its pivot falls to about 8e-11 of
    # M_11, yet the four experts still span the same means, so NPAE must not
    # move.  Dropping the expert would move the mean by 0.12.
    ens = make_ensemble(90, 4, seed=11)
    xs = np.linspace(0.0, 1.0, 25)[:, None]
    ref = npae_aggregate(ens, xs)
    target_cov, mean_cov, means = unpack(_assemble(ens, xs, np.arange(4)))
    mix = np.eye(4)
    mix[1, :2] = 1.0, 1e-4
    mixed = (target_cov @ mix.T, mix @ mean_cov @ mix.T, means @ mix.T)
    monkeypatch.setattr(gpexperts.npae, "_assemble", lambda *a: pack(*mixed))
    agg = npae_aggregate(ens, xs)
    assert agg.deflated is None and agg.failed is None
    np.testing.assert_allclose(agg.means, ref.means, rtol=0, atol=1e-7)
    np.testing.assert_allclose(agg.variances, ref.variances, rtol=0, atol=1e-7)


def scaled_refined_reference(target_cov, mean_cov, means, prior_var):
    """NPAE at one point from the unit-diagonal system, refined twice."""
    d = 1.0 / np.sqrt(np.diagonal(mean_cov))
    scaled = mean_cov * np.outer(d, d)
    rhs = np.column_stack([means, target_cov]) * d[:, None]
    sol = np.linalg.solve(scaled, rhs)
    for _ in range(2):
        sol += np.linalg.solve(scaled, rhs - scaled @ sol)
    sol *= d[:, None]
    return target_cov @ sol[:, 0], prior_var - target_cov @ sol[:, 1]


def test_extrapolating_points_match_the_scaled_refined_solve():
    # Far beyond the training inputs (-1.71 to 1.80), the far experts' c_i
    # fall to 6e-33 and the raw M is numerically singular, yet its Jacobi
    # scaling is well conditioned: no expert may be cut or drowned in jitter.
    data = synth_dataset(1000, 10, 0.2, seed=1000)
    parts = partition_kmeans(data.x_train, 10, seed=1001)
    ens = train_ensemble(data.x_train, data.y_train, parts, restarts=1, seed=1002)
    xs = np.array([[1.8], [2.0], [2.5], [3.0]])
    agg = npae_aggregate(ens, xs)
    assert agg.failed is None and agg.deflated is None
    pieces = unpack(_assemble(ens, xs, np.arange(10)))
    assert np.linalg.cond(pieces[1][-1]) > 1e20
    for t in range(xs.shape[0]):
        mean, var = scaled_refined_reference(
            *(a[t] for a in pieces), ens.hp.signal_variance
        )
        assert abs(agg.means[t] - mean) <= 1e-12
        assert abs(agg.variances[t] - var) <= 1e-12


def test_point_with_non_finite_cov_reverts_to_prior_and_is_flagged(monkeypatch):
    ens = make_ensemble(60, 3, seed=12)
    xs = np.linspace(0.0, 1.0, 6)[:, None]
    target_cov, mean_cov, means = (
        a.copy() for a in unpack(_assemble(ens, xs, np.arange(3)))
    )
    mean_cov[2, 1, 0] = mean_cov[2, 0, 1] = np.nan
    monkeypatch.setattr(
        gpexperts.npae, "_assemble", lambda *a: pack(target_cov, mean_cov, means)
    )
    agg = npae_aggregate(ens, xs)
    np.testing.assert_array_equal(agg.failed, np.arange(6) == 2)
    assert agg.means[2] == 0.0 and agg.variances[2] == ens.hp.signal_variance
    assert np.all(agg.variances[agg.failed == 0] < ens.hp.signal_variance)


def test_the_strict_upper_triangle_of_m_is_never_read(monkeypatch):
    # Expert 1 duplicates expert 0 at every third point, so it deflates there,
    # and point 4 gets a NaN below the diagonal, so it fails.  Random finite
    # values above the diagonal must change no output, bit for bit.
    ens = make_ensemble(60, 4, seed=13)
    xs = np.linspace(-0.1, 1.1, 12)[:, None]
    assemble = gpexperts.npae._assemble
    rng = np.random.default_rng(0)

    def marked(ens, xs, subset, fill_upper=False):
        g = assemble(ens, xs, subset)
        g[1, 0, ::3] = g[0, 0, ::3]
        g[1:, 1, ::3] = g[1:, 0, ::3]
        g[3, 2, 4] = np.nan
        if fill_upper:
            rows, cols = np.triu_indices(g.shape[1], 1)
            g[rows, cols] = rng.uniform(-1e3, 1e3, size=(rows.size, g.shape[2]))
        return g

    monkeypatch.setattr(gpexperts.npae, "_assemble", marked)
    ref = npae_aggregate(ens, xs)
    monkeypatch.setattr(
        gpexperts.npae, "_assemble", lambda *a: marked(*a, fill_upper=True)
    )
    agg = npae_aggregate(ens, xs)
    assert ref.deflated.any() and ref.failed.any()
    assert agg.means.tobytes() == ref.means.tobytes()
    assert agg.variances.tobytes() == ref.variances.tobytes()
    np.testing.assert_array_equal(agg.deflated, ref.deflated)
    np.testing.assert_array_equal(agg.failed, ref.failed)


def test_after_selection_npae_forms_only_part_by_part_kernels(monkeypatch):
    ens = make_ensemble(60, 5, seed=4)
    xs = np.linspace(-0.1, 1.1, 25)[:, None]
    graph = expert_graph(ens, xs, lam=0.05, alpha=0.6)
    calls = []

    def counted(x, x2, hp):
        calls.append((x, x2))
        return kernel_matrix(x, x2, hp)

    monkeypatch.setattr(gpexperts.npae, "kernel_matrix", counted)
    monkeypatch.setattr(gpexperts.gp, "kernel_matrix", counted)
    npae_aggregate(ens, xs)
    npae_aggregate(ens, xs, subset=graph.selected)
    parts = [e.x for e in ens.experts]
    for x, x2 in calls:
        assert any(x is p for p in parts) and any(x2 is p for p in parts)
        assert x is not x2
    k = graph.selected.size
    assert len(calls) == 5 * 4 // 2 + k * (k - 1) // 2


def test_member_pass_weights_match_dense_solve():
    # Componentwise forward error, to first order in the unit roundoff u
    # (Higham 2002, section 3.5 and Thms 9.4 and 10.3), with W = L^{-1} as
    # the expert holds it and n its rows:
    # - the pass forms w = W^T (W k) by two triangular products, each adding
    #   at most n u |W|^T |W| |k|;
    # - W is taken as the exact inverse factor of C + dC, with Cholesky's
    #   |dC| <= (n + 1) u |L||L^T|, and the reference LU solve is exact for
    #   C + dC', |dC'| <= 3 n u |L_lu||U_lu|; each moves w by
    #   |C^{-1}||dC||w| <= |W|^T |W||dC||w|.
    # Both products of factors stay within g = 3 times C on these parts
    # (checked below).  C and k are positive entrywise, so
    #   |w - w_ref| <= c n u |W|^T |W| (|k| + |C||w_ref|),  c = max(2, 4 g) = 12.
    # A fixed relative tolerance cannot hold: entries that cancel in W^T (W k)
    # miss 1e-10 relative for about 1 in 10 perturbations of the
    # hyperparameters by 1e-13.
    ens = make_ensemble(45, 3, seed=5)
    xs = np.linspace(-0.2, 1.2, 17)[:, None]
    _, target_cov, weights = ens.npae_moments(xs)
    u = np.finfo(float).eps / 2
    for i, (e, w) in enumerate(zip(ens.experts, weights)):
        n = e.x.shape[0]
        assert w.shape == (n, xs.shape[0]) and not w.flags.writeable
        cov = kernel_matrix(e.x, e.x, ens.hp) + ens.hp.noise_variance * np.eye(n)
        chol = np.abs(np.linalg.cholesky(cov))
        p, l_lu, u_lu = scipy.linalg.lu(cov)
        assert np.all(chol @ chol.T <= 3 * cov)
        assert np.all(p @ np.abs(l_lu) @ np.abs(u_lu) <= 3 * cov)
        k = kernel_matrix(e.x, xs, ens.hp)
        w_ref = expert_weights(e, xs).T
        abs_w = np.abs(e.chol_inv)
        bound = 12 * n * u * abs_w.T @ (abs_w @ (k + cov @ np.abs(w_ref)))
        assert np.all(np.abs(w - w_ref) <= bound)
        np.testing.assert_allclose(target_cov[:, i], np.sum(k * w, axis=0), rtol=1e-10)


def test_weights_are_formed_only_for_the_experts_npae_reads(monkeypatch):
    ens = make_ensemble(60, 5, seed=4)
    xs = np.linspace(-0.1, 1.1, 25)[:, None]
    formed = []
    weights = gpexperts.experts._member_weights

    def counted(model, vt):
        formed.append(model.chol_inv)
        return weights(model, vt)

    monkeypatch.setattr(gpexperts.experts, "_member_weights", counted)
    graph = expert_graph(ens, xs, lam=0.05, alpha=0.6)
    poe_aggregate(ens, xs)
    bcm_aggregate(ens, xs)
    assert formed == []
    npae_aggregate(ens, xs, subset=graph.selected)
    kept = [ens.experts[i].chol_inv for i in graph.selected]
    assert len(formed) == len(kept) and all(any(a is b for b in kept) for a in formed)
    npae_aggregate(ens, xs)
    assert len(formed) == ens.n_experts


def test_npae_is_the_same_on_a_cold_and_a_warm_member_pass():
    warm = make_ensemble(45, 4, seed=6)
    xs = np.linspace(-0.2, 1.2, 31)[:, None]
    poe_aggregate(warm, xs, scheme="uniform")
    bcm_aggregate(warm, xs, subset=[3, 1])
    for subset in (None, [2, 0, 3]):
        cold = ExpertEnsemble(warm.experts, warm.hp)
        a = npae_aggregate(cold, xs, subset=subset)
        b = npae_aggregate(warm, xs, subset=subset)
        np.testing.assert_array_equal(a.means, b.means)
        np.testing.assert_array_equal(a.variances, b.variances)
