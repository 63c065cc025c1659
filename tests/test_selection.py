"""Expert dependency graph: sparse precision, ranking, and pruning."""

import warnings

import numpy as np
import pytest
from scipy.sparse.csgraph import connected_components

import gpexperts.selection
from gpexperts import (
    Hyperparams,
    expert_graph,
    gp_predict,
    graphical_lasso,
    prediction_covariance,
    rank_importance,
    select_experts,
    synth_f,
)
from gpexperts.selection import _components, _penalized_objective, _pinned_solve


def random_correlation(m, seed):
    rng = np.random.default_rng(seed)
    b = rng.normal(size=(m, m))
    a = b @ b.T + m * np.eye(m)
    d = 1.0 / np.sqrt(np.diagonal(a))
    return a * np.outer(d, d)


def rank_deficient_expert_cov(seed=0):
    """S of 40 local GP experts seen at 25 test points, so rank(S) < 40."""
    from conftest import manual_ensemble

    rng = np.random.default_rng(seed)
    x = np.sort(rng.uniform(0.0, 1.0, size=1200))
    y = synth_f(x) + rng.normal(0.0, 0.2, size=1200)
    blocks = [
        (xb[:, None], yb)
        for xb, yb in zip(np.split(x, 40), np.split((y - y.mean()) / y.std(), 40))
    ]
    ens = manual_ensemble(blocks, Hyperparams(1.0, [0.03], 0.04))
    return prediction_covariance(ens, np.linspace(-0.1, 1.1, 25)[:, None])


def two_interleaved_blocks():
    """S with blocks on the even and odd indices and zeros between them."""
    s = np.zeros((9, 9))
    even, odd = np.arange(0, 9, 2), np.arange(1, 9, 2)
    s[np.ix_(even, even)] = random_correlation(5, 8)
    s[np.ix_(odd, odd)] = random_correlation(4, 9)
    return s, even, odd


def test_covariance_matches_double_loop(small_ensemble, small_grid):
    s = prediction_covariance(small_ensemble, small_grid)
    means = [gp_predict(e, small_grid).means for e in small_ensemble.experts]
    n_t = small_grid.shape[0]
    for i in range(3):
        for j in range(3):
            expected = float(means[i] @ means[j]) / n_t
            assert s[i, j] == pytest.approx(expected, rel=1e-12)
    np.testing.assert_allclose(s, s.T, atol=0)


def test_covariance_isolates_constant_experts():
    # an expert stranded far from every test point predicts exactly zero
    from conftest import manual_ensemble
    from gpexperts import Hyperparams

    rng = np.random.default_rng(2)
    hp = Hyperparams(1.0, [1.0], 0.1)
    near = (rng.uniform(0, 1, size=(12, 1)), rng.normal(size=12))
    far = (1e6 + rng.uniform(0, 1, size=(6, 1)), rng.normal(size=6))
    ens = manual_ensemble([near, far], hp)
    xs = np.linspace(0, 1, 20)[:, None]
    with pytest.warns(RuntimeWarning, match="constant"):
        s = prediction_covariance(ens, xs)
    assert s[1, 0] == 0.0 and s[0, 1] == 0.0
    assert s[1, 1] == 1.0
    assert s[0, 0] > 0.0


def test_covariance_needs_multiple_points(small_ensemble):
    with pytest.raises(ValueError):
        prediction_covariance(small_ensemble, np.array([[0.5]]))


def test_glasso_zero_penalty_inverts(small_ensemble):
    for seed in range(5):
        s = random_correlation(6, seed)
        omega, _, _, _ = graphical_lasso(s, 0.0, tol=1e-7, max_iter=200)
        ref = np.linalg.inv(s)
        rel = np.linalg.norm(omega - ref) / np.linalg.norm(ref)
        assert rel < 1e-5


def test_glasso_two_by_two_closed_forms():
    s = np.array([[1.0, 0.5], [0.5, 1.0]])
    omega0, _, _, _ = graphical_lasso(s, 0.0, tol=1e-8)
    np.testing.assert_allclose(
        omega0, [[4 / 3, -2 / 3], [-2 / 3, 4 / 3]], atol=1e-6
    )
    # off-diagonal penalty shrinks the fitted covariance toward s12 - lam
    omega, _, _, _ = graphical_lasso(s, 0.2, tol=1e-8)
    w = np.array([[1.0, 0.3], [0.3, 1.0]])
    np.testing.assert_allclose(omega, np.linalg.inv(w), atol=1e-4)


def test_glasso_full_shrinkage_is_diagonal():
    s = random_correlation(5, 3)
    lam = float(np.abs(s - np.diag(np.diagonal(s))).max())
    omega, _, _, _ = graphical_lasso(s, lam + 0.01)
    off = omega - np.diag(np.diagonal(omega))
    np.testing.assert_array_equal(off, 0.0)
    np.testing.assert_allclose(np.diagonal(omega), 1.0 / np.diagonal(s), rtol=1e-10)


def test_glasso_objective_never_decreases():
    for seed in (0, 1):
        s = random_correlation(8, seed)
        for lam in (0.0, 0.05, 0.3):
            _, history, _, _ = graphical_lasso(s, lam)
            diffs = np.diff(np.asarray(history))
            assert np.all(diffs >= -1e-10)


def test_glasso_zeros_are_exact():
    s = random_correlation(8, 4)
    omega, _, _, _ = graphical_lasso(s, 0.3)
    off = omega[~np.eye(8, dtype=bool)]
    assert np.any(off == 0.0)  # a step pins entries to literal zeros


def test_glasso_sparsity_grows_with_penalty():
    s = random_correlation(10, 5)
    nonzeros = []
    for lam in (0.01, 0.05, 0.1, 0.3, 0.7):
        omega, _, _, _ = graphical_lasso(s, lam)
        nonzeros.append(int(np.count_nonzero(omega) - 10))
    assert nonzeros == sorted(nonzeros, reverse=True)


def test_glasso_result_beats_diagonal_start():
    s = random_correlation(6, 6)
    lam = 0.1
    omega, _, _, _ = graphical_lasso(s, lam)
    start = np.diag(1.0 / np.diagonal(s))
    assert _penalized_objective(s, omega, lam) >= _penalized_objective(s, start, lam)


def test_glasso_single_node():
    np.testing.assert_allclose(graphical_lasso(np.array([[4.0]]), 0.5)[0], [[0.25]])


def test_glasso_input_validation():
    with pytest.raises(ValueError):
        graphical_lasso(np.ones((2, 3)), 0.1)
    with pytest.raises(ValueError):
        graphical_lasso(np.array([[1.0, 0.9], [0.2, 1.0]]), 0.1)
    with pytest.raises(ValueError):
        graphical_lasso(np.array([[1.0, 0.0], [0.0, 0.0]]), 0.1)
    with pytest.raises(ValueError):
        graphical_lasso(np.eye(2), -0.1)
    s = random_correlation(3, 0)
    for tol in (float("nan"), -1.0, 0.0, float("inf")):
        with pytest.raises(ValueError, match="tol must be finite and > 0"):
            graphical_lasso(s, 0.1, tol=tol)
    for max_iter in (2.5, 3.0, True, "3"):
        with pytest.raises(ValueError, match="max_iter must be an integer"):
            graphical_lasso(s, 0.1, max_iter=max_iter)
    with pytest.raises(ValueError, match="max_iter must be >= 0, got -3"):
        graphical_lasso(s, 0.1, max_iter=-3)
    assert graphical_lasso(s, 0.1, max_iter=np.int64(100))[3]


def test_glasso_rejects_a_nan_in_s():
    s = random_correlation(3, 0)
    s[0, 1] = s[1, 0] = np.nan
    with pytest.raises(ValueError, match="S must be finite"):
        graphical_lasso(s, 0.1)


def test_glasso_rejects_an_infinite_entry_in_s():
    # symmetric, with a positive diagonal: only finiteness rejects it
    s = random_correlation(3, 0)
    s[0, 2] = s[2, 0] = np.inf
    with pytest.raises(ValueError, match="S must be finite"):
        graphical_lasso(s, 0.1)


def test_glasso_rejects_a_nan_penalty():
    with pytest.raises(ValueError, match="penalty must be >= 0"):
        graphical_lasso(random_correlation(3, 0), float("nan"))


def scipy_components(adj):
    """SciPy's connected components of ``adj``, as sorted index arrays."""
    count, labels = connected_components(adj, directed=False)
    return [np.flatnonzero(labels == c) for c in range(count)]


def assert_same_components(adj):
    got, expected = _components(adj), scipy_components(adj)
    assert len(got) == len(expected)
    for a, b in zip(got, expected):  # same members, in the same order
        np.testing.assert_array_equal(a, b)


@pytest.mark.parametrize("m", range(1, 41))
def test_components_match_scipy_on_random_graphs(m):
    rng = np.random.default_rng(m)
    # mean degrees from sparse (mostly isolated nodes) to past the giant
    # component's threshold, with self-loops where |S_ii| > lam
    for degree in (0.5, 1.0, 2.0, 4.0):
        upper = np.triu(rng.uniform(size=(m, m)) < degree / m)
        assert_same_components(upper | upper.T)


@pytest.mark.parametrize("m", [1, 2, 5, 40])
def test_components_match_scipy_on_empty_complete_and_chain_graphs(m):
    assert_same_components(np.zeros((m, m), dtype=bool))
    assert_same_components(np.ones((m, m), dtype=bool))
    # a chain through the nodes in a shuffled order: diameter m - 1
    path = np.random.default_rng(m).permutation(m)
    chain = np.zeros((m, m), dtype=bool)
    chain[path[:-1], path[1:]] = chain[path[1:], path[:-1]] = True
    assert_same_components(chain)


def assert_glasso_kkt(s, lam, tol):
    """Solve without warnings, check every KKT condition to ``tol * lam``
    and that the objective never falls."""
    m = s.shape[0]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        omega, history, _, _ = graphical_lasso(s, lam, tol=tol)
    gap = np.linalg.inv(omega) - s
    off = ~np.eye(m, dtype=bool)
    edges = off & (omega != 0.0)
    assert edges.any()
    bound = tol * lam + 1e-10  # plus rounding of inv against LAPACK's inverse
    assert np.max(np.abs(np.diagonal(gap))) <= bound
    assert np.max(np.abs(gap[off])) <= lam + bound
    assert np.max(np.abs(gap[edges] - lam * np.sign(omega[edges]))) <= bound
    assert np.all(np.diff(history) >= 0.0)


def test_glasso_kkt_on_rank_deficient_cov():
    s = rank_deficient_expert_cov()
    assert np.linalg.matrix_rank(s) < s.shape[0]
    assert_glasso_kkt(s, 0.1, 1e-3)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_glasso_converges_at_small_penalty_on_rank_deficient_cov(seed):
    s = rank_deficient_expert_cov(seed)
    for lam in (0.03, 0.01):
        assert_glasso_kkt(s, lam, 1e-3)


def test_glasso_holds_pinned_entries_when_zeroing_them_does_not_rise():
    # Here some steps that move every sign-flipping entry to 0 do not raise
    # the objective; only holding those entries lets the solver converge.
    assert_glasso_kkt(rank_deficient_expert_cov(2), 0.001, 1e-3)


def test_pinned_solve_takes_no_step_on_an_indefinite_system():
    # dpotrf fails on a Newton system that is not positive definite; the
    # solver then stays put instead of stepping along a broken factor.
    slope, sign, start = np.array([1.0, -1.0]), np.ones(2), np.ones(2)
    step = _pinned_solve(np.eye(2), slope, sign, start, -start)
    np.testing.assert_array_equal(step, [-1.0, 1.0])  # -slope keeps both signs
    indefinite = np.array([[1.0, 2.0], [2.0, 1.0]])  # eigenvalues 3 and -1
    step = _pinned_solve(indefinite, slope, sign, start, -start)
    np.testing.assert_array_equal(step, [0.0, 0.0])


def test_glasso_takes_few_newton_steps_on_rank_deficient_cov():
    # Newton steps converge in 10-13 here; a first-order method takes
    # hundreds to thousands, so this guards against a slide back.
    s = rank_deficient_expert_cov()
    for lam in (0.1, 0.03, 0.01):
        _, history, _, _ = graphical_lasso(s, lam)
        assert len(history) <= 40


def test_glasso_block_diagonal_matches_blocks_solved_alone():
    s, even, odd = two_interleaved_blocks()
    lam = 0.05
    omega, _, _, _ = graphical_lasso(s, lam)
    for idx in (even, odd):
        block = np.ix_(idx, idx)
        alone, _, _, _ = graphical_lasso(s[block], lam)
        assert np.count_nonzero(np.triu(alone, 1)) > 0
        np.testing.assert_allclose(omega[block], alone, rtol=0, atol=1e-12)
    np.testing.assert_array_equal(omega[np.ix_(even, odd)], 0.0)


def test_glasso_isolated_experts_get_exact_inverse_variance():
    s = random_correlation(6, 10)
    lam = 0.1
    for i, scale in ((1, 3.7), (4, 0.3)):
        s[i, :] = s[:, i] = np.clip(s[:, i], -lam, lam)
        s[i, i] = scale
    omega, _, _, _ = graphical_lasso(s, lam)
    for i, scale in ((1, 3.7), (4, 0.3)):
        assert omega[i, i] == 1.0 / scale
        np.testing.assert_array_equal(np.delete(omega[i], i), 0.0)
    assert np.count_nonzero(np.triu(omega, 1)) > 0  # the others stay coupled


def test_glasso_history_rises_across_components():
    s, _, _ = two_interleaved_blocks()
    s[8, :] = s[:, 8] = 0.0  # an isolated expert as a third component
    s[8, 8] = 2.0
    lam = 0.05
    omega, history, _, _ = graphical_lasso(s, lam)
    assert len(history) > 2
    assert np.all(np.diff(history) >= 0.0)
    # each entry is the objective of the whole matrix, not of one block
    assert history[-1] == pytest.approx(_penalized_objective(s, omega, lam), rel=1e-12)


def test_expert_graph_reports_solver_diagnostics(
    small_ensemble, small_grid, monkeypatch
):
    graph = expert_graph(small_ensemble, small_grid, lam=0.05)
    _, history, _, _ = graphical_lasso(graph.sample_cov, 0.05)
    assert graph.steps == len(history) > 1
    assert graph.converged
    assert 1 <= len(graph.components) < small_ensemble.n_experts
    monkeypatch.setattr(gpexperts.selection, "GLASSO_MAX_ITER", 1)
    with pytest.warns(RuntimeWarning, match="converge"):
        capped = expert_graph(small_ensemble, small_grid, lam=0.05)
    assert capped.steps == 1 and not capped.converged


def twelve_local_experts():
    """12 local GP experts along a sinusoid and 40 test points; at lam = 0.3
    screening splits them into 7 components, one of them not contiguous."""
    from conftest import manual_ensemble

    rng = np.random.default_rng(0)
    x = np.sort(rng.uniform(0.0, 1.0, size=240))
    y = synth_f(x) + rng.normal(0.0, 0.2, size=240)
    blocks = [
        (xb[:, None], yb)
        for xb, yb in zip(np.split(x, 12), np.split((y - y.mean()) / y.std(), 12))
    ]
    ens = manual_ensemble(blocks, Hyperparams(1.0, [0.05], 0.04))
    return ens, np.linspace(0.0, 1.0, 40)[:, None]


def test_expert_graph_screens_once(monkeypatch):
    ens, xs = twelve_local_experts()
    calls = []
    screen = gpexperts.selection._components

    def counted(*args, **kwargs):
        calls.append(args)
        return screen(*args, **kwargs)

    monkeypatch.setattr(gpexperts.selection, "_components", counted)
    expert_graph(ens, xs, lam=0.3)
    assert len(calls) == 1


def test_expert_graph_keeps_the_screening_components():
    ens, xs = twelve_local_experts()
    lam = 0.3
    graph = expert_graph(ens, xs, lam=lam)
    comps = graph.components
    assert len(comps) > 2 and any(c.size > 2 for c in comps)
    assert all(np.all(np.diff(c) > 0) for c in comps)
    np.testing.assert_array_equal(np.sort(np.concatenate(comps)), np.arange(12))
    # reachability by repeated squaring of the screened adjacency
    reach = (np.abs(graph.sample_cov) > lam) | np.eye(12, dtype=bool)
    for _ in range(4):
        reach = (reach.astype(int) @ reach.astype(int)) > 0
    expected = {tuple(np.flatnonzero(row)) for row in reach}
    assert {tuple(c.tolist()) for c in comps} == expected
    for a in comps:  # the precision is block diagonal over them
        rest = np.setdiff1d(np.arange(12), a)
        np.testing.assert_array_equal(graph.precision[np.ix_(a, rest)], 0.0)


def test_rank_importance_hand_example():
    omega = np.array([[1.0, 0.5, 0.0], [0.5, 1.0, 0.2], [0.0, 0.2, 1.0]])
    importance, order = rank_importance(omega)
    np.testing.assert_allclose(importance, [0.5, 0.7, 0.2])
    np.testing.assert_array_equal(order, [1, 0, 2])


def test_rank_importance_breaks_ties_by_index():
    importance, order = rank_importance(np.eye(4))
    np.testing.assert_array_equal(importance, 0.0)
    np.testing.assert_array_equal(order, [0, 1, 2, 3])


def test_rank_importance_order_is_scale_invariant():
    omega = random_correlation(6, 7)
    _, order1 = rank_importance(omega)
    _, order2 = rank_importance(3.7 * omega)
    np.testing.assert_array_equal(order1, order2)


def test_select_experts_counts():
    order = np.array([3, 1, 0, 2])
    np.testing.assert_array_equal(select_experts(order, 1.0), [0, 1, 2, 3])
    np.testing.assert_array_equal(select_experts(order, 0.5), [1, 3])
    assert select_experts(np.arange(3), 0.5).shape == (2,)  # ceil(1.5)
    assert select_experts(np.arange(20), 0.8).shape == (16,)
    # 0.1 * 3 carries float dust; the guard keeps ceil at 1, not 2
    assert select_experts(np.arange(3), 0.1).shape == (1,)


def test_select_experts_rejects_bad_fractions():
    with pytest.raises(ValueError):
        select_experts(np.arange(3), 0.0)
    with pytest.raises(ValueError):
        select_experts(np.arange(3), 1.2)


def test_expert_graph_end_to_end(small_ensemble, small_grid):
    graph = expert_graph(small_ensemble, small_grid, lam=0.05, alpha=0.5)
    m = small_ensemble.n_experts
    assert graph.precision.shape == (m, m)
    np.testing.assert_allclose(graph.precision, graph.precision.T, atol=1e-12)
    expected = np.sum(np.abs(graph.precision), axis=1) - np.abs(
        np.diagonal(graph.precision)
    )
    np.testing.assert_allclose(graph.importance, expected, rtol=1e-12)
    assert graph.selected.shape == (2,)  # ceil(0.5 * 3)
    assert set(graph.selected) <= set(range(m))
    np.testing.assert_array_equal(graph.selected, np.sort(graph.selected))


def test_expert_graph_deterministic(small_ensemble, small_grid):
    a = expert_graph(small_ensemble, small_grid, lam=0.1, alpha=0.5)
    b = expert_graph(small_ensemble, small_grid, lam=0.1, alpha=0.5)
    np.testing.assert_array_equal(a.precision, b.precision)
    np.testing.assert_array_equal(a.selected, b.selected)


def test_a_solve_that_meets_the_gate_on_its_last_step_converged(
    small_ensemble, small_grid, monkeypatch
):
    # The budget edge: given exactly the steps the uncapped solve takes, the
    # last iterate passes the KKT gate, so the solve converged.
    graph = expert_graph(small_ensemble, small_grid, lam=0.05)
    k = graph.steps
    monkeypatch.setattr(gpexperts.selection, "GLASSO_MAX_ITER", k)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        edge = expert_graph(small_ensemble, small_grid, lam=0.05)
        omega, history, _, converged = graphical_lasso(
            graph.sample_cov, 0.05, max_iter=k)
    assert edge.steps == k and edge.converged is True
    np.testing.assert_array_equal(edge.precision, graph.precision)
    assert len(history) == k and converged is True
    np.testing.assert_array_equal(omega, graph.precision)
