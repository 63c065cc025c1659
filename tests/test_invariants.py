"""Invariants that follow from GP theory, in one seeded sweep.

The sweep covers input dimension D in {1, 2, 8}, m in {1, 2, 5, 20} experts
of 40 points each, k-means and random parts, and two data seeds, plus a
noise-free ensemble and one with a duplicated expert.  Every ensemble of
the fusion invariants is built at fixed hyperparameters, so nothing is
trained there; the last tests train on the sweep's data and check the
profiled evidence that training maximizes.  One more test rebuilds every
config from its seed: neither the rebuild nor a forget() before each rule
changes a bit of any rule's result or of the graph.  Each tolerance is
derived from the quantity it bounds, next to the assertion that uses it; eps
is the double-precision machine epsilon, twice the unit roundoff.
"""

import inspect
import itertools
import math

import numpy as np
import pytest

from conftest import entropy_weighted_poe, manual_ensemble
from gpexperts import (
    Hyperparams,
    bcm_aggregate,
    expert_graph,
    fit,
    graphical_lasso,
    kernel_matrix,
    log_marginal_likelihood,
    npae_aggregate,
    partition_kmeans,
    partition_random,
    poe_aggregate,
    select_experts,
    train_ensemble,
)
from gpexperts.committee import _info_gain
from gpexperts.gp import LOG_2PI, _latent_variance, _prepare_part, _profiled, default_init

EPS = np.finfo(float).eps
PART_SIZE, N_TEST, LAM = 40, 40, 0.05
# Lengthscales 0.1 in 1-D, about 0.22 per input in 2-D and 0.71 in 8-D (the
# kernel takes their squares): test inputs up to 0.5 beyond the data reach
# where members fall back toward the prior, and the small noise makes them
# sure near it.
HP = {
    1: Hyperparams(1.0, [0.01], 1e-4),
    2: Hyperparams(1.0, [0.05] * 2, 1e-4),
    8: Hyperparams(1.0, [0.5] * 8, 1e-4),
}
CONFIGS = list(
    itertools.product((1, 2, 8), (1, 2, 5, 20), ("kmeans", "random"), (0, 1), ("",))
)
# Two ensembles at the edges of the theory, both noise-free (sigma_n^2 = 0),
# which in 2-D needs no jitter.  In the
# first, every other test point is a training input, where the expert that
# holds it is exact: its latent variance is 0 up to rounding.  In the second,
# a sixth expert repeats the first one's part.  NPAE takes M's off-diagonal
# from the cross-kernel, as for disjoint parts; without noise that is exact
# for a repeated part too, so the twin's row of M is its original's and NPAE
# must deflate it.  (With noise, M would miss the shared noise of the twins.)
ZERO_NOISE = (2, 5, "kmeans", 0, "-zero-noise")
DUPLICATED = (2, 5, "kmeans", 0, "-duplicated")
CONFIGS += [ZERO_NOISE, DUPLICATED]
IDS = [f"d{d}-m{m}-{part}-seed{seed}{edge}" for d, m, part, seed, edge in CONFIGS]


def sweep_data(d, m, partition, seed):
    """(generator, inputs, targets, partitioning) of one config."""
    rng = np.random.default_rng(seed)
    n = PART_SIZE * m
    x = rng.uniform(0.0, 1.0, size=(n, d))
    y = np.sin(6.0 * x.sum(axis=1) / np.sqrt(d)) + 0.1 * rng.normal(size=n)
    if partition == "kmeans":
        parts = partition_kmeans(x, m, seed=seed)
    else:
        parts = partition_random(n, m, seed=seed)
    return rng, x, y, parts


def blocks_of(x, y, parts):
    """The (inputs, targets) pair of each part."""
    return [(x[idx], y[idx]) for idx in map(parts.indices, range(parts.n_parts))]


def graph_of(ens, xs, edge):
    if edge != "-duplicated":
        return expert_graph(ens, xs, lam=LAM, alpha=0.5)
    # The twins' S is singular, with entries up to 5e6, and lam is absolute,
    # not relative to S's scale (an open FOUND in CHANGES.md): the graphical
    # lasso stops unconverged, and says so.
    with pytest.warns(RuntimeWarning, match="did not converge"):
        return expert_graph(ens, xs, lam=LAM, alpha=0.5)


def build(config):
    """(ensemble, test inputs, expert graph) of one config, from its seed."""
    d, m, partition, seed, edge = config
    rng, x, y, parts = sweep_data(d, m, partition, seed)
    blocks = blocks_of(x, y, parts)
    hp = HP[d] if not edge else Hyperparams(1.0, HP[d].lengthscales, 0.0)
    ens = manual_ensemble(blocks + blocks[:1] if edge == "-duplicated" else blocks, hp)
    xs = rng.uniform(-0.5, 1.5, size=(N_TEST, d))
    if edge == "-zero-noise":
        xs[::2] = x[: N_TEST // 2]
    return ens, xs, graph_of(ens, xs, edge)


@pytest.fixture(scope="module", params=CONFIGS, ids=IDS)
def built(request):
    return build(request.param)


RULES = {
    "npae": npae_aggregate,
    "poe": lambda ens, xs: poe_aggregate(ens, xs, scheme="ones"),
    "gpoe": lambda ens, xs: poe_aggregate(ens, xs, scheme="uniform"),
    "bcm": lambda ens, xs: bcm_aggregate(ens, xs, scheme="ones"),
    "rbcm": lambda ens, xs: bcm_aggregate(ens, xs, scheme="diff_entropy"),
}


def fingerprint(ens, xs, graph, cold=False):
    """The bytes of every rule's result and of the graph's precision and order;
    ``cold`` runs each rule after ``ens.forget()``."""
    out = {"graph": [graph.precision.tobytes(), graph.order.tobytes()], "deflating": set()}
    for name, rule in RULES.items():
        if cold:
            ens.forget()
        pred = rule(ens, xs)
        for flags in (pred.failed, pred.deflated):
            assert flags.shape == (xs.shape[0],) and flags.dtype == bool
        out[name] = [a.tobytes() for a in (pred.means, pred.variances, pred.failed, pred.deflated)]
        if pred.deflated.any():
            out["deflating"].add(name)
    return out


def test_same_seed_results_are_byte_identical(built, request):
    # Two builds from one seed, and one ensemble with its memo kept or
    # dropped before each rule, give the same bits: no result may depend on
    # the memo or on the build.
    config = request.node.callspec.params["built"]
    first = fingerprint(*built)
    again = build(config)
    assert again[1].tobytes() == built[1].tobytes()
    assert fingerprint(*again) == first
    ens, xs, _ = built
    ens.forget()
    assert fingerprint(ens, xs, graph_of(ens, xs, config[-1]), cold=True) == first
    # Only NPAE deflates, and only where an expert repeats another.
    assert first["deflating"] == ({"npae"} if config == DUPLICATED else set())


@pytest.mark.parametrize("built", [ZERO_NOISE], indirect=True, ids=["zero-noise"])
def test_noise_free_members_are_exact_at_their_own_inputs(built):
    # So the bounds below also run the rules' exact branch: a member of
    # variance 0 at a point makes every committee rule return variance 0.
    ens, xs, _ = built
    exact = (_latent_variance(ens.hp, ens.moments(xs)[1]) == 0).any(axis=1)
    assert exact[::2].any()
    assert np.all(poe_aggregate(ens, xs).variances[exact] == 0)
    assert np.all(bcm_aggregate(ens, xs).variances[exact] == 0)


@pytest.mark.parametrize("built", [DUPLICATED], indirect=True, ids=["duplicated"])
def test_npae_deflates_a_duplicated_expert(built):
    # The twin is the last column, and the left-looking factor reads only
    # earlier columns: where it deflates, its column of L and its z entry are
    # exact zeros, so NPAE there is NPAE without the twin, bit for bit.
    ens, xs, _ = built
    npae = npae_aggregate(ens, xs)
    without = npae_aggregate(ens, xs, subset=np.arange(ens.n_experts - 1))
    assert npae.deflated.any() and not without.deflated.any()
    twin = npae.deflated
    np.testing.assert_array_equal(npae.means[twin], without.means[twin])
    np.testing.assert_array_equal(npae.variances[twin], without.variances[twin])


def test_npae_is_at_most_the_best_member(built):
    # NPAE's variance is sf2 - ||z||^2 with z = L^{-1} c.  In the unit-diagonal
    # scaling of M every row of L has norm at most 1 and ||z|| <= sf, so each
    # z_j's numerator, a dot product of at most m terms, errs by at most
    # m eps sf.  Deflation keeps only pivots p_j > m eps, so z_j errs by at
    # most m eps sf / sqrt(m eps) = sqrt(m eps) sf, ||z|| by m sqrt(eps) sf,
    # and ||z||^2 by 2 m sqrt(eps) sf2 (to first order).
    ens, xs, _ = built
    m, sf2 = ens.n_experts, ens.hp.signal_variance
    variances = _latent_variance(ens.hp, ens.moments(xs)[1])
    fused = npae_aggregate(ens, xs).variances
    assert np.all(fused <= variances.min(axis=1) + 2 * m * np.sqrt(EPS) * sf2)


def test_npae_on_growing_prefixes_of_the_graph_order_never_raises_a_variance(built):
    # The left-looking factor reads only earlier columns, so the systems of
    # nested prefixes share their z; one more expert subtracts z_k^2 >= 0.
    # Only the sums ||z||^2 <= sf2 of k - 1 and k terms round apart, by at
    # most k eps sf2 each, and each subtraction from sf2 by eps sf2.
    ens, xs, graph = built
    m, sf2 = ens.n_experts, ens.hp.signal_variance
    before = None
    for k in range(1, m + 1):
        after = npae_aggregate(ens, xs, subset=graph.order[:k]).variances
        if before is not None:
            assert np.all(after <= before + 2 * (k + 1) * EPS * sf2), k
        before = after
    # Keeping every expert sorts the full prefix back into index order, so
    # it runs npae's own computation and must match it bit for bit.
    npae = npae_aggregate(ens, xs)
    kept = npae_aggregate(ens, xs, subset=select_experts(graph.order, 1.0))
    np.testing.assert_array_equal(kept.means, npae.means)
    np.testing.assert_array_equal(kept.variances, npae.variances)
    # The unsorted full prefix factors M with its rows and columns permuted,
    # which rounds differently: both give sf2 - c^T M^{-1} c, each within
    # 2 m sqrt(eps) sf2 of it (see the test above), so within twice that of
    # each other.
    assert np.all(np.abs(after - npae.variances) <= 4 * m * np.sqrt(EPS) * sf2)


@pytest.mark.parametrize("scheme", ["uniform", "diff_entropy"])
def test_gpoe_and_entropy_weighted_poe_stay_below_the_largest_member(built, scheme):
    # Both weight sets are >= 0 and sum to 1, so the fused precision
    # sum_i beta_i / v_i is at least 1 / max v_i.  Each term carries at most
    # two roundings (one for normalizing the entropy weights), the sum m - 1
    # more, the weights' own sum is 1 within m eps, and the reciprocal adds
    # one: 2 (m + 1) eps relative.  The entropy-weighted product is the
    # tests' oracle; the package's poe takes "ones" and "uniform" only.
    ens, xs, _ = built
    m = ens.n_experts
    variances = _latent_variance(ens.hp, ens.moments(xs)[1])
    if scheme == "uniform":
        fused = poe_aggregate(ens, xs, scheme=scheme).variances
    else:
        fused = entropy_weighted_poe(ens, xs).variances
    assert np.all(fused <= variances.max(axis=1) * (1 + 2 * (m + 1) * EPS))


@pytest.mark.parametrize("scheme", ["ones", "diff_entropy"])
def test_bcm_and_rbcm_stay_below_their_prior(built, scheme):
    # With prior P = sf2 + noise >= v_i and beta_i >= 0, the fused precision
    # 1 / P + sum_i beta_i (1 / v_i - 1 / P) is at least 1 / P.  It is
    # computed as sum_i beta_i / v_i + (1 - sum_i beta_i) / P: m + 1 terms of
    # at most two roundings each, summed with m more, so it errs by at most
    # (m + 3) eps A, A the sum of the terms' magnitudes.  As the precision
    # is at least 1 / P, the variance exceeds P by at most P^2 (m + 3) eps A.
    ens, xs, _ = built
    m, prior = ens.n_experts, ens.hp.signal_variance + ens.hp.noise_variance
    variances = _latent_variance(ens.hp, ens.moments(xs)[1])
    # A member of variance 0 makes its row exact, of fused variance 0.  The
    # rule puts a 1 in place of each 0 to keep the weights defined, and so
    # does this test; the rows without a 0 are fused as they are.
    variances[variances == 0] = 1.0
    betas = np.ones_like(variances) if scheme == "ones" else _info_gain(variances, prior)
    magnitude = np.sum(betas / variances, axis=1) + np.abs(1 - betas.sum(axis=1)) / prior
    fused = bcm_aggregate(ens, xs, scheme=scheme).variances
    assert np.all(fused <= prior + prior**2 * (m + 3) * EPS * magnitude)


# Not on the duplicated ensemble: its S is singular, with entries up to 5e6
# against lam = 0.05, and the graphical lasso stops unconverged there.
@pytest.mark.parametrize("built", CONFIGS[:-1], indirect=True, ids=IDS[:-1])
def test_a_converged_graph_meets_its_kkt_gate(built):
    # The gate: diag W = diag S, W_ij - S_ij = lam sign(O_ij) on edges and
    # |W_ij - S_ij| <= lam elsewhere, each within tol * lam.  W = O^{-1} is
    # recomputed here, so it differs from the solver's by the inverse's
    # rounding, at most about m cond(O) eps ||W||.
    _, _, graph = built
    tol = inspect.signature(graphical_lasso).parameters["tol"].default
    omega = graph.precision
    w = np.linalg.inv(omega)
    gap = graph.sample_cov - w
    off = ~np.eye(len(omega), dtype=bool)
    edge = off & (omega != 0)
    residual = np.concatenate([
        np.abs(np.diagonal(gap)),
        np.abs(gap[edge] + LAM * np.sign(omega[edge])),
        np.abs(gap[off & ~edge]) - LAM,
    ])
    slack = len(omega) * np.linalg.cond(omega) * EPS * np.linalg.norm(w, 2)
    assert graph.converged  # every graph of the sweep stops on its gate
    assert residual.max() <= tol * LAM + slack


# Training on the sweep's data: the ensemble on every noisy config, and fit
# on the whole data of each k-means one up to m = 5, 200 points (fit ignores
# the partition; at 800 points its checks would take most of this module's
# time).
TRAINED = [(c, "ensemble") for c in CONFIGS if not c[-1]]
TRAINED += [(c, "fit") for c in CONFIGS if not c[-1] and c[2] == "kmeans" and c[1] <= 5]
TRAINED_IDS = [f"{IDS[CONFIGS.index(c)]}-{how}" for c, how in TRAINED]


@pytest.fixture(scope="module", params=TRAINED, ids=TRAINED_IDS)
def trained(request):
    """(data parts, trained hyperparameters) of one config."""
    (d, m, partition, seed, _), how = request.param
    _, x, y, parts = sweep_data(d, m, partition, seed)
    if how == "fit":
        return [(x, y)], fit(x, y, seed=seed).hp
    return blocks_of(x, y, parts), train_ensemble(x, y, parts, seed=seed).hp


def covariances(blocks, hp):
    """C = K + noise * I of each part."""
    return [kernel_matrix(bx, bx, hp) + hp.noise_variance * np.eye(len(bx))
            for bx, _ in blocks]


def test_the_trained_signal_variance_maximizes_the_evidence(trained):
    # At fixed g = noise / signal, d/dlog(signal) of a part's evidence is
    # grad[0] + grad[-1] = 0.5 tr((alpha alpha^T - C^{-1}) C)
    # = 0.5 (y^T C^{-1} y / signal - n), and training sets the signal
    # variance where the sum over parts is 0.  Both traces go through a
    # computed inverse X of C, whose residual X C - I is at most about
    # n kappa(C) u in norm (u = eps / 2); its trace is then at most
    # n^2 kappa(C) u per part.
    blocks, hp = trained
    total = sum(
        grad[0] + grad[-1]
        for grad in (log_marginal_likelihood(bx, by, hp)[1] for bx, by in blocks)
    )
    bound = EPS * sum(len(c) ** 2 * np.linalg.cond(c) for c in covariances(blocks, hp))
    assert abs(total) <= bound


def unit_points(blocks, hp):
    """The trained point and default_init's, at signal_variance 1."""
    init = default_init(np.vstack([bx for bx, _ in blocks]))
    return [
        Hyperparams(1.0, hp.lengthscales, hp.noise_variance / hp.signal_variance),
        Hyperparams(1.0, init.lengthscales, init.noise_variance / init.signal_variance),
    ]


def evidence_rounding(blocks, hp):
    """Bound on the gap between two ways of adding up the evidence at ``hp``.

    :func:`_profiled` adds the parts' pieces and sets y^T C^{-1} y summed
    over parts to N; the sum of ``log_marginal_likelihood`` adds each
    part's terms.  Each of the at most 3m + 3 operations rounds a partial
    sum no larger than the sum of the terms' magnitudes, ``scale``.  The
    round trip of g through noise = g * signal moves g by an ulp, and so
    each part's y^T C^{-1} y / signal by at most kappa(C) ulps of itself.
    """
    cs = covariances(blocks, hp)
    n, log_sf2 = sum(map(len, cs)), abs(math.log(hp.signal_variance))
    scale = n * (1.0 + LOG_2PI + 2.0 * log_sf2)
    scale += 0.5 * sum(abs(np.linalg.slogdet(c)[1]) for c in cs)
    return EPS * ((3 * len(cs) + 3) * scale + n * max(map(np.linalg.cond, cs)))


def test_the_profiled_value_is_the_evidence_at_the_profiled_scale(trained):
    blocks, hp = trained
    parts = [_prepare_part(bx, by) for bx, by in blocks]
    for unit in unit_points(blocks, hp):
        value, _, sf2, _ = _profiled(parts, unit)
        full = Hyperparams(sf2, unit.lengthscales, unit.noise_variance * sf2)
        total = sum(log_marginal_likelihood(bx, by, full)[0] for bx, by in blocks)
        assert abs(value - total) <= evidence_rounding(blocks, full)


def test_the_profiled_gradient_matches_central_differences(trained):
    # At default_init's point, where the gradient is far from 0.  A central
    # difference with step h errs by h^2 |f'''| / 6, allowed here as 1e-6 of
    # the derivative, plus the rounding of its two values over 2h.
    blocks, hp = trained
    parts = [_prepare_part(bx, by) for bx, by in blocks]
    unit = unit_points(blocks, hp)[1]
    _, grad, sf2, _ = _profiled(parts, unit)
    theta, h = np.log(np.append(unit.lengthscales, unit.noise_variance)), 1e-5

    def value(t):
        return _profiled(parts, Hyperparams(1.0, np.exp(t[:-1]), math.exp(t[-1])))[0]

    full = Hyperparams(sf2, unit.lengthscales, unit.noise_variance * sf2)
    rounding = evidence_rounding(blocks, full)
    for j, step in enumerate(h * np.eye(len(theta))):
        central = (value(theta + step) - value(theta - step)) / (2.0 * h)
        assert abs(central - grad[j]) <= 1e-6 * abs(grad[j]) + rounding / h
