"""Invariants that follow from GP theory, in one seeded sweep.

The sweep covers input dimension D in {1, 2, 8}, m in {1, 2, 5, 20} experts
of 40 points each, k-means and random parts, and two data seeds, plus a
noise-free ensemble and one with a duplicated expert.  Every ensemble is
built at fixed hyperparameters, so nothing is trained.  Each tolerance is
derived from the quantity it bounds, next to the assertion that uses it;
eps is the double-precision machine epsilon, twice the unit roundoff.
"""

import inspect
import itertools

import numpy as np
import pytest

from conftest import manual_ensemble
from gpexperts import (
    Hyperparams,
    bcm_aggregate,
    expert_graph,
    graphical_lasso,
    npae_aggregate,
    partition_kmeans,
    partition_random,
    poe_aggregate,
    select_experts,
)
from gpexperts.committee import compute_weights
from gpexperts.gp import _latent_variance

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


@pytest.fixture(scope="module", params=CONFIGS, ids=IDS)
def built(request):
    """(ensemble, test inputs, expert graph) of one config."""
    d, m, partition, seed, edge = request.param
    rng = np.random.default_rng(seed)
    n = PART_SIZE * m
    x = rng.uniform(0.0, 1.0, size=(n, d))
    y = np.sin(6.0 * x.sum(axis=1) / np.sqrt(d)) + 0.1 * rng.normal(size=n)
    if partition == "kmeans":
        parts = partition_kmeans(x, m, seed=seed)
    else:
        parts = partition_random(n, m, seed=seed)
    blocks = [(x[idx], y[idx]) for idx in map(parts.indices, range(m))]
    hp = HP[d] if not edge else Hyperparams(1.0, HP[d].lengthscales, 0.0)
    ens = manual_ensemble(blocks + blocks[:1] if edge == "-duplicated" else blocks, hp)
    xs = rng.uniform(-0.5, 1.5, size=(N_TEST, d))
    if edge == "-zero-noise":
        xs[::2] = x[: N_TEST // 2]
    return ens, xs, expert_graph(ens, xs, lam=LAM, alpha=0.5)


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
    assert npae.deflated is not None and without.deflated is None
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
    # one: 2 (m + 1) eps relative.
    ens, xs, _ = built
    m = ens.n_experts
    variances = _latent_variance(ens.hp, ens.moments(xs)[1])
    fused = poe_aggregate(ens, xs, scheme=scheme).variances
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
    betas = compute_weights(scheme, variances, prior)
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
