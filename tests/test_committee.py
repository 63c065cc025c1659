"""Product and committee fusion rules over independent experts."""

import numpy as np
import pytest

import gpexperts.committee
import gpexperts.experts
import gpexperts.gp
import gpexperts.linalg
from conftest import entropy_weighted_poe, manual_ensemble, mirrored_self_kernel
from gpexperts import bench
from gpexperts import (
    ExpertEnsemble,
    Hyperparams,
    bcm_aggregate,
    gp_predict,
    grbcm_aggregate,
    npae_aggregate,
    partition_kmeans,
    partition_random,
    poe_aggregate,
    train_ensemble,
)
from gpexperts.committee import _info_gain
from gpexperts.gp import factorize


def make_ensemble(n=36, m=3, seed=0):
    rng = np.random.default_rng(seed)
    x = rng.uniform(0, 1, size=(n, 1))
    y = np.sin(5 * x).ravel() + 0.1 * rng.normal(size=n)
    parts = partition_kmeans(x, m, seed=seed + 1)
    return train_ensemble(x, y, parts, restarts=1, seed=seed + 2)


def duplicated(m, seed=0):
    hp = Hyperparams(1.0, [0.4], 0.1)
    rng = np.random.default_rng(seed)
    x = rng.uniform(0, 1, size=(8, 1))
    y = np.cos(3 * x).ravel()
    return manual_ensemble([(x, y)] * m, hp)


def expert_moments(ensemble, xs):
    preds = [gp_predict(e, xs) for e in ensemble.experts]
    means = np.column_stack([p.means for p in preds])
    variances = np.column_stack([p.variances for p in preds])
    return means, variances


def test_weight_schemes(monkeypatch):
    # each rule hands _fuse the weights its scheme names
    ens = make_ensemble(seed=1)
    xs = np.linspace(0.1, 0.9, 5)[:, None]
    seen, fuse = [], gpexperts.committee._fuse

    def recording(means, variances, betas, *rest):
        seen.append((variances, betas))
        return fuse(means, variances, betas, *rest)

    monkeypatch.setattr(gpexperts.committee, "_fuse", recording)
    poe_aggregate(ens, xs, scheme="ones")
    poe_aggregate(ens, xs, scheme="uniform")
    bcm_aggregate(ens, xs, scheme="ones")
    bcm_aggregate(ens, xs, scheme="diff_entropy")
    (_, ones), (_, uniform), (_, bcm_ones), (v, ent) = seen
    np.testing.assert_array_equal(ones, 1.0)
    np.testing.assert_array_equal(uniform, 1.0 / 3)
    np.testing.assert_array_equal(bcm_ones, 1.0)
    prior = ens.hp.signal_variance + ens.hp.noise_variance
    np.testing.assert_array_equal(ent, _info_gain(v, prior))
    v = np.array([[0.5, 0.2], [0.9, 0.9]])
    np.testing.assert_allclose(_info_gain(v, 1.0), 0.5 * (np.log(1.0) - np.log(v)))


def test_poe_takes_only_the_ones_and_uniform_schemes():
    # Unnormalized information-gain weights would fuse a point that every
    # expert has barely seen far above the prior; the product refuses them.
    ens = make_ensemble(seed=1)
    with pytest.raises(ValueError, match="poe takes scheme 'ones' or 'uniform'"):
        poe_aggregate(ens, np.array([[0.5]]), scheme="diff_entropy")


def test_bcm_takes_only_the_ones_and_diff_entropy_schemes():
    # Uniform weights leave the prior the weight 1 - m / m = 0: that
    # committee would be gpoe under another name.
    ens = make_ensemble(seed=1)
    with pytest.raises(ValueError, match="bcm takes scheme 'ones' or 'diff_entropy'"):
        bcm_aggregate(ens, np.array([[0.5]]), scheme="uniform")


def test_diff_entropy_weights_clip_at_zero():
    # an expert less confident than the prior contributes nothing
    v = np.array([[2.0, 0.5]])
    w = _info_gain(v, 1.0)
    assert w[0, 0] == 0.0
    assert w[0, 1] == pytest.approx(0.5 * np.log(2.0))


def test_poe_matches_precision_weighted_formula():
    ens = make_ensemble(seed=1)
    xs = np.linspace(0.1, 0.9, 9)[:, None]
    means, variances = expert_moments(ens, xs)
    fused = poe_aggregate(ens, xs)
    prec = np.sum(1.0 / variances, axis=1)
    np.testing.assert_allclose(fused.variances, 1.0 / prec, rtol=1e-12)
    np.testing.assert_allclose(
        fused.means, np.sum(means / variances, axis=1) / prec, rtol=1e-10
    )


def test_poe_precision_is_additive():
    ens = make_ensemble(seed=2)
    xs = np.linspace(0.1, 0.9, 5)[:, None]
    full = poe_aggregate(ens, xs)
    member_prec = sum(
        1.0 / poe_aggregate(ens, xs, subset=[i]).variances for i in range(3)
    )
    np.testing.assert_allclose(1.0 / full.variances, member_prec, rtol=1e-10)


def test_poe_adding_an_expert_never_loses_precision():
    ens = make_ensemble(seed=3)
    xs = np.linspace(0, 1, 7)[:, None]
    two = poe_aggregate(ens, xs, subset=[0, 1])
    three = poe_aggregate(ens, xs, subset=[0, 1, 2])
    assert np.all(three.variances <= two.variances + 1e-15)


def test_poe_duplicate_experts_shrink_variance_m_fold():
    m = 4
    ens = duplicated(m)
    xs = np.array([[0.3], [0.8]])
    single = gp_predict(ens.experts[0], xs)
    fused = poe_aggregate(ens, xs)
    np.testing.assert_allclose(fused.variances, single.variances / m, rtol=1e-12)
    np.testing.assert_allclose(fused.means, single.means, rtol=1e-12)


def test_gpoe_uniform_weights_leave_duplicates_honest():
    # beta summing to one keeps the fused variance at the member variance
    ens = duplicated(5)
    xs = np.array([[0.3], [0.8]])
    single = gp_predict(ens.experts[0], xs)
    fused = poe_aggregate(ens, xs, scheme="uniform")
    np.testing.assert_allclose(fused.variances, single.variances, rtol=1e-12)
    np.testing.assert_allclose(fused.means, single.means, rtol=1e-12)


def test_gpoe_uniform_variance_is_m_times_plain_product():
    ens = make_ensemble(seed=4)
    xs = np.linspace(0.2, 0.8, 6)[:, None]
    plain = poe_aggregate(ens, xs)
    uniform = poe_aggregate(ens, xs, scheme="uniform")
    np.testing.assert_allclose(uniform.variances, 3.0 * plain.variances, rtol=1e-12)
    np.testing.assert_allclose(uniform.means, plain.means, rtol=1e-12)


ZERO_NOISE_RULES = {
    "poe": lambda ens, xs: poe_aggregate(ens, xs),
    "gpoe": lambda ens, xs: poe_aggregate(ens, xs, scheme="uniform"),
    "bcm": lambda ens, xs: bcm_aggregate(ens, xs),
    "rbcm": lambda ens, xs: bcm_aggregate(ens, xs, scheme="diff_entropy"),
    "grbcm": lambda ens, xs: grbcm_aggregate(ens, xs, 0),
}


@pytest.mark.parametrize("rule", sorted(ZERO_NOISE_RULES))
def test_zero_noise_rules_return_the_interpolant_at_training_inputs(rule):
    # at x = 0 and x = 1 one noise-free member has variance 0: the limit of
    # the precision formula is its mean, as NPAE answers there (grbcm's
    # augmented means interpolate to rounding)
    hp = Hyperparams(1.0, [0.1], 0.0)
    ens = manual_ensemble(
        [(np.array([[0.0], [0.5]]), np.array([1.0, 0.3])),
         (np.array([[1.0]]), np.array([-1.0]))],
        hp,
    )
    xs = np.array([[0.0], [1.0], [0.7]])
    fused = ZERO_NOISE_RULES[rule](ens, xs)
    np.testing.assert_allclose(fused.means[:2], [1.0, -1.0], rtol=1e-12)
    np.testing.assert_array_equal(fused.variances[:2], 0.0)
    assert not fused.failed.any()
    np.testing.assert_allclose(npae_aggregate(ens, xs[:2]).means, [1.0, -1.0])
    # the other points fuse as before
    alone = ZERO_NOISE_RULES[rule](ens, xs[2:])
    np.testing.assert_array_equal(fused.means[2:], alone.means)
    np.testing.assert_array_equal(fused.variances[2:], alone.variances)
    assert alone.variances[0] > 0.0


@pytest.mark.parametrize("rule", sorted(ZERO_NOISE_RULES))
def test_several_exact_members_fuse_to_the_mean_of_their_means(rule):
    # experts 1 and 2 both interpolate x = 0, with targets 1 and 3
    hp = Hyperparams(1.0, [0.1], 0.0)
    ens = manual_ensemble(
        [(np.array([[0.5]]), np.array([0.0])),
         (np.array([[0.0]]), np.array([1.0])),
         (np.array([[0.0]]), np.array([3.0]))],
        hp,
    )
    fused = ZERO_NOISE_RULES[rule](ens, np.array([[0.0]]))
    assert fused.means[0] == pytest.approx(2.0, rel=1e-12)
    assert fused.variances[0] == 0.0


def test_a_zero_weight_point_falls_back_to_the_prior_under_poe_as_under_bcm():
    # at x = 5 both noise-free one-point experts sit at the prior, so every
    # diff_entropy weight is 0 and the product has no precision left
    hp = Hyperparams(1.0, [0.01], 0.0)
    ens = manual_ensemble(
        [(np.array([[0.0]]), np.array([1.0])), (np.array([[1.0]]), np.array([-1.0]))],
        hp,
    )
    xs = np.array([[0.5], [5.0]])
    fused = entropy_weighted_poe(ens, xs)
    committee = bcm_aggregate(ens, xs, scheme="diff_entropy")
    np.testing.assert_array_equal(fused.failed, [False, True])
    assert fused.means[1] == 0.0 and fused.variances[1] == hp.signal_variance
    assert committee.means[1] == 0.0 and committee.variances[1] == hp.signal_variance


def test_poe_weighs_and_falls_back_against_the_latent_prior():
    # the fused variances are latent: an expert at k(x, x) has no information
    # gain, even where the observation-space prior k(x, x) + noise is larger.
    # At x = 0.3 expert 0 has barely seen the point (0 < c_0 < 1e-3): its
    # weight is about c_0 / 2, and unnormalised the product would answer
    # about 2 / c_0, far above the prior.
    hp = Hyperparams(1.0, [0.01], 0.1)
    ens = manual_ensemble(
        [(np.array([[0.0]]), np.array([1.0])), (np.array([[1.0]]), np.array([-1.0]))],
        hp,
    )
    xs = np.array([[0.0], [0.3], [5.0]])
    fused = entropy_weighted_poe(ens, xs)
    np.testing.assert_array_equal(fused.failed, [False, False, True])
    assert fused.means[2] == 0.0 and fused.variances[2] == hp.signal_variance
    means, variances = expert_moments(ens, xs[:2])
    assert 0.0 < hp.signal_variance - variances[1, 0] < 1e-3
    assert np.all(variances[:, 1] == hp.signal_variance)  # no gain: weight 0
    assert np.all(fused.variances <= hp.signal_variance)
    # expert 0 holds all of the weight, so the product is expert 0
    np.testing.assert_allclose(fused.variances[:2], variances[:, 0], rtol=1e-15)
    np.testing.assert_allclose(fused.means[:2], means[:, 0], rtol=1e-15)


def test_poe_diff_entropy_weights_are_normalised():
    # the generalized product: weights sum to 1 per point, so the fused
    # variance is a weighted harmonic mean of the member variances
    ens = make_ensemble(seed=4)
    xs = np.linspace(-0.5, 1.5, 41)[:, None]
    fused = entropy_weighted_poe(ens, xs)
    assert not fused.failed.any()
    means, variances = expert_moments(ens, xs)
    beta = _info_gain(variances, ens.hp.signal_variance)
    beta /= beta.sum(axis=1, keepdims=True)
    prec = np.sum(beta / variances, axis=1)
    np.testing.assert_allclose(fused.variances, 1.0 / prec, rtol=1e-12)
    mean = np.sum(beta * means / variances, axis=1) / prec
    np.testing.assert_allclose(fused.means, mean, rtol=1e-12, atol=1e-14)
    assert np.all(fused.variances <= variances.max(axis=1) * (1 + 1e-12))
    assert np.all(fused.variances >= variances.min(axis=1) * (1 - 1e-12))


def test_bcm_single_expert_is_that_expert():
    ens = make_ensemble(seed=5)
    xs = np.linspace(0.1, 0.9, 5)[:, None]
    fused = bcm_aggregate(ens, xs, subset=[1])
    ref = gp_predict(ens.experts[1], xs)
    np.testing.assert_allclose(fused.means, ref.means, rtol=1e-12)
    np.testing.assert_allclose(fused.variances, ref.variances, rtol=1e-12)


def test_bcm_matches_prior_corrected_formula():
    ens = make_ensemble(seed=6)
    xs = np.linspace(0.1, 0.9, 9)[:, None]
    means, variances = expert_moments(ens, xs)
    prior = ens.hp.signal_variance + ens.hp.noise_variance
    fused = bcm_aggregate(ens, xs)
    prec = np.sum(1.0 / variances, axis=1) + (1.0 - 3) / prior
    np.testing.assert_allclose(fused.variances, 1.0 / prec, rtol=1e-10)
    np.testing.assert_allclose(
        fused.means, np.sum(means / variances, axis=1) / prec, rtol=1e-8
    )


def test_bcm_vanishing_weights_recover_the_prior():
    # far from all data with near-zero noise the correction term dominates
    hp = Hyperparams(1.0, [0.5], 1e-10)
    rng = np.random.default_rng(7)
    blocks = [
        (rng.uniform(0, 1, size=(6, 1)), rng.normal(size=6)) for _ in range(3)
    ]
    ens = manual_ensemble(blocks, hp)
    far = np.array([[50.0]])
    fused = bcm_aggregate(ens, far, scheme="diff_entropy")
    prior = hp.signal_variance + hp.noise_variance
    assert fused.means[0] == pytest.approx(0.0, abs=1e-6)
    assert fused.variances[0] == pytest.approx(prior, rel=1e-6)


def test_rbcm_downweights_the_clueless_expert():
    # beta -> 0 where an expert sits at prior variance, so rbcm stays bounded
    ens = make_ensemble(seed=8)
    xs = np.linspace(-2.0, 3.0, 30)[:, None]
    fused = bcm_aggregate(ens, xs, scheme="diff_entropy")
    prior = ens.hp.signal_variance + ens.hp.noise_variance
    assert np.all(fused.variances <= prior * (1 + 1e-12))
    assert np.all(fused.variances > 0)


def test_grbcm_two_experts_equal_augmented_model():
    ens = make_ensemble(n=30, m=2, seed=9)
    xs = np.linspace(0.1, 0.9, 8)[:, None]
    fused = grbcm_aggregate(ens, xs, 0)
    base, other = ens.experts[0], ens.experts[1]
    aug = factorize(
        np.vstack([base.x, other.x]),
        np.concatenate([base.y, other.y]),
        ens.hp,
    )
    ref = gp_predict(aug, xs)
    np.testing.assert_allclose(fused.means, ref.means, rtol=1e-12)
    np.testing.assert_allclose(fused.variances, ref.variances, rtol=1e-12)


def test_grbcm_three_experts_match_manual_fusion():
    ens = make_ensemble(n=45, m=3, seed=10)
    xs = np.linspace(0.1, 0.9, 8)[:, None]
    fused = grbcm_aggregate(ens, xs, 2)

    base = ens.experts[2]
    base_pred = gp_predict(base, xs)
    aug_preds = []
    for i in (0, 1):  # subset order with the base removed
        e = ens.experts[i]
        aug = factorize(np.vstack([base.x, e.x]), np.concatenate([base.y, e.y]), ens.hp)
        aug_preds.append(gp_predict(aug, xs))

    betas = np.column_stack(
        [
            np.ones(len(xs)),
            np.maximum(
                0.5 * (np.log(base_pred.variances) - np.log(aug_preds[1].variances)),
                0.0,
            ),
        ]
    )
    aug_vars = np.column_stack([p.variances for p in aug_preds])
    aug_means = np.column_stack([p.means for p in aug_preds])
    prec = np.sum(betas / aug_vars, axis=1) + (
        1.0 - betas.sum(axis=1)
    ) / base_pred.variances
    mean = (
        np.sum(betas * aug_means / aug_vars, axis=1)
        + (1.0 - betas.sum(axis=1)) * base_pred.means / base_pred.variances
    ) / prec
    np.testing.assert_allclose(fused.variances, 1.0 / prec, rtol=1e-12)
    np.testing.assert_allclose(fused.means, mean, rtol=1e-10)


def test_grbcm_random_base_is_seeded():
    # The benchmark's unstarred grbcm draws its base from the run's seed.
    ens = make_ensemble(n=40, m=4, seed=11)
    xs = np.linspace(0.2, 0.8, 5)[:, None]
    kind, predict = bench.METHODS["grbcm"]
    assert kind == "CI"
    a = predict(ens, xs, None, None, 5)
    b = predict(ens, xs, None, None, 5)
    np.testing.assert_array_equal(a.means, b.means)
    np.testing.assert_array_equal(a.variances, b.variances)
    ref = grbcm_aggregate(ens, xs, int(np.random.default_rng(5).integers(4)))
    np.testing.assert_array_equal(a.means, ref.means)
    # the draw is the one a seeded choice over all experts makes, so the
    # benchmark's reports keep their base expert
    for m in (2, 3, 10, 40):
        for seed in range(200):
            draw = np.random.default_rng(seed).integers(m)
            assert draw == np.random.default_rng(seed).choice(np.arange(m))


def test_grbcm_argument_validation():
    ens = make_ensemble(n=30, m=3, seed=12)
    xs = np.array([[0.5]])
    single = make_ensemble(n=20, m=1, seed=13)
    with pytest.raises(ValueError, match="at least two"):
        grbcm_aggregate(single, xs, 0)
    with pytest.raises(ValueError, match="not in the subset"):
        grbcm_aggregate(ens, xs, 2, subset=[0, 1])
    with pytest.raises(ValueError, match="not in the subset"):
        grbcm_aggregate(ens, xs, 3)
    # 0.0 == 0 and True == 1 pass the membership test: the base is checked first
    for bad in (0.0, True):
        with pytest.raises(ValueError, match="base must be an integer"):
            grbcm_aggregate(ens, xs, bad)
    np.testing.assert_array_equal(
        grbcm_aggregate(ens, xs, np.int64(0)).means, grbcm_aggregate(ens, xs, 0).means
    )


def random_parts_8d(n=120, m=4, seed=14):
    # Random parts of 8-D inputs: every part spans the whole domain, so each
    # one overlaps the base.
    rng = np.random.default_rng(seed)
    x = rng.uniform(-1.0, 1.0, size=(n, 8))
    y = np.sin(x @ rng.normal(size=8)) + 0.05 * rng.normal(size=n)
    hp = Hyperparams(1.3, np.full(8, 2.5), 0.02)
    parts = partition_random(n, m, seed=seed)
    return manual_ensemble(
        [(x[parts.indices(i)], y[parts.indices(i)]) for i in range(m)], hp
    ), rng.uniform(-1.0, 1.0, size=(15, 8))


def augmented_moments(ens, xs, base, monkeypatch):
    """grbcm's augmented means and variances, as handed to the fusion."""
    seen = []

    def recorded(means, variances, *args):
        seen.append((means, variances))
        return fuse(means, variances, *args)

    fuse = gpexperts.committee._fuse
    monkeypatch.setattr(gpexperts.committee, "_fuse", recorded)
    grbcm_aggregate(ens, xs, base)
    return seen[0]


@pytest.mark.parametrize("case", ["random-8d", "duplicated"])
def test_grbcm_augmented_experts_match_a_joint_refit(case, monkeypatch):
    # Oracle: refit the GP on [X_b; X_i] and predict with it.  For the
    # duplicated ensemble every part repeats the base, which the Schur update
    # meets as heavy cancellation in C_i - G_i G_i^T.
    if case == "duplicated":
        ens, xs, base = duplicated(4), np.linspace(-0.2, 1.2, 11)[:, None], 1
    else:
        (ens, xs), base = random_parts_8d(), 2
    means, variances = augmented_moments(ens, xs, base, monkeypatch)
    b, hp = ens.experts[base], ens.hp
    for col, i in enumerate(i for i in range(ens.n_experts) if i != base):
        e = ens.experts[i]
        ref = gp_predict(
            factorize(np.vstack([b.x, e.x]), np.concatenate([b.y, e.y]), hp), xs
        )
        scale = np.max(np.abs(ref.means))
        np.testing.assert_allclose(means[:, col], ref.means, rtol=0, atol=1e-12 * scale)
        np.testing.assert_allclose(
            variances[:, col], ref.variances, rtol=0, atol=1e-12 * hp.signal_variance
        )


def test_grbcm_in_8d_matches_the_mirrored_self_kernel(monkeypatch):
    # The Schur complement starts from the raw GEMM's self-kernel, whose two
    # triangles round apart, and from an exact signal-variance diagonal.
    (ens, xs), base = random_parts_8d(), 1
    fused = grbcm_aggregate(ens, xs, base)
    ens.forget()
    monkeypatch.setattr(gpexperts.gp, "_self_kernel", mirrored_self_kernel)
    ref = grbcm_aggregate(ens, xs, base)
    scale = np.max(np.abs(ref.means))
    np.testing.assert_allclose(fused.means, ref.means, rtol=0, atol=1e-12 * scale)
    np.testing.assert_allclose(
        fused.variances, ref.variances, rtol=0, atol=1e-12 * ens.hp.signal_variance
    )


def test_grbcm_jitters_a_singular_schur_complement_on_the_joint_scale(monkeypatch):
    # Noise-free duplicated parts: S_i = 0 in exact arithmetic, so only
    # jitter factors it.  Scaled like the refit's jitter on the joint matrix,
    # the ladder reaches the refit's answer, the base's own posterior, to
    # within the 1e-10 jitter both add.
    x = np.linspace(0.0, 1.2, 5)[:, None]
    hp = Hyperparams(1.0, [0.05], 0.0)
    ens = manual_ensemble([(x, np.cos(3 * x).ravel())] * 3, hp)
    xs = np.linspace(-0.09, 1.31, 9)[:, None]
    means, variances = augmented_moments(ens, xs, 0, monkeypatch)
    b = ens.experts[0]
    joint = factorize(np.vstack([b.x, b.x]), np.concatenate([b.y, b.y]), hp)
    assert joint.jitter > 0.0
    ref = gp_predict(joint, xs)
    for col in range(2):
        np.testing.assert_allclose(means[:, col], ref.means, rtol=0, atol=1e-9)
        np.testing.assert_allclose(variances[:, col], ref.variances, rtol=0, atol=1e-9)
    # The jitter reaches the result, below the top of the ladder.
    reported = grbcm_aggregate(ens, xs, 0).max_jitter
    assert 0.0 < reported <= 1e-4 * (hp.signal_variance + hp.noise_variance)


def test_grbcm_and_npae_do_not_depend_on_the_memo_state():
    # grbcm whitens its base in the ensemble's memo, NPAE whitens every
    # member: whichever runs first, both give bit-identical output.
    ens = make_ensemble(n=60, m=4, seed=15)
    xs = np.linspace(-0.1, 1.1, 17)[:, None]

    def fresh():
        return ExpertEnsemble(ens.experts, ens.hp)

    grbcm_cold = grbcm_aggregate(fresh(), xs, 1)
    npae_cold = npae_aggregate(fresh(), xs)
    warm = fresh()
    npae_aggregate(warm, xs)
    grbcm_warm = grbcm_aggregate(warm, xs, 1)
    warm = fresh()
    grbcm_aggregate(warm, xs, 1)
    npae_warm = npae_aggregate(warm, xs)
    for cold, hot in ((grbcm_cold, grbcm_warm), (npae_cold, npae_warm)):
        np.testing.assert_array_equal(hot.means, cold.means)
        np.testing.assert_array_equal(hot.variances, cold.variances)


def test_grbcm_factors_only_part_sized_matrices(monkeypatch):
    ens = make_ensemble(n=70, m=5, seed=16)
    xs = np.linspace(0.0, 1.0, 9)[:, None]
    base = 3
    factorized, orders = [], []

    def counted_factorize(*args, **kwargs):
        factorized.append(args)
        return factorize(*args, **kwargs)

    def counted_chol(a, *args, **kwargs):
        orders.append(np.shape(a)[0])
        return chol(a, *args, **kwargs)

    chol = gpexperts.gp.chol_with_jitter
    for module in (gpexperts.gp, gpexperts.experts):
        monkeypatch.setattr(module, "factorize", counted_factorize)
    for module in (gpexperts.gp, gpexperts.linalg):
        monkeypatch.setattr(module, "chol_with_jitter", counted_chol)
    grbcm_aggregate(ens, xs, base)
    assert factorized == []
    sizes = [e.x.shape[0] for i, e in enumerate(ens.experts) if i != base]
    assert len(orders) == len(sizes)
    assert max(orders) <= max(sizes)


FUSION_RULES = {
    "poe": lambda ens, xs, sub: poe_aggregate(ens, xs, subset=sub, scheme="ones"),
    "gpoe": lambda ens, xs, sub: poe_aggregate(ens, xs, subset=sub, scheme="uniform"),
    "bcm": lambda ens, xs, sub: bcm_aggregate(ens, xs, subset=sub, scheme="ones"),
    "rbcm": lambda ens, xs, sub: bcm_aggregate(
        ens, xs, subset=sub, scheme="diff_entropy"
    ),
    "npae": lambda ens, xs, sub: npae_aggregate(ens, xs, subset=sub),
    "grbcm": lambda ens, xs, sub: grbcm_aggregate(ens, xs, 3, subset=sub),
    "grbcm-random-base": lambda ens, xs, sub: grbcm_aggregate(
        ens, xs, int(np.random.default_rng(4).choice(np.sort(sub))), subset=sub
    ),
}


@pytest.mark.parametrize("rule", sorted(FUSION_RULES))
def test_fusion_is_invariant_to_expert_order(rule):
    ens = make_ensemble(60, 5, seed=8)
    xs = np.linspace(-0.1, 1.1, 13)[:, None]
    subset = np.array([0, 1, 3, 4])
    permuted = np.array([4, 1, 0, 3])
    a = FUSION_RULES[rule](ens, xs, subset)
    b = FUSION_RULES[rule](ens, xs, permuted)
    np.testing.assert_allclose(b.means, a.means, rtol=1e-9, atol=1e-12)
    np.testing.assert_allclose(b.variances, a.variances, rtol=1e-9, atol=1e-12)
