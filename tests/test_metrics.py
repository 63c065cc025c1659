"""Standardized prediction-quality metrics."""

import numpy as np
import pytest

from gpexperts import mae, msll, smse


def test_smse_perfect_predictions():
    y = np.array([0.5, 1.5, -2.0])
    assert smse(y, y) == 0.0


def test_smse_mean_predictor_scores_one():
    y = np.array([0.0, 1.0, 2.0, 7.0])
    assert smse(y, np.full(4, y.mean())) == pytest.approx(1.0)


def test_smse_hand_example():
    # mse 1/3 over population variance 2/3
    assert smse([0.0, 1.0, 2.0], [0.0, 1.0, 1.0]) == pytest.approx(0.5)


def test_smse_affine_invariance():
    rng = np.random.default_rng(0)
    y = rng.normal(size=20)
    m = y + rng.normal(scale=0.3, size=20)
    base = smse(y, m)
    assert smse(5.0 * y - 2.0, 5.0 * m - 2.0) == pytest.approx(base, rel=1e-12)


def test_smse_rejects_constant_targets():
    with pytest.raises(ValueError):
        smse(np.ones(5), np.zeros(5))


def test_msll_trivial_predictor_is_zero():
    y = np.array([0.3, -1.2, 0.8])
    out = msll(y, np.full(3, 0.1), np.full(3, 2.0), 0.1, 2.0)
    assert out == 0.0


def test_msll_single_point_closed_form():
    # unit predictive variance against a trivial variance of e: -1/2
    assert msll([0.0], [0.0], [1.0], 0.0, np.e) == pytest.approx(-0.5, abs=1e-12)


def test_msll_tight_correct_predictions_are_negative():
    rng = np.random.default_rng(1)
    y = rng.normal(size=30)
    out = msll(y, y, np.full(30, 1e-4), float(y.mean()), float(y.var()))
    assert out < 0.0


def test_msll_rejects_bad_variances():
    with pytest.raises(ValueError):
        msll([0.0], [0.0], [0.0], 0.0, 1.0)
    with pytest.raises(ValueError):
        msll([0.0], [0.0], [-1.0], 0.0, 1.0)
    with pytest.raises(ValueError):
        msll([0.0], [0.0], [1.0], 0.0, 0.0)


def test_mae_hand_examples():
    assert mae([1.0, -1.0], [0.0, 0.0]) == pytest.approx(1.0)
    y = np.array([0.0, 2.0, 4.0])
    assert mae(y, y + 0.75) == pytest.approx(0.75)
    assert mae(y, y) == 0.0


def test_mae_zero_iff_exact():
    y = np.array([1.0, 2.0])
    assert mae(y, np.array([1.0, 2.0 + 1e-9])) > 0.0


def test_length_mismatch_rejected():
    with pytest.raises(ValueError):
        smse([0.0, 1.0], [0.0])
    with pytest.raises(ValueError):
        mae([0.0, 1.0], [0.0])
    with pytest.raises(ValueError):
        msll([0.0, 1.0], [0.0], [1.0], 0.0, 1.0)


def test_empty_inputs_rejected():
    for metric in (smse, mae):
        with pytest.raises(ValueError, match="metric inputs are empty"):
            metric([], [])


def test_non_finite_inputs_rejected_by_name():
    # each used to return a NaN or inf score instead of raising
    with pytest.raises(ValueError, match="y_true must be finite"):
        smse([1.0, 2.0, np.nan], [1.0, 2.0, 3.0])
    with pytest.raises(ValueError, match="means must be finite"):
        smse([1.0, 2.0, 3.0], [1.0, -np.inf, 3.0])
    with pytest.raises(ValueError, match="y_true must be finite"):
        mae([1.0, np.inf], [1.0, 2.0])
    with pytest.raises(ValueError, match="means must be finite"):
        mae([1.0, 2.0], [np.nan, 2.0])
    with pytest.raises(ValueError, match="variances must be finite"):
        msll([0.0, 1.0], [0.0, 1.0], [1.0, np.nan], 0.0, 1.0)
    with pytest.raises(ValueError, match="variances must be finite"):
        msll([0.0, 1.0], [0.0, 1.0], [1.0, np.inf], 0.0, 1.0)
    with pytest.raises(ValueError, match="train_mean must be finite"):
        msll([0.0], [0.0], [1.0], np.nan, 1.0)
    with pytest.raises(ValueError, match="train_var must be finite"):
        msll([0.0], [0.0], [1.0], 0.0, np.inf)
    with pytest.raises(ValueError, match="train_var must be finite"):
        msll([0.0], [0.0], [1.0], 0.0, np.nan)
