"""Ridge readout and metric tests."""

import numpy as np
import pytest

from qrclab.errors import ConfigurationError, DataError, FitError, MetricError
from qrclab.readout import (
    RidgeModel,
    accuracy,
    fit_ridge,
    mse,
    predict,
    r2_score,
)


def oracle_ridge(X, y, alpha):
    """Independent route: augmented least squares solved by SVD (lstsq).

    Minimizing ||y - A w||^2 + alpha ||w_nonbias||^2 equals ordinary least
    squares on A stacked with sqrt(alpha) rows selecting the penalized
    coordinates.
    """
    n, m = X.shape
    A = np.hstack([X, np.ones((n, 1))])
    if alpha > 0:
        rows = np.hstack([np.sqrt(alpha) * np.eye(m), np.zeros((m, 1))])
        A = np.vstack([A, rows])
        y = np.concatenate([y, np.zeros(m)])
    coeffs, *_ = np.linalg.lstsq(A, y, rcond=None)
    return coeffs


class TestFitRidge:
    def test_recovers_planted_solution(self):
        rng = np.random.default_rng(0)
        X = rng.standard_normal((50, 5))
        w_true = rng.standard_normal(5)
        b_true = 0.7
        y = X @ w_true + b_true
        model = fit_ridge(X, y, alpha=0.0)
        np.testing.assert_allclose(model.weights, w_true, atol=1e-8)
        assert abs(model.bias - b_true) < 1e-8

    @pytest.mark.parametrize("alpha", [0.0, 1e-3, 0.1, 2.0])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_lstsq_oracle(self, alpha, seed):
        rng = np.random.default_rng(seed)
        X = rng.standard_normal((30, 4))
        y = rng.standard_normal(30)
        model = fit_ridge(X, y, alpha=alpha)
        want = oracle_ridge(X, y, alpha)
        np.testing.assert_allclose(model.weights, want[:4], atol=1e-10)
        assert abs(model.bias - want[4]) < 1e-10

    def test_bias_not_regularized(self):
        # a huge alpha crushes the weights but the bias still tracks the mean
        rng = np.random.default_rng(3)
        X = rng.standard_normal((100, 3))
        y = rng.standard_normal(100) + 5.0
        model = fit_ridge(X, y, alpha=1e9)
        assert np.linalg.norm(model.weights) < 1e-5
        assert abs(model.bias - y.mean()) < 0.1

    def test_singular_at_zero_alpha(self):
        X = np.ones((10, 2))  # duplicate columns
        y = np.arange(10.0)
        with pytest.raises(FitError, match="alpha"):
            fit_ridge(X, y, alpha=0.0)

    def test_negative_alpha_rejected(self):
        with pytest.raises(ConfigurationError):
            fit_ridge(np.eye(3), np.ones(3), alpha=-1.0)
        with pytest.raises(ConfigurationError, match="got a negative integer of 16610 bits"):
            fit_ridge(np.eye(3), np.ones(3), alpha=-(10**5000))

    def test_non_finite_rejected(self):
        X = np.array([[1.0], [np.nan]])
        with pytest.raises(DataError):
            fit_ridge(X, np.array([1.0, 2.0]), alpha=0.1)

    def test_gradient_vanishes_at_solution(self):
        # finite-difference gradient of the objective at the fit, central
        # differences; the objective is quadratic so the only error is roundoff
        rng = np.random.default_rng(5)
        for seed in range(5):
            rng = np.random.default_rng(seed)
            X = rng.standard_normal((25, 3))
            y = rng.standard_normal(25)
            alpha = 0.3
            model = fit_ridge(X, y, alpha=alpha)
            params = np.r_[model.weights, model.bias]

            def objective(p):
                r = y - (X @ p[:3] + p[3])
                return float(r @ r + alpha * (p[:3] @ p[:3]))

            h = 1e-4
            grad = np.empty(4)
            for i in range(4):
                up, dn = params.copy(), params.copy()
                up[i] += h
                dn[i] -= h
                grad[i] = (objective(up) - objective(dn)) / (2 * h)
            assert np.linalg.norm(grad) <= 1e-8

    def test_shrinkage_monotone(self):
        rng = np.random.default_rng(9)
        X = rng.standard_normal((40, 5))
        y = rng.standard_normal(40)
        norms = [
            np.linalg.norm(fit_ridge(X, y, alpha=a).weights)
            for a in (0.0, 1e-3, 1e-2, 0.1, 1.0, 10.0)
        ]
        assert all(a >= b - 1e-12 for a, b in zip(norms, norms[1:]))

    def test_nested_features_raise_training_r2(self):
        rng = np.random.default_rng(12)
        X = rng.standard_normal((60, 6))
        y = rng.standard_normal(60)
        small = fit_ridge(X[:, :3], y, alpha=0.0)
        big = fit_ridge(X, y, alpha=0.0)
        r2_small = r2_score(predict(small, X[:, :3]), y)
        r2_big = r2_score(predict(big, X), y)
        assert r2_big >= r2_small - 1e-12


class TestPredict:
    def test_constant_model(self):
        model = RidgeModel(weights=np.zeros(2), bias=3.5, alpha=0.0)
        np.testing.assert_allclose(predict(model, np.random.rand(4, 2)), 3.5)

    def test_identity_feature(self):
        model = RidgeModel(weights=np.ones(1), bias=0.0, alpha=0.0)
        X = np.array([[1.0], [2.0], [-0.5]])
        np.testing.assert_allclose(predict(model, X), X[:, 0])

    def test_in_span_residual(self):
        rng = np.random.default_rng(21)
        X = rng.standard_normal((30, 4))
        y = X @ rng.standard_normal(4) + 1.2
        model = fit_ridge(X, y, alpha=0.0)
        assert np.linalg.norm(predict(model, X) - y) <= 1e-8

    def test_dimension_mismatch(self):
        model = RidgeModel(weights=np.ones(2), bias=0.0, alpha=0.0)
        with pytest.raises(DataError):
            predict(model, np.ones((3, 5)))


class TestR2:
    def test_perfect(self):
        assert r2_score([1.0, 2.0, 3.0], [1.0, 2.0, 3.0]) == 1.0

    def test_mean_predictor_zero(self):
        target = np.array([1.0, 2.0, 3.0])
        assert abs(r2_score(np.full(3, 2.0), target)) < 1e-15

    def test_anti_prediction(self):
        assert abs(r2_score([1.0, 0.0], [0.0, 1.0]) - (-3.0)) < 1e-12

    def test_zero_variance_target(self):
        with pytest.raises(MetricError):
            r2_score([1.0, 2.0], [3.0, 3.0])

    def test_length_mismatch(self):
        with pytest.raises(MetricError):
            r2_score([1.0], [1.0, 2.0])


class TestAccuracy:
    def test_perfect(self):
        assert accuracy([0.9, 0.1, 0.8], [1.0, 0.0, 1.0]) == 1.0

    def test_all_wrong(self):
        assert accuracy([0.4, 0.4], [1.0, 1.0]) == 0.0

    def test_two_thirds(self):
        assert abs(accuracy([0.6, 0.2, 0.7], [1.0, 0.0, 0.0]) - 2.0 / 3.0) < 1e-12

    def test_threshold_boundary_counts_as_one(self):
        assert accuracy([0.5], [1.0]) == 1.0

    def test_non_binary_targets(self):
        with pytest.raises(MetricError):
            accuracy([0.5], [0.3])

    def test_empty(self):
        with pytest.raises(MetricError):
            accuracy([], [])


class TestMisc:
    def test_mse(self):
        assert mse([1.0, 2.0], [0.0, 2.0]) == 0.5
