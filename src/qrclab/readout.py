"""Closed-form ridge readout and the benchmark metrics (R^2, accuracy).

The objective sum_t ||y_t - (W x_t + b)||^2 + alpha ||W||^2 penalizes only the
weights: the bias enters as a constant design column excluded from the
regularizer. The normal equations are solved by Cholesky factorization; no
iterative optimizer is involved.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, DataError, FitError, MetricError
from .sim import shown

DEFAULT_ALPHA = 1e-2


@dataclass(frozen=True)
class RidgeModel:
    weights: np.ndarray  # shape (M,)
    bias: float
    alpha: float


def _check_design(X: np.ndarray, y: np.ndarray):
    if X.ndim != 2:
        raise DataError(f"feature matrix must be 2-d, got ndim={X.ndim}")
    if y.ndim != 1:
        raise DataError("target must be a 1-d vector")
    if X.shape[0] != y.shape[0]:
        raise DataError(f"row mismatch: {X.shape[0]} feature rows, {y.shape[0]} targets")
    if X.shape[0] == 0:
        raise DataError("empty training set")
    if not np.all(np.isfinite(X)) or not np.all(np.isfinite(y)):
        raise DataError("non-finite values in training data")


def fit_ridge(X, y, alpha: float = DEFAULT_ALPHA) -> RidgeModel:
    """Solve the ridge normal equations on the bias-augmented design.

    Raises FitError when the regularized system is not positive definite,
    which at alpha=0 means the plain least-squares system is singular.
    """
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    _check_design(X, y)
    if alpha < 0:
        raise ConfigurationError(f"alpha must be >= 0, got {shown(alpha)}")

    m = X.shape[1]
    design = np.hstack([X, np.ones((X.shape[0], 1))])
    penalty = np.diag(np.r_[np.full(m, alpha), 0.0])

    gram = design.T @ design + penalty
    rhs = design.T @ y
    try:
        chol = np.linalg.cholesky(gram)
    except np.linalg.LinAlgError as exc:
        raise FitError(
            "normal equations are singular; use alpha > 0 to regularize"
        ) from exc
    coeffs = np.linalg.solve(chol.T, np.linalg.solve(chol, rhs))

    return RidgeModel(weights=coeffs[:m], bias=float(coeffs[m]), alpha=float(alpha))


def predict(model: RidgeModel, X) -> np.ndarray:
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != model.weights.shape[0]:
        raise DataError(
            f"expected {model.weights.shape[0]} feature columns, got shape {X.shape}"
        )
    return X @ model.weights + model.bias


def r2_score(pred, target) -> float:
    """1 - SS_res/SS_tot with SS_tot about the target mean."""
    pred = np.asarray(pred, dtype=np.float64)
    target = np.asarray(target, dtype=np.float64)
    if pred.shape != target.shape or pred.size == 0:
        raise MetricError("predictions and targets must be equal-length and non-empty")
    ss_tot = float(np.sum((target - target.mean()) ** 2))
    if ss_tot == 0.0:
        raise MetricError("R^2 undefined: target has zero variance")
    ss_res = float(np.sum((target - pred) ** 2))
    return 1.0 - ss_res / ss_tot


def accuracy(pred, target, threshold: float = 0.5) -> float:
    """Fraction of rows where thresholded prediction matches the 0/1 label."""
    pred = np.asarray(pred, dtype=np.float64)
    target = np.asarray(target, dtype=np.float64)
    if pred.shape != target.shape or pred.size == 0:
        raise MetricError("predictions and targets must be equal-length and non-empty")
    if not np.all(np.isin(target, (0.0, 1.0))):
        raise MetricError("accuracy requires binary {0, 1} targets")
    return float(np.mean((pred >= threshold).astype(np.float64) == target))


def mse(pred, target) -> float:
    pred = np.asarray(pred, dtype=np.float64)
    target = np.asarray(target, dtype=np.float64)
    if pred.shape != target.shape or pred.size == 0:
        raise MetricError("predictions and targets must be equal-length and non-empty")
    return float(np.mean((pred - target) ** 2))
