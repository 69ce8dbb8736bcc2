"""Linear regression (ordinary least squares via numpy lstsq)."""

from __future__ import annotations

from typing import Any, Sequence

import numpy as np

from .metrics import r2_score, rmse
from .preprocessing import feature_matrix


class LinearRegressionModel:
    """OLS with intercept. Fit on row-major data, last column = target."""

    def __init__(self):
        self.coefficients: list[float] = []
        self.intercept: float = 0.0
        self.n_features = 0

    def fit(self, data: Sequence[Sequence[float]]) -> "LinearRegressionModel":
        matrix = np.asarray(data, dtype=float)
        if matrix.ndim != 2 or matrix.shape[1] < 2:
            raise ValueError("training data needs >= 2 columns (features + target)")
        features = matrix[:, :-1]
        target = matrix[:, -1]
        design = np.hstack([features, np.ones((features.shape[0], 1))])
        solution, *_ = np.linalg.lstsq(design, target, rcond=None)
        self.coefficients = [float(c) for c in solution[:-1]]
        self.intercept = float(solution[-1])
        self.n_features = features.shape[1]
        return self

    def predict(self, features: Sequence[Sequence[float]]) -> list[float]:
        return self._predict(features).tolist()

    def _predict(self, features: Sequence[Sequence[float]]) -> np.ndarray:
        matrix = feature_matrix(features, self.n_features)
        return matrix @ np.asarray(self.coefficients) + self.intercept

    def evaluate(self, data: Sequence[Sequence[float]]) -> dict[str, float]:
        matrix = np.asarray(data, dtype=float)
        predictions = self._predict(matrix[:, :-1])
        truth = matrix[:, -1]
        return {"rmse": rmse(truth, predictions), "r2": r2_score(truth, predictions)}

    # ---- JSON-able serialization for proxy routing -----------------------

    def to_dict(self) -> dict[str, Any]:
        return {
            "type": "linear",
            "coefficients": self.coefficients,
            "intercept": self.intercept,
            "n_features": self.n_features,
        }

    @classmethod
    def from_dict(cls, payload: dict[str, Any]) -> "LinearRegressionModel":
        model = cls()
        model.coefficients = [float(c) for c in payload["coefficients"]]
        model.intercept = float(payload["intercept"])
        model.n_features = int(payload["n_features"])
        return model
