"""Decision-tree and random-forest regressors, from scratch on numpy.

Variance-reduction splitting with quantile-candidate thresholds keeps
training fast enough for the 20,000-row NL2ML benchmark while remaining a
genuine, dependency-free implementation.
"""

from __future__ import annotations

from typing import Any, Sequence

import numpy as np

from .preprocessing import feature_matrix


class _Node:
    __slots__ = ("feature", "threshold", "left", "right", "value")

    def __init__(self, value: float):
        self.feature: int | None = None
        self.threshold: float = 0.0
        self.left: "_Node | None" = None
        self.right: "_Node | None" = None
        self.value = value

    @property
    def is_leaf(self) -> bool:
        return self.left is None

    def to_dict(self) -> dict[str, Any]:
        if self.is_leaf:
            return {"value": self.value}
        return {
            "feature": self.feature,
            "threshold": self.threshold,
            "left": self.left.to_dict(),
            "right": self.right.to_dict(),
            "value": self.value,
        }

    @classmethod
    def from_dict(cls, payload: dict[str, Any]) -> "_Node":
        node = cls(payload["value"])
        if "feature" in payload:
            node.feature = payload["feature"]
            node.threshold = payload["threshold"]
            node.left = cls.from_dict(payload["left"])
            node.right = cls.from_dict(payload["right"])
        return node


class DecisionTreeRegressor:
    def __init__(
        self,
        max_depth: int = 6,
        min_samples_split: int = 10,
        n_thresholds: int = 16,
        feature_fraction: float = 1.0,
        seed: int = 0,
    ):
        self.max_depth = max_depth
        self.min_samples_split = min_samples_split
        self.n_thresholds = n_thresholds
        self.feature_fraction = feature_fraction
        self.rng = np.random.default_rng(seed)
        self.root: _Node | None = None
        self.n_features = 0

    def fit(self, features: np.ndarray, target: np.ndarray) -> "DecisionTreeRegressor":
        features = np.asarray(features, dtype=float)
        target = np.asarray(target, dtype=float)
        self.n_features = features.shape[1]
        self.root = self._grow(features, target, depth=0)
        return self

    def _grow(self, features: np.ndarray, target: np.ndarray, depth: int) -> _Node:
        node = _Node(float(target.mean()))
        if (
            depth >= self.max_depth
            or len(target) < self.min_samples_split
            or np.all(target == target[0])
        ):
            return node
        best = self._best_split(features, target)
        if best is None:
            return node
        feature, threshold, mask = best
        node.feature = feature
        node.threshold = threshold
        node.left = self._grow(features[mask], target[mask], depth + 1)
        node.right = self._grow(features[~mask], target[~mask], depth + 1)
        return node

    def _best_split(self, features: np.ndarray, target: np.ndarray):
        n_features = features.shape[1]
        k = max(1, int(round(n_features * self.feature_fraction)))
        candidates = (
            self.rng.choice(n_features, size=k, replace=False)
            if k < n_features
            else np.arange(n_features)
        )
        parent_score = target.var() * len(target)
        best_gain, best = 0.0, None
        for feature in candidates:
            column = features[:, feature]
            quantiles = np.quantile(
                column, np.linspace(0.05, 0.95, self.n_thresholds)
            )
            for threshold in np.unique(quantiles):
                mask = column <= threshold
                n_left = int(mask.sum())
                if n_left == 0 or n_left == len(target):
                    continue
                left, right = target[mask], target[~mask]
                child_score = left.var() * len(left) + right.var() * len(right)
                gain = parent_score - child_score
                if gain > best_gain:
                    best_gain = gain
                    best = (int(feature), float(threshold), mask)
        return best

    def predict(self, features: Sequence[Sequence[float]]) -> list[float]:
        if self.root is None:
            raise ValueError("model is not fitted")
        return self._predict(feature_matrix(features, self.n_features)).tolist()

    def _predict(self, matrix: np.ndarray) -> np.ndarray:
        """Leaf values of all rows at once; a node splits the rows reaching it."""
        out = np.empty(len(matrix))
        pending = [(self.root, np.arange(len(matrix)))]
        while pending:
            node, rows = pending.pop()
            if node.is_leaf:
                out[rows] = node.value
            elif len(rows):
                left = matrix[rows, node.feature] <= node.threshold
                pending += [(node.left, rows[left]), (node.right, rows[~left])]
        return out

    def to_dict(self) -> dict[str, Any]:
        if self.root is None:
            raise ValueError("model is not fitted")
        return {
            "type": "tree",
            "n_features": self.n_features,
            "root": self.root.to_dict(),
        }

    @classmethod
    def from_dict(cls, payload: dict[str, Any]) -> "DecisionTreeRegressor":
        model = cls()
        model.n_features = int(payload["n_features"])
        model.root = _Node.from_dict(payload["root"])
        return model


class RandomForestRegressor:
    def __init__(
        self,
        n_trees: int = 10,
        max_depth: int = 6,
        min_samples_split: int = 10,
        max_samples: int = 2_000,
        feature_fraction: float = 0.7,
        seed: int = 0,
    ):
        self.n_trees = n_trees
        self.max_depth = max_depth
        self.min_samples_split = min_samples_split
        self.max_samples = max_samples
        self.feature_fraction = feature_fraction
        self.seed = seed
        self.trees: list[DecisionTreeRegressor] = []
        self.n_features = 0

    def fit(self, features: np.ndarray, target: np.ndarray) -> "RandomForestRegressor":
        features = np.asarray(features, dtype=float)
        target = np.asarray(target, dtype=float)
        self.n_features = features.shape[1]
        rng = np.random.default_rng(self.seed)
        n = len(target)
        sample_size = min(n, self.max_samples)
        self.trees = []
        for index in range(self.n_trees):
            rows = rng.choice(n, size=sample_size, replace=True)
            tree = DecisionTreeRegressor(
                max_depth=self.max_depth,
                min_samples_split=self.min_samples_split,
                feature_fraction=self.feature_fraction,
                seed=self.seed + index + 1,
            )
            tree.fit(features[rows], target[rows])
            self.trees.append(tree)
        return self

    def predict(self, features: Sequence[Sequence[float]]) -> list[float]:
        if not self.trees:
            raise ValueError("model is not fitted")
        matrix = feature_matrix(features, self.n_features)
        per_tree = np.asarray([tree._predict(matrix) for tree in self.trees])
        return per_tree.mean(axis=0).tolist()

    def to_dict(self) -> dict[str, Any]:
        return {
            "type": "forest",
            "n_features": self.n_features,
            "trees": [tree.to_dict() for tree in self.trees],
        }

    @classmethod
    def from_dict(cls, payload: dict[str, Any]) -> "RandomForestRegressor":
        model = cls()
        model.n_features = int(payload["n_features"])
        model.trees = [DecisionTreeRegressor.from_dict(t) for t in payload["trees"]]
        return model
