"""MCP tool server exposing the analytical/ML tools.

These are the "domain-specific MCP servers" of the paper's Section 2.5 —
the proxy routes database query results into them without LLM involvement.
All tool payloads are plain Python lists/dicts so they survive both proxy
routing and (for the baselines) inline LLM routing. ``array`` arguments
may arrive column-backed from the proxy, and the normalisers answer with
:class:`~repro.mcp.Columns`, which leave the tool as row lists to every
caller but the proxy.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from ..mcp import ParamSpec, ToolResult, ToolServer, tool
from .forest import DecisionTreeRegressor, RandomForestRegressor
from .linear import LinearRegressionModel
from .metrics import r2_score, rmse
from .preprocessing import as_matrix, columns_of, minmax_matrix, split_indexes, zscore_matrix
from .trend import trend_analyze


def _holdout(data: list, test_fraction: float) -> tuple[np.ndarray, np.ndarray]:
    """(train, test) matrices of rows of [features..., target]."""
    matrix = as_matrix(data)
    if len(matrix) < 2:
        raise ValueError(f"need >= 2 rows to hold out a test set, got {len(matrix)}")
    if matrix.shape[1] < 2:
        raise ValueError("data must be rows of [features..., target]")
    train, test = split_indexes(len(matrix), test_fraction, seed=0)
    return matrix[train], matrix[test]


def _model_result(payload: dict[str, Any]) -> ToolResult:
    """Summary for the LLM's eyes; full model on the data channel.

    The tree structure / coefficients ride in ``metadata["payload"]`` —
    consumed tool-to-tool (proxy routing, or copied verbatim into the next
    call's arguments in the manual regime) — while the rendered content is
    a compact record with the metrics the LLM actually reasons about.
    """
    summary = {
        key: value
        for key, value in payload.items()
        if key not in ("trees", "root")
    }
    if "trees" in payload:
        summary["n_trees"] = len(payload["trees"])
    return ToolResult(content=summary, metadata={"payload": payload})


def _model_from_dict(payload: dict[str, Any]):
    kind = payload.get("type")
    if kind == "linear":
        return LinearRegressionModel.from_dict(payload)
    if kind == "tree":
        return DecisionTreeRegressor.from_dict(payload)
    if kind == "forest":
        return RandomForestRegressor.from_dict(payload)
    raise ValueError(f"unknown model type {kind!r}")


class MLToolServer(ToolServer):
    name = "mltools"

    @tool(
        description=(
            "Z-score normalize a numeric dataset (rows of numbers). The last "
            "column (target) is left unscaled. Returns the normalized rows."
        ),
        params=[ParamSpec("data", "array", "row-major numeric data")],
    )
    def zscore_normalize(self, data: list) -> ToolResult:
        return ToolResult.ok(columns_of(zscore_matrix(data)))

    @tool(
        description=(
            "Min-max scale a numeric dataset into [0, 1]; the last column "
            "(target) is left unscaled. Returns the scaled rows."
        ),
        params=[ParamSpec("data", "array", "row-major numeric data")],
    )
    def minmax_normalize(self, data: list) -> ToolResult:
        return ToolResult.ok(columns_of(minmax_matrix(data)))

    @tool(
        description=(
            "Train a linear regression on rows of [features..., target]. "
            "Returns the fitted model (dict) with holdout rmse/r2 metrics."
        ),
        params=[
            ParamSpec("data", "array", "row-major numeric training data"),
            ParamSpec("test_fraction", "number", "holdout fraction",
                      required=False, default=0.2),
        ],
    )
    def train_linear(self, data: list, test_fraction: float = 0.2) -> ToolResult:
        train, test = _holdout(data, test_fraction)
        model = LinearRegressionModel().fit(train)
        metrics = model.evaluate(test)
        payload = model.to_dict()
        payload["metrics"] = metrics
        return _model_result(payload)

    @tool(
        description=(
            "Train a random forest regressor on rows of [features..., "
            "target]. Returns the fitted model (dict) with holdout metrics."
        ),
        params=[
            ParamSpec("data", "array", "row-major numeric training data"),
            ParamSpec("n_trees", "integer", "forest size", required=False, default=8),
            ParamSpec("test_fraction", "number", "holdout fraction",
                      required=False, default=0.2),
        ],
    )
    def train_forest(
        self, data: list, n_trees: int = 8, test_fraction: float = 0.2
    ) -> ToolResult:
        train, test = _holdout(data, test_fraction)
        model = RandomForestRegressor(n_trees=n_trees, seed=0).fit(train[:, :-1], train[:, -1])
        predictions = model.predict(test[:, :-1])
        payload = model.to_dict()
        payload["metrics"] = {
            "rmse": rmse(test[:, -1], predictions),
            "r2": r2_score(test[:, -1], predictions),
        }
        return _model_result(payload)

    @tool(
        description=(
            "Predict with a previously trained model. model is the dict "
            "returned by a train_* tool; features is a list of feature rows. "
            "Returns {'predictions': [...], 'model_metrics': ...}."
        ),
        params=[
            ParamSpec("model", "object", "fitted model dict"),
            ParamSpec("features", "array", "feature rows to predict for"),
        ],
    )
    def predict(self, model: dict, features: list) -> ToolResult:
        fitted = _model_from_dict(model)
        predictions = fitted.predict(features)
        return ToolResult.ok(
            {
                "predictions": predictions,
                "model_metrics": model.get("metrics", {}),
            }
        )

    @tool(
        description=(
            "Analyze sales and refund trends. sales and refunds are lists of "
            "daily totals (single-column rows). Returns trend directions, "
            "slopes, and a refund-rate alert."
        ),
        params=[
            ParamSpec("sales", "array", "daily sales series"),
            ParamSpec("refunds", "array", "daily refunds series"),
        ],
    )
    def trend_analyze(self, sales: list, refunds: list) -> ToolResult:
        return ToolResult.ok(trend_analyze(sales, refunds))
