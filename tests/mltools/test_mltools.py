"""Tests for the ML tool substrate: preprocessing, models, metrics, server."""

import math
import random

import pytest

from repro.mltools import (
    DecisionTreeRegressor,
    LinearRegressionModel,
    MLToolServer,
    RandomForestRegressor,
    column_stats,
    mae,
    minmax_normalize,
    r2_score,
    rmse,
    train_test_split,
    trend_analyze,
    zscore_normalize,
)
from repro.mltools.preprocessing import split_order


def linear_data(n=200, seed=0, noise=0.1):
    rng = random.Random(seed)
    rows = []
    for _ in range(n):
        a, b = rng.uniform(-3, 3), rng.uniform(-3, 3)
        rows.append([a, b, 2.0 * a - 1.5 * b + 0.5 + rng.gauss(0, noise)])
    return rows


class TestMetrics:
    def test_rmse_zero_for_perfect(self):
        assert rmse([1, 2], [1, 2]) == 0.0

    def test_rmse_value(self):
        assert rmse([0, 0], [3, 4]) == pytest.approx(math.sqrt(12.5))

    def test_mae(self):
        assert mae([0, 0], [1, -3]) == 2.0

    def test_r2_perfect(self):
        assert r2_score([1, 2, 3], [1, 2, 3]) == 1.0

    def test_r2_mean_predictor_is_zero(self):
        truth = [1.0, 2.0, 3.0]
        assert r2_score(truth, [2.0, 2.0, 2.0]) == pytest.approx(0.0)

    def test_r2_constant_truth(self):
        assert r2_score([5, 5], [4, 6]) == 0.0

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            rmse([1], [1, 2])
        with pytest.raises(ValueError):
            r2_score([1], [1, 2])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            rmse([], [])


class TestPreprocessing:
    def test_zscore_standardizes(self):
        data = [[1.0, 10.0], [2.0, 10.0], [3.0, 10.0]]
        normalized = zscore_normalize(data)
        col = [row[0] for row in normalized]
        assert sum(col) == pytest.approx(0.0)
        # target (last) column untouched
        assert all(row[1] == 10.0 for row in normalized)

    def test_zscore_constant_column(self):
        normalized = zscore_normalize([[5.0, 1.0], [5.0, 2.0]])
        assert [row[0] for row in normalized] == [0.0, 0.0]

    def test_zscore_all_columns_when_not_skipping(self):
        normalized = zscore_normalize([[1.0, 4.0], [3.0, 8.0]], skip_last=False)
        assert sum(row[1] for row in normalized) == pytest.approx(0.0)

    def test_minmax_range(self):
        normalized = minmax_normalize([[0.0, 1.0], [5.0, 2.0], [10.0, 3.0]])
        col = [row[0] for row in normalized]
        assert min(col) == 0.0
        assert max(col) == 1.0

    def test_empty_dataset_rejected(self):
        with pytest.raises(ValueError):
            zscore_normalize([])

    def test_ragged_rows_rejected(self):
        with pytest.raises(ValueError):
            zscore_normalize([[1.0, 2.0], [1.0]])

    def test_non_numeric_rejected(self):
        with pytest.raises(ValueError):
            zscore_normalize([["a", 1.0]])

    def test_column_stats(self):
        stats = column_stats([[1.0], [3.0]])
        assert stats[0]["mean"] == 2.0
        assert stats[0]["min"] == 1.0
        assert stats[0]["max"] == 3.0

    def test_split_deterministic(self):
        data = [[float(i), float(i)] for i in range(50)]
        a = train_test_split(data, 0.2, seed=7)
        b = train_test_split(data, 0.2, seed=7)
        assert a == b

    def test_split_sizes(self):
        train, test = train_test_split([[1.0]] * 100, 0.25, seed=0)
        assert len(test) == 25
        assert len(train) == 75

    def test_split_fraction_validated(self):
        with pytest.raises(ValueError):
            train_test_split([[1.0]], 1.5)

    def test_scalar_rows_rejected(self):
        with pytest.raises(ValueError, match="sequences"):
            zscore_normalize([1.0, 2.0])

    def test_nan_cells_pass_through(self):
        assert math.isnan(column_stats([[float("nan")], ["nan"]])[0]["mean"])

    def test_split_order_is_memoised_and_read_only(self):
        order = split_order(50, 7)
        assert split_order(50, 7) is order
        assert not order.flags.writeable
        assert sorted(order.tolist()) == list(range(50))


class TestLinearRegression:
    def test_recovers_planted_coefficients(self):
        model = LinearRegressionModel().fit(linear_data(noise=0.0))
        assert model.coefficients[0] == pytest.approx(2.0, abs=1e-6)
        assert model.coefficients[1] == pytest.approx(-1.5, abs=1e-6)
        assert model.intercept == pytest.approx(0.5, abs=1e-6)

    def test_high_r2_on_noisy_data(self):
        model = LinearRegressionModel().fit(linear_data(noise=0.2))
        metrics = model.evaluate(linear_data(seed=1, noise=0.2))
        assert metrics["r2"] > 0.9

    def test_predict_shape(self):
        model = LinearRegressionModel().fit(linear_data())
        assert len(model.predict([[1.0, 2.0], [0.0, 0.0]])) == 2

    def test_predict_feature_count_checked(self):
        model = LinearRegressionModel().fit(linear_data())
        with pytest.raises(ValueError):
            model.predict([[1.0]])

    def test_needs_two_columns(self):
        with pytest.raises(ValueError):
            LinearRegressionModel().fit([[1.0], [2.0]])

    def test_round_trip_serialization(self):
        model = LinearRegressionModel().fit(linear_data())
        clone = LinearRegressionModel.from_dict(model.to_dict())
        assert clone.predict([[1.0, 1.0]]) == model.predict([[1.0, 1.0]])


class TestTreesAndForests:
    def test_tree_fits_step_function(self):
        import numpy as np

        x = np.linspace(0, 1, 300).reshape(-1, 1)
        y = (x[:, 0] > 0.5).astype(float) * 10
        tree = DecisionTreeRegressor(max_depth=3).fit(x, y)
        predictions = tree.predict([[0.1], [0.9]])
        assert predictions[0] == pytest.approx(0.0, abs=0.5)
        assert predictions[1] == pytest.approx(10.0, abs=0.5)

    def test_tree_unfitted_predict_raises(self):
        with pytest.raises(ValueError):
            DecisionTreeRegressor().predict([[1.0]])

    def test_tree_serialization_round_trip(self):
        import numpy as np

        x = np.random.default_rng(0).uniform(size=(100, 2))
        y = x[:, 0] * 3 + x[:, 1]
        tree = DecisionTreeRegressor(max_depth=4).fit(x, y)
        clone = DecisionTreeRegressor.from_dict(tree.to_dict())
        probe = [[0.2, 0.8], [0.9, 0.1]]
        assert clone.predict(probe) == tree.predict(probe)

    def test_forest_beats_mean_predictor(self):
        import numpy as np

        data = np.asarray(linear_data(400, noise=0.3))
        x, y = data[:, :-1], data[:, -1]
        forest = RandomForestRegressor(n_trees=6, seed=1).fit(x[:300], y[:300])
        predictions = forest.predict(x[300:])
        assert r2_score(list(y[300:]), predictions) > 0.5

    def test_forest_deterministic_given_seed(self):
        import numpy as np

        data = np.asarray(linear_data(200))
        x, y = data[:, :-1], data[:, -1]
        a = RandomForestRegressor(n_trees=3, seed=5).fit(x, y).predict(x[:5])
        b = RandomForestRegressor(n_trees=3, seed=5).fit(x, y).predict(x[:5])
        assert a == b

    def test_forest_serialization(self):
        import numpy as np

        data = np.asarray(linear_data(100))
        forest = RandomForestRegressor(n_trees=2, seed=0).fit(
            data[:, :-1], data[:, -1]
        )
        clone = RandomForestRegressor.from_dict(forest.to_dict())
        assert clone.predict([[0.0, 0.0]]) == forest.predict([[0.0, 0.0]])


class TestTrendAnalyze:
    def test_rising_sales(self):
        result = trend_analyze(sales=[10, 20, 30, 40], refunds=[1, 1, 1, 1])
        assert result["sales_trend"] == "rising"

    def test_falling_refunds(self):
        result = trend_analyze(sales=[10, 10, 10], refunds=[9, 5, 1])
        assert result["refunds_trend"] == "falling"

    def test_flat_series(self):
        result = trend_analyze(sales=[10, 10, 10], refunds=[0, 0, 0])
        assert result["sales_trend"] == "flat"

    def test_refund_alert(self):
        result = trend_analyze(sales=[10, 10], refunds=[5, 6])
        assert result["alert"] is True

    def test_accepts_row_tuples(self):
        result = trend_analyze(sales=[(10,), (20,)], refunds=[(1,), (2,)])
        assert result["n_days"] == 2

    def test_multi_column_rows_rejected(self):
        with pytest.raises(ValueError):
            trend_analyze(sales=[(1, 2)], refunds=[(1,)])

    def test_empty_series_rejected(self):
        with pytest.raises(ValueError):
            trend_analyze(sales=[], refunds=[1])


class TestMLToolServer:
    @pytest.fixture
    def server(self):
        return MLToolServer()

    def test_tools_exposed(self, server):
        names = {spec.name for spec in server.visible_tools()}
        assert {
            "zscore_normalize",
            "minmax_normalize",
            "train_linear",
            "train_forest",
            "predict",
            "trend_analyze",
        } <= names

    def test_train_linear_summary_and_payload(self, server):
        result = server.invoke("train_linear", data=linear_data())
        assert not result.is_error
        assert result.content["type"] == "linear"
        assert "metrics" in result.content
        assert "coefficients" in result.metadata["payload"]

    def test_train_forest_hides_trees_from_content(self, server):
        result = server.invoke("train_forest", data=linear_data(), n_trees=2)
        assert "trees" not in result.content
        assert "trees" in result.metadata["payload"]
        assert result.content["n_trees"] == 2

    def test_predict_with_trained_model(self, server):
        trained = server.invoke("train_linear", data=linear_data())
        result = server.invoke(
            "predict",
            model=trained.metadata["payload"],
            features=[[1.0, 1.0]],
        )
        assert not result.is_error
        assert len(result.content["predictions"]) == 1

    def test_predict_unknown_model_type(self, server):
        result = server.invoke("predict", model={"type": "qnn"}, features=[[1.0]])
        assert result.is_error

    def test_normalize_round_trip(self, server):
        result = server.invoke("zscore_normalize", data=[[1.0, 5.0], [3.0, 5.0]])
        assert not result.is_error
        assert len(result.content) == 2

    def test_bad_data_is_tool_error(self, server):
        result = server.invoke("train_linear", data=[[1.0]])
        assert result.is_error

    @pytest.mark.parametrize("tool", ["train_linear", "train_forest"])
    def test_one_row_names_the_row_count(self, server, tool):
        result = server.invoke(tool, data=[[1.0, 2.0]])
        assert result.is_error
        assert ">= 2 rows" in result.content and "got 1" in result.content

    @pytest.mark.parametrize("kind", ["linear", "forest", "tree"])
    @pytest.mark.parametrize("width", [1, 3])
    def test_predict_checks_feature_count(self, server, kind, width):
        if kind == "tree":
            import numpy as np

            x = np.random.default_rng(0).uniform(size=(50, 2))
            model = DecisionTreeRegressor(max_depth=3).fit(x, x[:, 0]).to_dict()
        else:
            options = {"n_trees": 2} if kind == "forest" else {}
            model = server.invoke(f"train_{kind}", data=linear_data(), **options)
            model = model.metadata["payload"]
        result = server.invoke("predict", model=model, features=[[0.5] * width])
        assert result.is_error
        assert result.content == f"expected 2 features, got {width}"
