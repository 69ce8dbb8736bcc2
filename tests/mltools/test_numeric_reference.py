"""Numeric oracle for ``repro.mltools``: the row-by-row reference it replaced.

The reference below is the pure-Python code that ``preprocessing``,
``metrics``, tree/forest ``predict`` and the ``train_linear`` /
``train_forest`` tool bodies ran before they computed on one float matrix
(the heap-model pattern: the old implementation kept as the spec). Its
sums are explicit left-to-right folds — the order of CPython 3.11's
``sum`` over floats — so the spec does not move on 3.12+, where ``sum`` is
compensated.

Seeded draws cover widths 1-6, 1 to 5,000 rows, constant columns, signed
zeros, magnitudes 1e-8 to 1e8, a large mean over a small spread, and int,
bool and numeric-string cells in list or tuple rows.

Exactly equal (``==``, so ``-0.0 == 0.0``): the split (the same row
objects, in the same order), means, min, max, min-max scaling, rmse, mae,
linear coefficients and intercept, tree and forest predictions, and the
error class and message for empty, ragged, non-numeric and ``None``
input. Within 1e-12 relative: what derives from a variance (std,
z-scores, r2). The reference squares with ``x ** 2``, which calls libm
``pow`` (not correctly rounded); the matrix code squares with ``d * d``.
"""

from __future__ import annotations

import functools
import math
import random

import numpy as np
import pytest

from repro.mcp import Columns
from repro.mltools import (
    DecisionTreeRegressor,
    MLToolServer,
    RandomForestRegressor,
    column_stats,
    mae,
    minmax_normalize,
    r2_score,
    rmse,
    train_test_split,
    zscore_normalize,
)

REL = 1e-12


# --------------------------------------------------------------- reference


def _fold(values):
    """``sum`` as CPython 3.11 computes it over floats: from ``0``, left to
    right, uncompensated."""
    total = 0
    for value in values:
        total = total + value
    return total


def ref_validate(data):
    if not data:
        raise ValueError("empty dataset")
    width = len(data[0])
    rows = []
    for index, row in enumerate(data):
        if len(row) != width:
            raise ValueError(f"ragged row at index {index}")
        rows.append([float(v) for v in row])
    return rows


def ref_column_stats(data):
    rows = ref_validate(data)
    n, width = len(rows), len(rows[0])
    stats = []
    for col in range(width):
        values = [row[col] for row in rows]
        mean = _fold(values) / n
        variance = _fold((v - mean) ** 2 for v in values) / n
        stats.append(
            {"mean": mean, "std": variance ** 0.5, "min": min(values), "max": max(values)}
        )
    return stats


def ref_zscore(data, skip_last=True):
    rows = ref_validate(data)
    stats = ref_column_stats(rows)
    width = len(rows[0])
    stop = width - 1 if skip_last and width > 1 else width
    result = []
    for row in rows:
        out = list(row)
        for col in range(stop):
            std, mean = stats[col]["std"], stats[col]["mean"]
            out[col] = (row[col] - mean) / std if std > 0 else 0.0
        result.append(out)
    return result


def ref_minmax(data, skip_last=True):
    rows = ref_validate(data)
    stats = ref_column_stats(rows)
    width = len(rows[0])
    stop = width - 1 if skip_last and width > 1 else width
    result = []
    for row in rows:
        out = list(row)
        for col in range(stop):
            low, high = stats[col]["min"], stats[col]["max"]
            span = high - low
            out[col] = (row[col] - low) / span if span > 0 else 0.0
        result.append(out)
    return result


def ref_train_test_split(data, test_fraction=0.2, seed=0):
    if not 0.0 < test_fraction < 1.0:
        raise ValueError("test_fraction must be in (0, 1)")
    rows = list(data)
    random.Random(seed).shuffle(rows)
    cut = max(1, int(len(rows) * test_fraction))
    return rows[cut:], rows[:cut]


def ref_rmse(y_true, y_pred):
    total = 0.0
    for t, p in zip(y_true, y_pred):
        diff = float(t) - float(p)
        total += diff * diff
    return math.sqrt(total / len(y_true))


def ref_mae(y_true, y_pred):
    return _fold(abs(float(t) - float(p)) for t, p in zip(y_true, y_pred)) / len(y_true)


def ref_r2(y_true, y_pred):
    mean = _fold(float(t) for t in y_true) / len(y_true)
    ss_tot = _fold((float(t) - mean) ** 2 for t in y_true)
    ss_res = _fold((float(t) - float(p)) ** 2 for t, p in zip(y_true, y_pred))
    if ss_tot == 0.0:
        return 0.0
    return 1.0 - ss_res / ss_tot


def ref_train_linear(data, test_fraction=0.2):
    """The ``train_linear`` tool body: split row objects, ``lstsq`` on the
    training rows, evaluate on the held-out rows."""
    train, test = ref_train_test_split(data, test_fraction, seed=0)
    matrix = np.asarray(train, dtype=float)
    design = np.hstack([matrix[:, :-1], np.ones((matrix.shape[0], 1))])
    solution, *_ = np.linalg.lstsq(design, matrix[:, -1], rcond=None)
    coefficients = [float(c) for c in solution[:-1]]
    intercept = float(solution[-1])
    held_out = np.asarray(test, dtype=float)
    values = held_out[:, :-1] @ np.asarray(coefficients) + intercept
    predictions = [float(v) for v in values]
    truth = [float(v) for v in held_out[:, -1]]
    return {
        "coefficients": coefficients,
        "intercept": intercept,
        "metrics": {"rmse": ref_rmse(truth, predictions), "r2": ref_r2(truth, predictions)},
    }


def ref_tree_predict(root, rows):
    """One walk per row over a tree's ``to_dict`` form."""
    out = []
    for row in np.asarray(rows, dtype=float):
        node = root
        while "feature" in node:
            node = node["left"] if row[node["feature"]] <= node["threshold"] else node["right"]
        out.append(float(node["value"]))
    return out


def ref_forest_predict(payload, rows):
    per_tree = np.asarray([ref_tree_predict(tree["root"], rows) for tree in payload["trees"]])
    return [float(v) for v in per_tree.mean(axis=0)]


def ref_train_forest(data, n_trees, test_fraction=0.2):
    """The ``train_forest`` tool body; fitting itself is not under test."""
    train, test = ref_train_test_split(data, test_fraction, seed=0)
    matrix = np.asarray(train, dtype=float)
    model = RandomForestRegressor(n_trees=n_trees, seed=0).fit(matrix[:, :-1], matrix[:, -1])
    payload = model.to_dict()
    held_out = np.asarray(test, dtype=float)
    predictions = ref_forest_predict(payload, held_out[:, :-1])
    truth = [float(v) for v in held_out[:, -1]]
    payload["metrics"] = {"rmse": ref_rmse(truth, predictions), "r2": ref_r2(truth, predictions)}
    return payload


# ------------------------------------------------------------------- draws

_SIZES = (1, 2, 3, 7, 8, 9, 16, 17, 128, 129, 1000, 5000)
_KINDS = ("float", "float", "offset", "int", "bool", "string", "zero", "constant", "mixed")


def _column(rng: random.Random, n: int) -> list:
    kind = rng.choice(_KINDS)
    scale = 10.0 ** rng.randint(-8, 8)
    if kind == "constant":
        value = rng.choice([0.0, -0.0, 1.0, rng.uniform(-1, 1) * scale, 7])
        return [value] * n

    def cell(kind: str):
        if kind == "float":
            return rng.uniform(-1, 1) * scale
        if kind == "offset":  # large mean, small spread: cancellation in the variance
            return 1e8 + rng.uniform(-1, 1) * 1e-3
        if kind == "int":
            return rng.randint(-10**8, 10**8)
        if kind == "bool":
            return rng.random() < 0.5
        if kind == "string":
            return repr(rng.uniform(-1, 1) * scale)
        if kind == "zero":
            return rng.choice([0.0, -0.0, 0.0, -0.0, rng.uniform(-1, 1) * scale])
        return cell(rng.choice(("float", "int", "bool", "string", "zero")))

    return [cell(kind) for _ in range(n)]


def draw(seed: int, widths=range(1, 7), sizes=_SIZES) -> list:
    rng = random.Random(seed)
    width = rng.choice(list(widths))
    n = rng.choice(sizes) if rng.random() < 0.6 else int(10 ** rng.uniform(0, math.log10(5000)))
    n = max(n, min(sizes))
    columns = [_column(rng, n) for _ in range(width)]
    container = rng.choice((list, tuple))
    return [container(cells) for cells in zip(*columns)]


@functools.cache
def draws() -> list:
    return [draw(seed) for seed in range(48)]


def _rel_close(found: float, expected: float) -> bool:
    return math.isclose(found, expected, rel_tol=REL, abs_tol=0.0)


def _rows_close(found, expected, exact_from: int) -> bool:
    """Columns before ``exact_from`` within ``REL``; the rest exactly."""
    return len(found) == len(expected) and all(
        len(f) == len(e)
        and all(_rel_close(a, b) for a, b in zip(f[:exact_from], e[:exact_from]))
        and f[exact_from:] == e[exact_from:]
        for f, e in zip(found, expected)
    )


# ------------------------------------------------------------------ checks


def test_draws_cover_the_contract():
    shapes = [(len(d), len(d[0])) for d in draws()]
    assert {w for _, w in shapes} == set(range(1, 7))
    assert min(n for n, _ in shapes) == 1 and max(n for n, _ in shapes) == 5000
    cells = [v for d in draws() for row in d for v in row]
    kinds = {type(v) for v in cells}
    assert {float, int, bool, str} <= kinds
    assert any(isinstance(v, float) and v == 0.0 and math.copysign(1, v) < 0 for v in cells)


def test_column_stats_matches_reference():
    for index, data in enumerate(draws()):
        found, expected = column_stats(data), ref_column_stats(data)
        assert len(found) == len(expected), index
        for f, e in zip(found, expected):
            assert (f["mean"], f["min"], f["max"]) == (e["mean"], e["min"], e["max"]), index
            assert _rel_close(f["std"], e["std"]), (index, f["std"], e["std"])


@pytest.mark.parametrize("skip_last", [True, False])
def test_zscore_matches_reference(skip_last):
    for index, data in enumerate(draws()):
        width = len(data[0])
        stop = width - 1 if skip_last and width > 1 else width
        found, expected = zscore_normalize(data, skip_last), ref_zscore(data, skip_last)
        assert _rows_close(found, expected, stop), index


@pytest.mark.parametrize("skip_last", [True, False])
def test_minmax_matches_reference(skip_last):
    for index, data in enumerate(draws()):
        assert minmax_normalize(data, skip_last) == ref_minmax(data, skip_last), index


def test_split_is_the_reference_shuffle():
    rng = random.Random(11)
    for index, data in enumerate(draws()):
        fraction = rng.choice([0.2, 0.25, 0.5, 0.01, 0.99])
        seed = rng.choice([0, 1, 7, 2**31])
        train, test = train_test_split(data, fraction, seed)
        ref_train, ref_test = ref_train_test_split(data, fraction, seed)
        assert len(train) == len(ref_train) and len(test) == len(ref_test), index
        assert all(a is b for a, b in zip(train + test, ref_train + ref_test)), index


def test_metrics_match_reference():
    for index, data in enumerate(draws()):
        if len(data[0]) < 2:
            continue
        truth = [row[-1] for row in data]
        predicted = [row[0] for row in data]
        assert rmse(truth, predicted) == ref_rmse(truth, predicted), index
        assert mae(truth, predicted) == ref_mae(truth, predicted), index
        # r2 = 1 - ss_res / ss_tot: compare the ratio, which carries the error
        found, expected = 1.0 - r2_score(truth, predicted), 1.0 - ref_r2(truth, predicted)
        assert _rel_close(found, expected), (index, found, expected)


def test_train_linear_matches_reference():
    server = MLToolServer()
    for seed in range(40):
        data = draw(seed, widths=range(2, 7), sizes=tuple(n for n in _SIZES if n >= 2))
        fraction = random.Random(seed).choice([0.2, 0.3, 0.5])
        result = server.invoke("train_linear", data=data, test_fraction=fraction)
        assert not result.is_error, (seed, result.content)
        found, expected = result.metadata["payload"], ref_train_linear(data, fraction)
        assert found["coefficients"] == expected["coefficients"], seed
        assert found["intercept"] == expected["intercept"], seed
        assert found["metrics"]["rmse"] == expected["metrics"]["rmse"], seed
        assert _rel_close(1.0 - found["metrics"]["r2"], 1.0 - expected["metrics"]["r2"]), seed


def test_train_forest_and_predict_match_reference():
    server = MLToolServer()
    for seed in range(8):
        data = draw(seed, widths=range(2, 5), sizes=(2, 3, 9, 40, 300))
        result = server.invoke("train_forest", data=data, n_trees=2)
        assert not result.is_error, (seed, result.content)
        found, expected = result.metadata["payload"], ref_train_forest(data, 2)
        assert found["trees"] == expected["trees"], seed
        assert found["metrics"]["rmse"] == expected["metrics"]["rmse"], seed
        assert _rel_close(1.0 - found["metrics"]["r2"], 1.0 - expected["metrics"]["r2"]), seed

        features = [row[:-1] for row in draw(seed + 1000, widths=[len(data[0])])]
        predicted = server.invoke("predict", model=found, features=features)
        assert predicted.content["predictions"] == ref_forest_predict(found, features), seed
        tree = DecisionTreeRegressor.from_dict(found["trees"][0])
        assert tree.predict(features) == ref_tree_predict(found["trees"][0]["root"], features)


def _defective(rng: random.Random, defect: str) -> list:
    """A numeric dataset with exactly one defect."""
    if defect == "empty":
        return []
    n, width = rng.randint(2, 40), rng.randint(1, 5)
    data = [[rng.uniform(-5, 5) for _ in range(width)] for _ in range(n)]
    index = rng.randrange(1, n)
    if defect == "ragged":  # row 0 sets the width, so the defect is at 1 or later
        row = data[index]
        data[index] = row[:-1] if width > 1 and rng.random() < 0.5 else row + [1.0]
    else:
        bad = {"non-numeric": rng.choice(["a", "", "1,5", "x1", "--1"]), "none": None}[defect]
        data[index][rng.randrange(width)] = bad
    return data


def _outcome(fn, data):
    try:
        fn(data)
    except Exception as error:  # noqa: BLE001 - the class is what is compared
        return type(error), str(error)
    return None


@pytest.mark.parametrize("defect", ["empty", "ragged", "non-numeric", "none"])
def test_errors_match_reference(defect):
    rng = random.Random(defect)
    pairs = [
        (column_stats, ref_column_stats),
        (zscore_normalize, ref_zscore),
        (minmax_normalize, ref_minmax),
    ]
    for _ in range(25):
        data = _defective(rng, defect)
        for fn, ref in pairs:
            expected = _outcome(ref, data)
            assert expected is not None
            assert _outcome(fn, data) == expected, (fn.__name__, data)


# ------------------------------------------------- column-backed input
#
# The proxy hands a SELECT result to the tools as its column lists. Every
# check above holds for that form too: the same draws and defects, as
# ``Columns``, must give the reference's values and errors.


def as_columns(data: list) -> Columns:
    return Columns([list(column) for column in zip(*data)], len(data))


def test_column_input_matches_reference():
    for index, data in enumerate(draws()):
        columns = as_columns(data)
        width = len(data[0])
        for skip_last in (True, False):
            stop = width - 1 if skip_last and width > 1 else width
            found = zscore_normalize(columns, skip_last)
            assert _rows_close(found, ref_zscore(data, skip_last), stop), index
            assert repr(found) == repr(zscore_normalize(data, skip_last)), index
            assert minmax_normalize(columns, skip_last) == ref_minmax(data, skip_last), index
        assert repr(column_stats(columns)) == repr(column_stats(data)), index


def test_column_input_trains_like_the_reference():
    server = MLToolServer()
    for seed in range(40):
        data = draw(seed, widths=range(2, 7), sizes=tuple(n for n in _SIZES if n >= 2))
        fraction = random.Random(seed).choice([0.2, 0.3, 0.5])
        result = server.invoke("train_linear", data=as_columns(data), test_fraction=fraction)
        assert not result.is_error, (seed, result.content)
        found, expected = result.metadata["payload"], ref_train_linear(data, fraction)
        assert found["coefficients"] == expected["coefficients"], seed
        assert found["intercept"] == expected["intercept"], seed
    for seed in range(4):
        data = draw(seed, widths=range(2, 5), sizes=(2, 3, 9, 40, 300))
        result = server.invoke("train_forest", data=as_columns(data), n_trees=2)
        found = result.metadata["payload"]
        assert found["trees"] == ref_train_forest(data, 2)["trees"], seed
        features = [row[:-1] for row in draw(seed + 1000, widths=[len(data[0])])]
        predicted = server.invoke("predict", model=found, features=as_columns(features))
        assert predicted.content["predictions"] == ref_forest_predict(found, features), seed


@pytest.mark.parametrize("defect", ["empty", "non-numeric", "none"])
def test_column_input_errors_match_reference(defect):
    rng = random.Random(defect)
    pairs = [
        (column_stats, ref_column_stats),
        (zscore_normalize, ref_zscore),
        (minmax_normalize, ref_minmax),
    ]
    for _ in range(25):
        data = _defective(rng, defect)
        for fn, ref in pairs:
            expected = _outcome(ref, data)
            assert _outcome(fn, as_columns(data)) == expected, (fn.__name__, data)
