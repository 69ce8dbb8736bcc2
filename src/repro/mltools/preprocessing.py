"""Data preprocessing tools: normalization and splitting.

All functions take row-major numeric data (list of sequences), or the same
table as a column-backed :class:`~repro.mcp.Columns` (how the proxy hands
over a SELECT result), convert it once with :func:`as_matrix`, compute on
that float matrix, and return plain lists so results remain JSON-able.
"""

from __future__ import annotations

import functools
import random
from itertools import chain
from typing import Any, Sequence

import numpy as np

from ..mcp import Columns
from ..mcp.columns import wire

Rows = list[Sequence[Any]]


def as_matrix(data: Rows | Columns) -> np.ndarray:
    """The rows as one float matrix. ``ValueError`` for an empty or ragged
    payload, non-sequence rows and non-numeric cells; ``TypeError`` for None.
    Column-backed data is read column by column; when that fails, the rows
    are walked as below, so the error names the first bad cell in row order."""
    if isinstance(data, Columns):
        matrix = _column_matrix(data)
        if matrix is not None:
            return matrix
        data = data.wire()
    if len(data) == 0:
        raise ValueError("empty dataset")
    try:
        widths = list(map(len, data))
    except TypeError:
        raise ValueError("rows must be sequences of numbers") from None
    width = widths[0]
    if widths.count(width) != len(widths):
        index = next(i for i, w in enumerate(widths) if w != width)
        raise ValueError(f"ragged row at index {index}")
    cells = np.fromiter(chain.from_iterable(data), float, len(data) * width)
    if np.isnan(cells).any():  # numpy reads None as nan; float() refuses it
        list(map(float, chain.from_iterable(data)))
    return cells.reshape(len(data), width)


def _column_matrix(data: Columns) -> np.ndarray | None:
    """The C-ordered float matrix of a column-backed table, each column read
    with the same ``float()`` conversions as the row path; ``None`` for no
    rows or columns, any conversion failure, or a nan (numpy reads None as
    nan), where the caller's row path decides."""
    columns, n = data.columns, len(data)
    if not n or not columns:
        return None
    matrix = np.empty((n, len(columns)))
    try:
        for index, column in enumerate(columns):
            matrix[:, index] = np.fromiter(column, float, n)
    except Exception:  # staticcheck: ignore[broad-except] — the row path raises its own error for the first bad cell
        return None
    return None if np.isnan(matrix).any() else matrix


def columns_of(matrix: np.ndarray) -> Columns:
    """``matrix`` as a column-backed value; its wire form is ``matrix.tolist()``."""
    return Columns(matrix.T.tolist(), len(matrix), list)


def feature_matrix(features: Sequence[Sequence[float]] | Columns, n_features: int) -> np.ndarray:
    """Feature rows (or one bare row) for a model fitted on ``n_features``."""
    matrix = np.asarray(wire(features), dtype=float)
    if matrix.ndim == 1:
        matrix = matrix.reshape(1, -1)
    if matrix.shape[1] != n_features:
        raise ValueError(f"expected {n_features} features, got {matrix.shape[1]}")
    return matrix


def ordered_sum(values: np.ndarray) -> np.ndarray:
    """Sum over axis 0 adding row after row, the order of a Python ``sum``
    loop; ``np.sum`` is pairwise on a vector and on a one-column matrix."""
    return np.cumsum(values, axis=0)[-1]


def _moments(matrix: np.ndarray) -> tuple[list[float], list[float]]:
    """Per-column mean and population std."""
    n = len(matrix)
    mean = ordered_sum(matrix) / n
    deviation = matrix - mean
    variance = ordered_sum(deviation * deviation) / n
    return mean.tolist(), [v ** 0.5 for v in variance.tolist()]


def _scaled(matrix: np.ndarray, skip_last: bool) -> range:
    width = matrix.shape[1]
    return range(width - 1 if skip_last and width > 1 else width)


def column_stats(data: Rows) -> list[dict[str, float]]:
    """Per-column mean/std/min/max (population std)."""
    matrix = as_matrix(data)
    columns = zip(*_moments(matrix), matrix.min(axis=0).tolist(), matrix.max(axis=0).tolist())
    return [{"mean": m, "std": s, "min": lo, "max": hi} for m, s, lo, hi in columns]


def zscore_matrix(data: Rows | Columns, skip_last: bool = True) -> np.ndarray:
    """Z-score standardize columns (optionally leaving the target column).

    Zero-variance columns pass through unchanged (centered at 0).
    """
    matrix = as_matrix(data)
    mean, std = _moments(matrix)
    for col in _scaled(matrix, skip_last):
        matrix[:, col] = (matrix[:, col] - mean[col]) / std[col] if std[col] > 0 else 0.0
    return matrix


def minmax_matrix(data: Rows | Columns, skip_last: bool = True) -> np.ndarray:
    """Scale columns into [0, 1]; constant columns map to 0."""
    matrix = as_matrix(data)
    low, high = matrix.min(axis=0).tolist(), matrix.max(axis=0).tolist()
    for col in _scaled(matrix, skip_last):
        span = high[col] - low[col]
        matrix[:, col] = (matrix[:, col] - low[col]) / span if span > 0 else 0.0
    return matrix


def zscore_normalize(data: Rows | Columns, skip_last: bool = True) -> list[list[float]]:
    """:func:`zscore_matrix` as row lists."""
    return zscore_matrix(data, skip_last).tolist()


def minmax_normalize(data: Rows | Columns, skip_last: bool = True) -> list[list[float]]:
    """:func:`minmax_matrix` as row lists."""
    return minmax_matrix(data, skip_last).tolist()


@functools.lru_cache(maxsize=16)
def split_order(n: int, seed: int) -> np.ndarray:
    """The permutation ``random.Random(seed).shuffle`` applies to any ``n``
    rows (its draws depend only on the length), memoised read-only."""
    order = list(range(n))
    random.Random(seed).shuffle(order)
    array = np.array(order, dtype=np.intp)
    array.flags.writeable = False
    return array


def split_indexes(
    n: int, test_fraction: float = 0.2, seed: int = 0
) -> tuple[np.ndarray, np.ndarray]:
    """Row indexes of the deterministic shuffled split into (train, test)."""
    if not 0.0 < test_fraction < 1.0:
        raise ValueError("test_fraction must be in (0, 1)")
    order = split_order(n, seed)
    cut = max(1, int(n * test_fraction))
    return order[cut:], order[:cut]


def train_test_split(
    data: Rows, test_fraction: float = 0.2, seed: int = 0
) -> tuple[list, list]:
    """Deterministic shuffled split of the row objects into (train, test)."""
    rows = list(data)
    train, test = split_indexes(len(rows), test_fraction, seed)
    return [rows[i] for i in train.tolist()], [rows[i] for i in test.tolist()]
