"""Regression metrics used by the NL2ML tools."""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .preprocessing import ordered_sum


def _arrays(name: str, y_true: Sequence[float], y_pred: Sequence[float]):
    if len(y_true) != len(y_pred):
        raise ValueError(f"{name}: length mismatch")
    if len(y_true) == 0:
        raise ValueError(f"{name}: empty input")
    return np.asarray(y_true, dtype=float), np.asarray(y_pred, dtype=float)


def rmse(y_true: Sequence[float], y_pred: Sequence[float]) -> float:
    """Root mean squared error."""
    truth, pred = _arrays("rmse", y_true, y_pred)
    diff = truth - pred
    return math.sqrt(ordered_sum(diff * diff) / len(diff))


def mae(y_true: Sequence[float], y_pred: Sequence[float]) -> float:
    """Mean absolute error."""
    truth, pred = _arrays("mae", y_true, y_pred)
    return float(ordered_sum(np.abs(truth - pred)) / len(truth))


def r2_score(y_true: Sequence[float], y_pred: Sequence[float]) -> float:
    """Coefficient of determination; 0.0 for a constant true vector."""
    truth, pred = _arrays("r2", y_true, y_pred)
    centred = truth - ordered_sum(truth) / len(truth)
    residual = truth - pred
    ss_tot = ordered_sum(centred * centred)
    if ss_tot == 0.0:
        return 0.0
    return float(1.0 - ordered_sum(residual * residual) / ss_tot)
