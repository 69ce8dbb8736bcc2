"""Trend analysis tool for the chain-store scenario (paper Figures 1 & 3)."""

from __future__ import annotations

from typing import Any, Sequence

import numpy as np

from ..mcp import Columns
from ..mcp.columns import wire


def _series(values: Sequence[Any] | Columns) -> np.ndarray:
    """Flatten a producer payload (rows of 1-tuples or scalars) to floats."""
    flat: list[float] = []
    for value in wire(values):
        if isinstance(value, (list, tuple)):
            if len(value) != 1:
                raise ValueError(
                    "trend series rows must have exactly one column, got "
                    f"{len(value)}"
                )
            flat.append(float(value[0]))
        else:
            flat.append(float(value))
    if not flat:
        raise ValueError("empty trend series")
    return np.asarray(flat)


def trend_analyze(sales: Sequence[Any], refunds: Sequence[Any]) -> dict[str, Any]:
    """Detect recent sales/refund trends via least-squares slopes.

    Returns slope direction, relative change, and a refund-rate alarm —
    the structured summary the LLM reports to the user.
    """
    sales_series = _series(sales)
    refunds_series = _series(refunds)

    def slope(series: np.ndarray) -> float:
        if len(series) < 2:
            return 0.0
        x = np.arange(len(series), dtype=float)
        return float(np.polyfit(x, series, 1)[0])

    sales_slope = slope(sales_series)
    refunds_slope = slope(refunds_series)
    sales_mean = float(sales_series.mean())
    refund_rate = float(refunds_series.sum() / max(sales_series.sum(), 1e-9))

    def direction(value: float, scale: float) -> str:
        if abs(value) < 0.01 * max(abs(scale), 1e-9):
            return "flat"
        return "rising" if value > 0 else "falling"

    return {
        "sales_trend": direction(sales_slope, sales_mean),
        "sales_slope": sales_slope,
        "refunds_trend": direction(refunds_slope, sales_mean),
        "refunds_slope": refunds_slope,
        "refund_rate": refund_rate,
        "alert": refund_rate > 0.2,
        "n_days": int(len(sales_series)),
    }
