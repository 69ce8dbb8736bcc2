"""Ablations beyond the paper's reported experiments.

Run and gated by ``python -m repro.bench ablations``:

* adaptive-schema threshold sweep — token cost of ``get_schema`` in full
  vs hierarchical mode as the object count crosses the threshold;
* exemplar top-k sweep — retrieval quality of ``get_value`` as k grows.

Both are deterministic: a run prints the same text every time.
"""

from __future__ import annotations

from typing import Any

from ..core import BridgeScope, BridgeScopeConfig, MinidbBinding, top_k
from ..llm.tokenizer import count_tokens
from ..minidb import Database
from .datasets import build_bird_database
from .gates import expect, failed

WEAR_VALUES = [
    "women's wear", "men's wear", "children's wear", "sportswear",
    "accessories", "footwear", "outerwear", "swimwear", "formal wear",
    "activewear", "sleepwear", "underwear", "workwear", "knitwear",
]


def schema_threshold_sweep(db: Database) -> list[list[Any]]:
    """``[threshold, schema mode, get_schema tokens]`` per threshold."""
    rows = []
    for threshold in (0, 5, 10, 20, 50):
        bridge = BridgeScope(
            MinidbBinding.for_user(db, "admin"),
            BridgeScopeConfig(schema_detail_threshold=threshold),
        )
        tokens = count_tokens(str(bridge.invoke("get_schema").content))
        rows.append([threshold, bridge.context.schema_mode(), tokens])
    return rows


def exemplar_top_k_sweep() -> list[list[Any]]:
    """``[k, stored form found, top-3]`` for the task key ``women``."""
    rows = []
    for k in (1, 3, 5, 10):
        ranked = [value for value, _ in top_k("women", WEAR_VALUES, k)]
        rows.append([k, "women's wear" in ranked, ", ".join(ranked[:3])])
    return rows


def experiment_ablations(scale: float = 1.0) -> dict[str, Any]:
    db = build_bird_database(scale=scale)
    return {
        "schema_threshold": schema_threshold_sweep(db),
        "exemplar_top_k": exemplar_top_k_sweep(),
    }


def check_ablations(result: dict[str, Any]) -> list[str]:
    sweep = result["schema_threshold"]
    return failed(
        [
            expect("hierarchical get_schema tokens", sweep[0][2], "<",
                   sweep[-1][2] / 2),
            (result["exemplar_top_k"][0][1] is True,
             "top-1 exemplar for 'women' misses the stored form"),
        ]
    )
