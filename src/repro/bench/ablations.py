"""Ablations beyond the paper's reported experiments.

Run and gated by ``python -m repro.bench ablations``:

* adaptive-schema threshold sweep — token cost of ``get_schema`` in full
  vs hierarchical mode as the object count crosses the threshold;
* verification on/off — overhead of object-level SQL verification;
* exemplar top-k sweep — retrieval quality of ``get_value`` as k grows;
* access-path planning — PK point lookup via index vs a forced seq scan;
* parallel vs serial proxy producers — same rows either way.
"""

from __future__ import annotations

import time
from typing import Any, Callable

from ..core import BridgeScope, BridgeScopeConfig, MinidbBinding, SqlVerifier, top_k
from ..llm.tokenizer import count_tokens
from ..minidb import Database
from .datasets import build_bird_database
from .gates import expect, failed

VERIFIED_SQL = (
    "SELECT c.school_name, AVG(s.avg_math) FROM schools c "
    "JOIN satscores s ON s.cds_code = c.cds_code "
    "WHERE c.enrollment > 500 GROUP BY c.school_name"
)
WEAR_VALUES = [
    "women's wear", "men's wear", "children's wear", "sportswear",
    "accessories", "footwear", "outerwear", "swimwear", "formal wear",
    "activewear", "sleepwear", "underwear", "workwear", "knitwear",
]


def _seconds(run: Callable[[], Any], repeats: int) -> float:
    start = time.perf_counter()
    for _ in range(repeats):
        run()
    return time.perf_counter() - start


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


def verification_overhead(db: Database, repeats: int = 200) -> float:
    """Relative cost of verifying a join + GROUP BY before running it."""
    binding = MinidbBinding.for_user(db, "admin")
    verifier = SqlVerifier(binding, BridgeScopeConfig().policy)

    def verify_and_run() -> None:
        verifier.verify(VERIFIED_SQL, expected_action="SELECT")
        binding.run_sql(VERIFIED_SQL)

    run_only = _seconds(lambda: binding.run_sql(VERIFIED_SQL), repeats)
    return _seconds(verify_and_run, repeats) / run_only - 1


def exemplar_top_k_sweep() -> list[list[Any]]:
    """``[k, stored form found, top-3]`` for the task key ``women``."""
    rows = []
    for k in (1, 3, 5, 10):
        ranked = [value for value, _ in top_k("women", WEAR_VALUES, k)]
        rows.append([k, "women's wear" in ranked, ", ".join(ranked[:3])])
    return rows


def index_scan_speedup(rows: int = 20_000, repeats: int = 50) -> dict[str, Any]:
    """PK point lookup vs the same lookup written to defeat the planner."""
    db = Database(owner="a")
    session = db.connect("a")
    session.execute("CREATE TABLE big (id INT PRIMARY KEY, grp INT, v FLOAT)")
    heap = db.heap("big")
    for i in range(rows):
        heap.insert({"id": i, "grp": i % 100, "v": float(i)})
    indexed_sql = f"SELECT v FROM big WHERE id = {rows - 1}"
    scanned_sql = f"SELECT v FROM big WHERE id + 0 = {rows - 1}"
    indexed = _seconds(lambda: session.execute(indexed_sql), repeats)
    scanned = _seconds(lambda: session.execute(scanned_sql), repeats)
    found = session.execute(indexed_sql).rows == [(float(rows - 1),)]
    return {"found": found, "speedup": scanned / indexed}


def proxied_count(db: Database, parallel: bool) -> Any:
    """``COUNT(*)`` whose SQL text is itself produced through the proxy."""
    bridge = BridgeScope(
        MinidbBinding.for_user(db, "admin"),
        BridgeScopeConfig(parallel_producers=parallel),
    )
    producer = {
        "__tool__": "select",
        "__args__": {"sql": "SELECT 'SELECT COUNT(*) FROM schools'"},
        "__transform__": "lambda rows: rows[0][0]",
    }
    result = bridge.invoke("proxy", target_tool="select", tool_args={"sql": producer})
    assert not result.is_error, result.content
    return result.metadata.get("rows")


def experiment_ablations(scale: float = 1.0) -> dict[str, Any]:
    db = build_bird_database(scale=scale)
    return {
        "schema_threshold": schema_threshold_sweep(db),
        "verification_overhead": verification_overhead(db),
        "exemplar_top_k": exemplar_top_k_sweep(),
        "index_scan": index_scan_speedup(),
        "producers": {
            "serial": proxied_count(db, parallel=False),
            "parallel": proxied_count(db, parallel=True),
        },
    }


def check_ablations(result: dict[str, Any], smoke: bool) -> list[str]:
    sweep = result["schema_threshold"]
    index, producers = result["index_scan"], result["producers"]
    return failed(
        [
            expect("hierarchical get_schema tokens", sweep[0][2], "<",
                   sweep[-1][2] / 2),
            # verification must cost less than the execution it guards
            expect("verification overhead", result["verification_overhead"], "<", 1.0),
            (result["exemplar_top_k"][0][1] is True,
             "top-1 exemplar for 'women' misses the stored form"),
            (index["found"], "index point lookup returned the wrong row"),
            expect("index point-lookup speedup", index["speedup"], ">", 5),
            (producers["serial"] == producers["parallel"],
             "parallel and serial proxy producers returned different rows"),
        ]
    )
