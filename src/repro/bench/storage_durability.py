"""Storage-durability experiment: warm reopen vs cold rebuild.

Run and gated by ``python -m repro.bench storage``. Builds a
durable database directory holding a ``products`` table with ``rows``
rows of distinct text, checkpoints it, and serves one ``get_value`` call
so the column's value catalog is persisted next to the snapshot. Then it
measures the two restart stories the tentpole distinguishes:

* **warm reopen** — ``Database.open(path)``: snapshot load + WAL replay
  restore heaps, indexes, and exact ``(uid, version)`` fingerprints, and
  the first ``get_value`` is served from the persisted catalog with zero
  rebuild;
* **cold rebuild** — the seed's only option after a restart: re-ingest
  the source data through the engine (batched multi-row INSERTs — the
  efficient replay strategy) and rebuild the value catalog from scratch
  (feature extraction over every distinct value) before the first
  ``get_value`` can answer.

Both paths must produce byte-identical tool output; the experiment checks
that before timing anything, and asserts the warm path really did skip
the rebuild (``persisted_hits == 1``, ``misses == 0``).
"""

from __future__ import annotations

import os
import shutil
import tempfile
import time
from typing import Any

from repro.core import BridgeScope, BridgeScopeConfig, MinidbBinding
from repro.minidb import Database

from .gates import expect, failed
from .retrieval_scale import QUERY_KEYS, get_value, product_name

#: rows per INSERT statement in the cold-rebuild replay
BATCH = 500

#: warm-reopen speedup floors (full size, smoke). The ratio's *baseline* is
#: the SQL replay, so a faster SQL path lowers it: at 100k rows the cold
#: rebuild went 15.2 -> 16.2 -> 11.9 s at PRs 11 -> 14 -> 15 (PR 15 made
#: parsing the 500-row INSERTs cheaper) while the warm reopen held at 1.45 ->
#: 1.51 -> 1.55 s, so the ratio fell from 10.5x to 7.6x and under the 10x
#: floor this gate carried until PR 17. 5x still fails a reopen that
#: rebuilds (~1x) without punishing the engine for replaying faster. At
#: smoke sizes fixed per-open costs dominate.
SPEEDUP_FLOORS = (5.0, 2.0)


def _bulk_load(db: Database, rows: int) -> None:
    """Direct heap loading (the documented non-WAL bulk path) for setup."""
    session = db.connect("admin")
    session.execute("CREATE TABLE products (id INT PRIMARY KEY, name TEXT)")
    heap = db.heap("products")
    for i in range(rows):
        heap.insert({"id": i, "name": product_name(i)})


def _rebuild_via_sql(db: Database, rows: int) -> None:
    """Cold-start reconstruction: replay the ingest through the engine."""
    session = db.connect("admin")
    session.execute("CREATE TABLE products (id INT PRIMARY KEY, name TEXT)")
    for start in range(0, rows, BATCH):
        values = ", ".join(
            f"({i}, '{product_name(i)}')"
            for i in range(start, min(start + BATCH, rows))
        )
        session.execute(f"INSERT INTO products VALUES {values}")


def _bridge(db: Database) -> BridgeScope:
    config = BridgeScopeConfig(exemplar_scan_limit=10_000_000)
    return BridgeScope(MinidbBinding.for_user(db, "admin"), config)


def experiment_storage_durability(
    rows: int = 100_000, warm_trials: int = 3
) -> dict[str, Any]:
    """Measure warm reopen (snapshot + persisted catalogs) vs cold rebuild.

    The warm path is repeated ``warm_trials`` times and the minimum kept —
    a sub-2-second measurement on a shared machine is noise-dominated, and
    the minimum is the standard estimator for the true cost.
    """
    workdir = tempfile.mkdtemp(prefix="bench_storage_")
    path = f"{workdir}/db"
    try:
        # ---- build the durable directory once (not part of either timing)
        db = Database.open(path)
        _bulk_load(db, rows)
        checkpoint_start = time.perf_counter()
        db.checkpoint()  # direct heap loads bypass the WAL; snapshot them
        checkpoint_seconds = time.perf_counter() - checkpoint_start
        snapshot_bytes = os.path.getsize(db.engine.snapshot_path)
        reference = get_value(_bridge(db), QUERY_KEYS[0])  # builds + persists
        db.close()

        # ---- warm reopen: recover from disk, serve from persisted catalog
        warm_trial_seconds = []
        warm_output = None
        warm_stats: dict[str, Any] = {}
        engine_stats: dict[str, Any] = {}
        zero_rebuild = True
        for _ in range(max(warm_trials, 1)):
            warm_start = time.perf_counter()
            warm_db = Database.open(path)
            warm_output = get_value(_bridge(warm_db), QUERY_KEYS[0])
            warm_trial_seconds.append(time.perf_counter() - warm_start)
            warm_stats = dict(warm_db.retrieval_cache.stats)
            zero_rebuild = zero_rebuild and (
                warm_stats["persisted_hits"] == 1 and warm_stats["misses"] == 0
            )
            engine_stats = dict(warm_db.engine.stats)
            warm_db.close()
        warm_seconds = min(warm_trial_seconds)

        # ---- cold rebuild: fresh process state, no persistence to lean on
        cold_start = time.perf_counter()
        cold_db = Database(owner="admin")
        _rebuild_via_sql(cold_db, rows)
        cold_output = get_value(_bridge(cold_db), QUERY_KEYS[0])
        cold_seconds = time.perf_counter() - cold_start

        return {
            "rows": rows,
            "checkpoint_s": checkpoint_seconds,
            "snapshot_bytes": snapshot_bytes,
            "warm_reopen_s": warm_seconds,
            "warm_trials_s": warm_trial_seconds,
            "cold_rebuild_s": cold_seconds,
            "speedup": (
                cold_seconds / warm_seconds if warm_seconds > 0 else float("inf")
            ),
            "zero_rebuild": zero_rebuild,
            "equivalence_ok": warm_output == reference == cold_output,
            "warm_cache_stats": warm_stats,
            "snapshot_loaded": engine_stats["snapshot_loaded"],
            "wal_replayed": engine_stats["wal_replayed"],
        }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def check_storage_durability(result: dict[str, Any], smoke: bool) -> list[str]:
    """The gate: same output, nothing rebuilt, and reopening pays off."""
    return failed(
        [
            (result["equivalence_ok"],
             "warm-reopen and cold-rebuild tool outputs differ"),
            (result["zero_rebuild"],
             "warm reopen rebuilt the catalog instead of serving the persisted one"),
            expect("speedup", result["speedup"], ">=", SPEEDUP_FLOORS[smoke]),
        ]
    )
