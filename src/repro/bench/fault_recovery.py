"""Fault-recovery benchmark: seam overhead, torture sweep, retry litmus.

Three measurements back the PR-7 robustness claims with numbers:

* **Seam overhead.** Every durable-engine file operation now routes
  through the :class:`repro.faults.Filesystem` seam. The passthrough
  seam hands back raw builtin file objects, so the only added cost is
  one method dispatch on open/fsync/rename — measured here against
  direct builtin calls (must stay within a few percent), alongside the
  scripted :class:`~repro.faults.FaultyFilesystem` wrapper (allowed to
  cost more; it never runs in production).
* **Torture sweep.** A bounded version of the exhaustive
  ``tests/minidb/test_fault_injection.py`` sweep: a sequential-insert
  workload is crashed (and EIO-errored) at sampled filesystem-operation
  indices; every recovery must surface a *prefix* of the committed
  sequence (each autocommit is one unit, so prefix-ness is the whole
  correctness oracle) — anything else is a violation.
* **Retry litmus.** The PR-4 zero-lost-updates writer-contention
  workload, re-run through :func:`repro.service.run_with_retries` with
  the default jittered backoff vs a zero-backoff immediate-re-issue
  policy. Both must lose zero updates; throughput must stay comparable
  (backoff trades a little latency for decorrelated retries).
"""

from __future__ import annotations

import gc
import os
import shutil
import tempfile
from typing import Any, Callable

from ..faults import (
    OS_FILESYSTEM,
    FaultPlan,
    FaultyFilesystem,
    Filesystem,
    SimulatedCrash,
)
from ..minidb import Database, MiniDBError, StorageFailedError
from ..service import RetryPolicy
from .concurrency import run_writer_contention
from .gates import best_cpu_seconds, expect, failed, remeasure_until_under

#: ceiling on the production seam's cost over raw builtin calls
PASSTHROUGH_OVERHEAD_PCT = 5.0
#: the litmus tolerates throughput noise; backoff must not collapse
#: against immediate re-issue
THROUGHPUT_RATIO_FLOOR = 0.5


# ------------------------------------------------------------- seam overhead


def _append_run(
    opener: Callable[[str], Any],
    fsyncer: Callable[[Any], None],
    path: str,
    payload: str,
    cycles: int,
    fsync_every: int,
) -> None:
    """The engine's steady state: one open WAL, many write+flush commits."""
    fh = opener(path)
    try:
        for n in range(cycles):
            fh.write(payload)
            fh.flush()
            if n % fsync_every == 0:
                fsyncer(fh)
    finally:
        fh.close()


def measure_seam_overhead(
    cycles: int = 20_000, repeats: int = 7, fsync_every: int = 100
) -> dict[str, Any]:
    """WAL-append-shaped I/O: raw builtins vs seam vs fault wrapper.

    Mirrors :meth:`DurableEngine.append_commit`'s steady state — the WAL
    is opened once and every commit is a write + flush, with periodic
    fsyncs. Variants are interleaved and best-of-``repeats`` so cache
    and frequency drift hit all three equally. ``overhead_pct`` is
    relative to raw builtins.
    """
    payload = '{"seq":1,"op":"insert","row":{"id":1,"v":"x"},"commit":true}\n'
    data_dir = tempfile.mkdtemp(prefix="bench-faults-seam-")
    try:
        variants: dict[str, Callable[[], None]] = {
            "raw": lambda: _append_run(
                lambda p: open(p, "a", encoding="utf-8"),
                lambda fh: os.fsync(fh.fileno()),
                os.path.join(data_dir, "raw.jsonl"),
                payload, cycles, fsync_every,
            ),
            "passthrough": lambda: _append_run(
                lambda p: OS_FILESYSTEM.open(p, "a", encoding="utf-8"),
                OS_FILESYSTEM.fsync,
                os.path.join(data_dir, "seam.jsonl"),
                payload, cycles, fsync_every,
            ),
            "wrapper": lambda: _append_run(
                lambda p: FaultyFilesystem(FaultPlan()).open(
                    p, "a", encoding="utf-8"
                ),
                lambda fh: os.fsync(fh.fileno()),
                os.path.join(data_dir, "faulty.jsonl"),
                payload, cycles, fsync_every,
            ),
        }
        best = best_cpu_seconds(variants, repeats)
    finally:
        shutil.rmtree(data_dir, ignore_errors=True)

    def overhead(variant_s: float) -> float:
        return round((variant_s / best["raw"] - 1.0) * 100.0, 2)

    return {
        "cycles": cycles,
        "repeats": repeats,
        "raw_s": round(best["raw"], 4),
        "passthrough_s": round(best["passthrough"], 4),
        "wrapper_s": round(best["wrapper"], 4),
        "passthrough_overhead_pct": overhead(best["passthrough"]),
        "wrapper_overhead_pct": overhead(best["wrapper"]),
    }


# ------------------------------------------------------------- torture sweep


def _insert_workload(path: str, fs: Filesystem, rows: int) -> Any:
    """Autocommit ``rows`` sequential inserts; returns the live Database."""
    db = Database.open(path, auto_checkpoint_records=8, filesystem=fs)
    session = db.connect("admin")
    session.execute("CREATE TABLE seq (id INT PRIMARY KEY, v INT)")
    for n in range(rows):
        session.execute(f"INSERT INTO seq VALUES ({n}, {n * 10})")
    return db


def _prefix_ok(db: Any, rows: int, whole: bool = False) -> bool:
    """The surviving ids must be exactly ``0..k`` for some ``k`` (``rows``
    when ``whole``) — each autocommit is one unit, so any gap or reordering
    is a torn/half-applied commit."""
    ids = sorted(row["id"] for row in db.snapshot().get("seq", []))
    return ids == list(range(len(ids))) and (len(ids) == rows or not whole)


def _recovered_prefix_ok(path: str, rows: int) -> bool:
    """Reopen cleanly and check what survived."""
    recovered = Database.open(path)
    try:
        return _prefix_ok(recovered, rows)
    finally:
        recovered.close()


def run_torture_sweep(rows: int = 20, stride: int = 3) -> dict[str, Any]:
    """Crash and EIO sweeps over stride-sampled operation indices."""
    base = tempfile.mkdtemp(prefix="bench-faults-torture-")
    points = {"crash": 0, "error": 0}
    violations = panics = open_failures = 0
    try:
        probe = FaultyFilesystem(FaultPlan())
        db = _insert_workload(os.path.join(base, "baseline"), probe, rows)
        total_ops = probe.ops
        violations += not _prefix_ok(db, rows, whole=True)
        db.close()

        for at in range(0, total_ops, stride):
            for kind in points:
                path = os.path.join(base, f"{kind}{at}")
                plan = FaultPlan(seed=at, **{f"{kind}_at": at})
                try:
                    _insert_workload(path, FaultyFilesystem(plan), rows).close()
                except SimulatedCrash:
                    pass  # the process "died": what recovery finds is the check
                except StorageFailedError:
                    panics += 1
                except (MiniDBError, OSError):
                    open_failures += 1
                gc.collect()  # drop a dead Database before its files are reopened
                points[kind] += 1
                violations += not _recovered_prefix_ok(path, rows)
    finally:
        shutil.rmtree(base, ignore_errors=True)
    return {
        "rows": rows,
        "stride": stride,
        "total_ops": total_ops,
        "crash_points": points["crash"],
        "error_points": points["error"],
        "panics": panics,
        "open_failures": open_failures,
        "violations": violations,
    }


# ------------------------------------------------------------- retry litmus


def run_retry_litmus(
    sessions: int = 4, increments_per_session: int = 8
) -> dict[str, Any]:
    """Writer contention with jittered backoff vs zero-backoff re-issue."""
    backoff = run_writer_contention(
        sessions=sessions, increments_per_session=increments_per_session
    )
    immediate = run_writer_contention(
        sessions=sessions,
        increments_per_session=increments_per_session,
        retry_policy=RetryPolicy(
            max_attempts=1_000, base_delay_s=0.0, jitter=0.0
        ),
    )

    def rate(outcome: dict[str, Any]) -> float:
        return round(outcome["committed"] / max(outcome["elapsed_s"], 1e-9), 1)

    backoff_rate = rate(backoff)
    immediate_rate = rate(immediate)
    return {
        "sessions": sessions,
        "increments_per_session": increments_per_session,
        "backoff": backoff,
        "immediate": immediate,
        "backoff_commits_per_s": backoff_rate,
        "immediate_commits_per_s": immediate_rate,
        "throughput_ratio": round(backoff_rate / max(immediate_rate, 1e-9), 3),
        "litmus_ok": (
            backoff["lost_updates"] == 0
            and immediate["lost_updates"] == 0
            and backoff["stuck_sessions"] == 0
            and immediate["stuck_sessions"] == 0
            and backoff["committed"] == backoff["expected"]
            and immediate["committed"] == immediate["expected"]
        ),
    }


# -------------------------------------------------------------- entry point


def experiment_fault_recovery(
    seam_cycles: int = 2_000,
    torture_rows: int = 20,
    torture_stride: int = 3,
    writer_sessions: int = 4,
    increments_per_session: int = 8,
) -> dict[str, Any]:
    """All three measurements plus combined verdict inputs."""
    seam = remeasure_until_under(
        lambda: measure_seam_overhead(seam_cycles),
        "passthrough_overhead_pct", PASSTHROUGH_OVERHEAD_PCT,
    )
    torture = run_torture_sweep(torture_rows, torture_stride)
    litmus = run_retry_litmus(writer_sessions, increments_per_session)
    return {"seam": seam, "torture": torture, "retry_litmus": litmus}


def check_fault_recovery(result: dict[str, Any], smoke: bool) -> list[str]:
    """The gate: exact recovery, a clean litmus, and a near-free seam."""
    seam = result["seam"]
    litmus = result["retry_litmus"]
    return failed(
        [
            expect("torture-sweep recovery violations",
                   result["torture"]["violations"], "==", 0),
            (litmus["litmus_ok"],
             "retry litmus lost updates or stuck sessions: "
             f"backoff={litmus['backoff']['lost_updates']} lost / "
             f"{litmus['backoff']['stuck_sessions']} stuck, "
             f"immediate={litmus['immediate']['lost_updates']} lost / "
             f"{litmus['immediate']['stuck_sessions']} stuck"),
            expect("backoff throughput over immediate re-issue",
                   litmus["throughput_ratio"], ">=", THROUGHPUT_RATIO_FLOOR),
            expect(f"passthrough seam overhead % (best of {seam['measurements']})",
                   seam["passthrough_overhead_pct"], "<=", PASSTHROUGH_OVERHEAD_PCT),
        ]
    )
