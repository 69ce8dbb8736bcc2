"""Plain-text rendering of experiment results in the paper's layouts,
plus the ``BENCH_*.json`` history writer behind ``repro.bench --out``."""

from __future__ import annotations

import json
import os
import time
from typing import Any

#: schema marker for history-bearing BENCH_*.json files
BENCH_HISTORY_FORMAT = "bench-history-1"


def _json_keys(value: Any) -> Any:
    """``value`` with tuple dict keys (table2's ``(model, toolkit)`` cells)
    joined into ``"model/toolkit"`` strings, which JSON can carry."""
    if isinstance(value, dict):
        return {
            "/".join(key) if isinstance(key, tuple) else key: _json_keys(item)
            for key, item in value.items()
        }
    return [_json_keys(v) for v in value] if isinstance(value, (list, tuple)) else value


def record_bench_result(path: str, payload: dict[str, Any]) -> dict[str, Any]:
    """Append one benchmark run to ``path`` and return the full document.

    ``BENCH_*.json`` files carry the perf trajectory across PRs, so runs
    are *appended* to a ``history`` list (each stamped with a UTC
    timestamp), never overwritten; ``latest`` duplicates the newest entry
    for easy single-run consumption. An existing file that is not such a
    history raises ``ValueError`` naming the path and is left untouched:
    a run can be repeated, a trajectory cannot.
    """
    entry = _json_keys(payload)
    entry.setdefault(
        "recorded_at", time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
    )
    history: list[dict[str, Any]] = []
    if os.path.exists(path):
        try:
            with open(path, "r", encoding="utf-8") as fh:
                existing = json.load(fh)
            if existing["format"] != BENCH_HISTORY_FORMAT:
                raise ValueError(f"format is {existing['format']!r}")
            history = list(existing["history"])
        except (ValueError, KeyError, TypeError) as exc:
            raise ValueError(
                f"{path}: not a {BENCH_HISTORY_FORMAT} document ({exc}); "
                "left untouched"
            ) from exc
    history.append(entry)
    document = {
        "format": BENCH_HISTORY_FORMAT,
        "latest": entry,
        "history": history,
    }
    tmp_path = f"{path}.tmp.{os.getpid()}"
    with open(tmp_path, "w", encoding="utf-8") as fh:
        json.dump(document, fh, indent=2, sort_keys=True)
        fh.write("\n")
    os.replace(tmp_path, path)
    return document


def render_table(headers: list[str], rows: list[list[Any]], title: str = "") -> str:
    """Render an aligned text table."""
    def fmt(value: Any) -> str:
        if isinstance(value, float):
            return f"{value:,.2f}"
        return str(value)

    cells = [[fmt(v) for v in row] for row in rows]
    widths = [
        max(len(headers[i]), *(len(row[i]) for row in cells)) if cells else len(headers[i])
        for i in range(len(headers))
    ]
    lines = []
    if title:
        lines.append(title)
    lines.append(" | ".join(h.ljust(w) for h, w in zip(headers, widths)))
    lines.append("-+-".join("-" * w for w in widths))
    for row in cells:
        lines.append(" | ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def render_fig5a(results: dict[str, dict[str, float]]) -> str:
    rows = [
        [model, row["bridgescope"], row["pg-mcp-minus"], row["best-achievable"]]
        for model, row in results.items()
    ]
    return render_table(
        ["model", "BridgeScope #calls", "PG-MCP- #calls", "best-achievable"],
        rows,
        title="Figure 5(a) — context retrieval: average LLM calls per task",
    )


def render_fig5b(results: dict[str, dict[str, float]]) -> str:
    rows = [
        [model, row["bridgescope"], row["pg-mcp"]]
        for model, row in results.items()
    ]
    return render_table(
        ["model", "BridgeScope accuracy", "PG-MCP accuracy"],
        rows,
        title="Figure 5(b) — SQL execution accuracy",
    )


def render_fig5c(results: dict[str, dict[str, float]]) -> str:
    rows = [
        [model, row["bridgescope"], row["pg-mcp"], row["best-achievable"]]
        for model, row in results.items()
    ]
    return render_table(
        ["model", "BridgeScope txn ratio", "PG-MCP txn ratio", "best"],
        rows,
        title="Figure 5(c) — transaction trigger ratio on write tasks",
    )


def render_fig6(results: dict[str, dict[str, dict[str, float]]]) -> str:
    blocks = []
    for model, cells in results.items():
        rows = [
            [cell, stats["bridgescope"], stats["pg-mcp"], stats["best"]]
            for cell, stats in cells.items()
        ]
        blocks.append(
            render_table(
                ["(user, task)", "BridgeScope #calls", "PG-MCP #calls", "best"],
                rows,
                title=f"Figure 6 — average LLM calls ({model})",
            )
        )
    return "\n\n".join(blocks)


def render_table1(results: dict[str, dict[str, dict[str, float]]]) -> str:
    blocks = []
    for model, cells in results.items():
        rows = [
            [cell, stats["bridgescope_tokens"], stats["pg-mcp_tokens"]]
            for cell, stats in cells.items()
        ]
        blocks.append(
            render_table(
                ["(user, task)", "BridgeScope tokens", "PG-MCP tokens"],
                rows,
                title=f"Table 1 — token usage for BIRD-Ext ({model})",
            )
        )
    return "\n\n".join(blocks)


def render_table2(results: dict[str, Any]) -> str:
    rows = [
        [model, toolkit, stats["completion_rate"], stats["avg_tokens"],
         stats["avg_llm_calls"]]
        for (model, toolkit), stats in results["cells"].items()
    ]
    table = render_table(
        ["model", "toolkit", "completion", "avg tokens", "avg #LLM calls"],
        rows,
        title="Table 2 — effectiveness of the proxy mechanism (NL2ML)",
    )
    ideal = results["idealized_pg_mcp_tokens"]
    bridge = results["bridgescope_avg_tokens"]
    factor = ideal / bridge if bridge else float("inf")
    footer = (
        f"\nIdealized PG-MCP (unlimited context) lower bound: {ideal:,} tokens "
        f"vs BridgeScope {bridge:,.1f} ({factor:,.0f}x more)"
    )
    return table + footer


def render_retrieval_scale(result: dict[str, Any]) -> str:
    suffix = (
        f" (measured at {result['brute_distinct']} distinct, extrapolated)"
        if result["brute_extrapolated"]
        else ""
    )
    table = render_table(
        ["path", "distinct values", "per call (ms)"],
        [
            ["indexed (cold, builds catalog)", result["distinct"], result["cold_ms"]],
            ["indexed (warm)", result["distinct"], result["indexed_call_ms"]],
            ["indexed (after a write, list unchanged)", result["distinct"],
             result["after_write_ms"]],
            ["brute force" + suffix, result["distinct"], result["brute_call_ms"]],
        ],
        title="Retrieval scale — get_value exemplar retrieval (BridgeScope)",
    )
    equivalence = (
        "identical"
        if result["equivalence_ok"]
        else f"MISMATCH on keys {result['equivalence_mismatches']}"
    )
    return (
        f"{table}\n"
        f"speedup: {result['speedup']:,.1f}x on warm calls "
        f"({result['queries_per_round']} keys x {result['rounds']} rounds)\n"
        f"candidates/bounded/scored per query: {result['avg_candidates']:,.1f} / "
        f"{result['avg_bounded']:,.1f} / {result['avg_scored']:,.1f} "
        f"of {result['distinct']:,}\n"
        f"indexed vs brute-force rankings: {equivalence}"
    )


def render_storage_durability(result: dict[str, Any]) -> str:
    rows, warm, cold = result["rows"], result["warm_reopen_s"], result["cold_rebuild_s"]
    table = render_table(
        ["restart path", "rows", "time (s)"],
        [
            ["warm reopen (snapshot + persisted catalogs)", rows, warm],
            ["cold rebuild (SQL replay + catalog build)", rows, cold],
        ],
        title="Storage durability — restart cost (minidb durable engine)",
    )
    zero = "yes" if result["zero_rebuild"] else "NO (catalog was rebuilt)"
    equivalence = (
        "identical" if result["equivalence_ok"] else "MISMATCH"
    )
    return (
        f"{table}\n"
        f"speedup: {result['speedup']:,.1f}x "
        f"(best of {len(result['warm_trials_s'])} warm trials)\n"
        f"zero catalog rebuild on reopen: {zero}\n"
        f"warm vs cold tool output: {equivalence}\n"
        f"snapshot write (checkpoint) took {result['checkpoint_s']:.2f}s, "
        f"{result['snapshot_bytes']:,} bytes"
    )


def render_concurrency(result: dict[str, Any]) -> str:
    read = result["read_heavy"]
    contention = result["writer_contention"]
    table = render_table(
        ["dispatcher", "requests", "time (s)", "req/s"],
        [
            ["serialized (1 at a time)", read["requests"], read["serial_s"],
             read["serial_rps"]],
            [f"threaded ({read['workers']} workers)", read["requests"],
             read["threaded_s"], read["threaded_rps"]],
        ],
        title=(
            "Concurrency — read-heavy mixed workload "
            f"({read['sessions']} sessions, {read['io_delay_ms']}ms simulated "
            "I/O per request)"
        ),
    )
    contention_line = (
        f"writer contention: {contention['committed']}/{contention['expected']} "
        f"increments committed, final counter {contention['final_value']} "
        f"(recovered: {contention['recovered_value']}), "
        f"{contention['lost_updates']} lost updates, "
        f"{contention['deadlocks_detected']} deadlocks detected, "
        f"{contention['retries']} retries, "
        f"{contention['stuck_sessions']} stuck sessions"
    )
    return (
        f"{table}\n"
        f"speedup: {read['speedup']:,.2f}x  "
        f"(p50 {read['p50_latency_ms']}ms / p95 {read['p95_latency_ms']}ms, "
        f"max queue depth {read['max_queue_depth']})\n"
        f"{contention_line}"
    )


def render_query_scale(result: dict[str, Any]) -> str:
    labels = {
        "range": "selective range (btree slice vs seq scan)",
        "topn": "ORDER BY LIMIT 10 (ordered scan vs full sort)",
        "predicate": "seq-scan WHERE (compiled vs interpreted)",
        "union": "10-member IN (index union vs seq scan)",
        "batch_filter": "wide filter (absolute)",
        "batch_aggregate": "GROUP BY fold (absolute)",
        "btree_write": "index insert (paged B-tree vs flat insort)",
        "stats_skew": "skewed conjunct (cost-based vs static plan)",
    }
    table = render_table(
        ["query class", "rows", "fast (ms)", "baseline (ms)", "speedup"],
        [
            [
                label,
                result[name].get("entries", result["rows"]),
                result[name]["fast_ms"],
                result[name].get("baseline_ms", "-"),
                (
                    f"{result[name]['speedup']:,.1f}x"
                    if "speedup" in result[name]
                    else "-"
                ),
            ]
            for name, label in labels.items()
            if name in result
        ],
        title="Query scale — indexed/compiled execution vs seed paths (minidb)",
    )
    stats = result["planner_stats"]
    plans = "\n".join(
        f"  {line}"
        for name in labels
        if name in result
        for line in result[name].get("plan", [])
    )
    equivalence = "identical" if result["identical"] else "MISMATCH"
    lines = [
        table,
        f"fast vs baseline rows: {equivalence}",
        f"planner stats: {stats['range_scans']} range scans, "
        f"{stats['ordered_scans']} ordered scans, "
        f"{stats['topn_limits']} top-N limits, "
        f"{stats.get('union_scans', 0)} union scans, "
        f"{stats.get('batch_scans', 0)} batch scans",
    ]
    skew = result.get("stats_skew")
    if skew is not None:
        lines.append(
            "static plan (pre-ANALYZE): "
            + "; ".join(skew.get("static_plan", []))
        )
    lines.append(f"query plans:\n{plans}")
    return "\n".join(lines)


def render_join_scale(result: dict[str, Any]) -> str:
    suffix = (
        f" (measured at {result['nl_rows']} rows, extrapolated)"
        if result["nl_extrapolated"]
        else ""
    )
    table = render_table(
        ["strategy", "rows", "time (ms)"],
        [
            ["hash join", result["rows"], result["hash_ms"]],
            ["nested loop" + suffix, result["rows"], result["nl_ms"]],
            ["hash join + GROUP BY", result["rows"], result["join_group_ms"]],
        ],
        title="Join scale — equi-join strategy comparison (minidb)",
    )
    plan = "\n".join(f"  {line}" for line in result["plan"])
    return (
        f"{table}\n"
        f"speedup: {result['speedup']:,.1f}x on {result['matches']} matches\n"
        f"query plan:\n{plan}"
    )


def _overhead_table(
    title: str,
    headers: list[str],
    count: int,
    variants: list[tuple[str, float, float | None]],
) -> str:
    """``(label, seconds, overhead % over the first variant)`` rows."""
    return render_table(
        [*headers, "time (s)", "overhead"],
        [
            [label, count, seconds, "-" if pct is None else f"{pct:+.2f}%"]
            for label, seconds, pct in variants
        ],
        title=title,
    )


def render_faults(result: dict[str, Any]) -> str:
    seam = result["seam"]
    torture = result["torture"]
    litmus = result["retry_litmus"]
    seam_table = _overhead_table(
        "Fault injection — Filesystem seam overhead (WAL-shaped I/O)",
        ["filesystem variant", "cycles"],
        seam["cycles"],
        [
            ("raw builtins (no seam)", seam["raw_s"], None),
            ("passthrough seam (production)", seam["passthrough_s"],
             seam["passthrough_overhead_pct"]),
            ("FaultyFilesystem wrapper (tests)", seam["wrapper_s"],
             seam["wrapper_overhead_pct"]),
        ],
    )
    torture_line = (
        f"torture sweep: {torture['crash_points']} crash points + "
        f"{torture['error_points']} EIO points over {torture['total_ops']} ops "
        f"(stride {torture['stride']}): {torture['panics']} fail-stop panics, "
        f"{torture['open_failures']} failed opens, "
        f"{torture['violations']} recovery violations"
    )
    litmus_line = (
        "retry litmus: jittered backoff "
        f"{litmus['backoff_commits_per_s']} commits/s vs zero-backoff "
        f"{litmus['immediate_commits_per_s']} commits/s "
        f"(ratio {litmus['throughput_ratio']}), lost updates "
        f"{litmus['backoff']['lost_updates']}/"
        f"{litmus['immediate']['lost_updates']}, "
        f"retries {litmus['backoff']['retries']}/"
        f"{litmus['immediate']['retries']}"
    )
    return f"{seam_table}\n{torture_line}\n{litmus_line}"


def render_observability(result: dict[str, Any]) -> str:
    overhead = result["overhead"]
    features = result["features"]
    table = _overhead_table(
        "Observability — statement-path overhead (point lookups)",
        ["variant", "statements"],
        overhead["statements"],
        [
            ("no-dispatch baseline", overhead["baseline_s"], None),
            ("dark (defaults, production)", overhead["dark_s"],
             overhead["dark_overhead_pct"]),
            ("traced (ring + spans)", overhead["traced_s"],
             overhead["traced_overhead_pct"]),
        ],
    )
    feature_line = (
        f"features: {features['system_statements_rows']} system.statements rows, "
        f"{features['system_metrics_rows']} system.metrics rows, "
        f"{features['slow_entries']} slow-log entries, "
        f"{features['explain_analyze_lines']} EXPLAIN ANALYZE lines, "
        f"{features['render_text_bytes']}B exposition"
    )
    ring_line = (
        f"ring buffer: {overhead['ring_entries']} traces retained "
        "(bounded) after the traced runs"
    )
    return f"{table}\n{feature_line}\n{ring_line}"


def render_ablations(result: dict[str, Any]) -> str:
    producers = result["producers"]
    same = "identical" if producers["serial"] == producers["parallel"] else "MISMATCH"
    schema = render_table(
        ["threshold n", "mode", "get_schema tokens"],
        result["schema_threshold"],
        title="Ablation — adaptive schema threshold",
    )
    top_k = render_table(
        ["k", "stored form found", "top-3"],
        result["exemplar_top_k"],
        title="Ablation — get_value top-k recall for key 'women'",
    )
    return (
        f"{schema}\n"
        f"verification overhead: {result['verification_overhead']:+.1%} "
        f"over bare execution\n{top_k}\n"
        "index point-lookup speedup over seq scan: "
        f"{result['index_scan']['speedup']:.0f}x\n"
        f"parallel vs serial proxy producers: {same}"
    )
