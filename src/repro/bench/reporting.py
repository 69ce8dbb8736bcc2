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


#: each Figure 5 panel's title and its columns, ``(header, result key)``
FIG5_PANELS = {
    "fig5a": (
        "Figure 5(a) — context retrieval: average LLM calls per task",
        [("BridgeScope #calls", "bridgescope"), ("PG-MCP- #calls", "pg-mcp-minus"),
         ("best-achievable", "best-achievable")],
    ),
    "fig5b": (
        "Figure 5(b) — SQL execution accuracy",
        [("BridgeScope accuracy", "bridgescope"), ("PG-MCP accuracy", "pg-mcp")],
    ),
    "fig5c": (
        "Figure 5(c) — transaction trigger ratio on write tasks",
        [("BridgeScope txn ratio", "bridgescope"), ("PG-MCP txn ratio", "pg-mcp"),
         ("best", "best-achievable")],
    ),
}


def render_fig5(panel: str, results: dict[str, dict[str, float]]) -> str:
    """One row per model of ``results``, in ``panel``'s columns."""
    title, columns = FIG5_PANELS[panel]
    return render_table(
        ["model", *(header for header, _ in columns)],
        [[model, *(row[key] for _, key in columns)] for model, row in results.items()],
        title=title,
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


def render_ablations(result: dict[str, Any]) -> str:
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
    return f"{schema}\n{top_k}"
