"""Tests for the reporting helpers."""

import pytest

from repro.bench.reporting import (
    render_fig5,
    render_fig6,
    render_table,
    render_table1,
    render_table2,
)


class TestRenderTable:
    def test_alignment_and_title(self):
        out = render_table(["col", "n"], [["x", 1], ["longer", 22]], title="T")
        lines = out.splitlines()
        assert lines[0] == "T"
        assert all(len(line) == len(lines[1]) for line in lines[1:])

    def test_float_formatting(self):
        out = render_table(["v"], [[1234.5678]])
        assert "1,234.57" in out

    def test_empty_rows(self):
        out = render_table(["a"], [])
        assert "a" in out


#: one input rendered by the three per-panel renderers render_fig5 replaced;
#: the text each gave is the text its panel must still give
FIG5_INPUT = {
    "gpt-4o": {"bridgescope": 3.2, "pg-mcp-minus": 4.8, "pg-mcp": 0.88,
               "best-achievable": 3.0},
    "claude-4": {"bridgescope": 1.0, "pg-mcp-minus": 12.25, "pg-mcp": 0.1,
                 "best-achievable": 1.0},
}
FIG5_TEXT = {
    "fig5a": (
        "Figure 5(a) — context retrieval: average LLM calls per task\n"
        "model    | BridgeScope #calls | PG-MCP- #calls | best-achievable\n"
        "---------+--------------------+----------------+----------------\n"
        "gpt-4o   | 3.20               | 4.80           | 3.00           \n"
        "claude-4 | 1.00               | 12.25          | 1.00           "
    ),
    "fig5b": (
        "Figure 5(b) — SQL execution accuracy\n"
        "model    | BridgeScope accuracy | PG-MCP accuracy\n"
        "---------+----------------------+----------------\n"
        "gpt-4o   | 3.20                 | 0.88           \n"
        "claude-4 | 1.00                 | 0.10           "
    ),
    "fig5c": (
        "Figure 5(c) — transaction trigger ratio on write tasks\n"
        "model    | BridgeScope txn ratio | PG-MCP txn ratio | best\n"
        "---------+-----------------------+------------------+-----\n"
        "gpt-4o   | 3.20                  | 0.88             | 3.00\n"
        "claude-4 | 1.00                  | 0.10             | 1.00"
    ),
}


@pytest.mark.parametrize("panel", sorted(FIG5_TEXT))
def test_fig5_panel_text_is_unchanged(panel):
    assert render_fig5(panel, FIG5_INPUT) == FIG5_TEXT[panel]


class TestFigureRenderers:
    def test_fig5a(self):
        out = render_fig5(
            "fig5a",
            {"gpt-4o": {"bridgescope": 3.2, "pg-mcp-minus": 4.8, "best-achievable": 3.0}},
        )
        assert "Figure 5(a)" in out
        assert "gpt-4o" in out

    def test_fig5b(self):
        out = render_fig5("fig5b", {"m": {"bridgescope": 0.9, "pg-mcp": 0.88}})
        assert "accuracy" in out

    def test_fig5c(self):
        out = render_fig5(
            "fig5c",
            {"m": {"bridgescope": 1.0, "pg-mcp": 0.1, "best-achievable": 1.0}},
        )
        assert "transaction" in out

    def test_fig6_and_table1(self):
        data = {
            "m": {
                "(A, read)": {
                    "bridgescope": 3.0,
                    "pg-mcp": 3.1,
                    "best": 3.0,
                    "bridgescope_tokens": 5000.0,
                    "pg-mcp_tokens": 5100.0,
                }
            }
        }
        assert "(A, read)" in render_fig6(data)
        assert "Table 1" in render_table1(data)

    def test_table2_includes_idealized_footer(self):
        data = {
            "cells": {
                ("m", "bridgescope"): {
                    "completion_rate": 1.0,
                    "avg_tokens": 10_000.0,
                    "avg_llm_calls": 3.4,
                }
            },
            "idealized_pg_mcp_tokens": 1_500_000,
            "bridgescope_avg_tokens": 10_000.0,
        }
        out = render_table2(data)
        assert "Idealized" in out
        assert "150x" in out
