"""Integration tests for the experiment harness (small-scale end-to-end)."""

import pytest

from repro.baselines import PGMCP, PGMCPMinus, make_sampled_binding
from repro.bench.bird_ext import generate_bird_ext_tasks
from repro.bench.datasets import build_bird_database, build_housing_database
from repro.bench.nl2ml import generate_nl2ml_tasks
from repro.bench.runner import (
    BEST_ACHIEVABLE,
    build_toolkit,
    experiment_fig5a,
    experiment_fig5c,
    experiment_table2,
    role_feasible,
    run_db_task,
    run_ml_task,
)
from repro.core import MinidbBinding
from repro.llm import CLAUDE_4, GPT_4O
from repro.mltools import MLToolServer


class TestToolkitFactory:
    @pytest.fixture(scope="class")
    def db(self):
        return build_bird_database(scale=0.3)

    def test_bridgescope_assembly(self, db):
        registry, prompt = build_toolkit("bridgescope", db, "admin")
        assert "get_schema" in registry.tool_names()
        assert "proxy" in registry.tool_names()
        assert "BridgeScope" in prompt or "transaction" in prompt

    def test_pg_mcp_assembly(self, db):
        registry, _ = build_toolkit("pg-mcp", db, "admin")
        assert set(registry.tool_names()) == {"get_schema", "execute_sql"}

    def test_pg_mcp_minus_assembly(self, db):
        registry, _ = build_toolkit("pg-mcp-minus", db, "admin")
        assert registry.tool_names() == ["execute_sql"]

    def test_pg_mcp_s_is_sampled(self, db):
        registry, _ = build_toolkit("pg-mcp-s", db, "admin")
        result = registry.invoke("execute_sql", sql="SELECT COUNT(*) FROM schools")
        count = result.metadata["rows"][0][0]
        assert count <= 20

    def test_unknown_toolkit(self, db):
        with pytest.raises(ValueError):
            build_toolkit("nope", db, "admin")

    def test_extra_servers_attached(self, db):
        registry, _ = build_toolkit(
            "bridgescope", db, "admin", extra_servers=[MLToolServer()]
        )
        assert "train_linear" in registry.tool_names()


class TestSampledBinding:
    def test_grants_replicated(self):
        db = build_bird_database(scale=0.3)
        binding = make_sampled_binding(db, "normal")
        assert "SELECT" in binding.user_actions_on("schools")
        assert binding.user_actions_on("audit_log") == set()

    def test_schema_preserved(self):
        db = build_bird_database(scale=0.3)
        binding = make_sampled_binding(db, "admin")
        assert set(binding.list_objects()) >= {"schools", "satscores"}
        info = binding.object_info("schools")
        assert info.primary_key == ["cds_code"]


class TestPGMCPBaseline:
    def test_schema_has_no_annotations(self):
        db = build_bird_database(scale=0.3)
        server = PGMCP(MinidbBinding.for_user(db, "admin"))
        schema = server.invoke("get_schema").content
        assert "Access:" not in schema
        assert "CREATE TABLE schools" in schema

    def test_execute_sql_any_statement(self):
        db = build_bird_database(scale=0.3)
        server = PGMCP(MinidbBinding.for_user(db, "admin"))
        assert not server.invoke("execute_sql", sql="SELECT 1").is_error
        assert not server.invoke(
            "execute_sql", sql="CREATE TABLE scratch (x INT)"
        ).is_error

    def test_minus_variant_hides_schema_tool(self):
        db = build_bird_database(scale=0.3)
        server = PGMCPMinus(MinidbBinding.for_user(db, "admin"))
        assert [s.name for s in server.visible_tools()] == ["execute_sql"]

    def test_json_tool_rendering(self):
        db = build_bird_database(scale=0.3)
        server = PGMCP(MinidbBinding.for_user(db, "admin"))
        rendered = server.render_tool_list()
        assert '"inputSchema"' in rendered


class TestScoring:
    @pytest.fixture(scope="class")
    def tasks(self):
        return generate_bird_ext_tasks()

    def test_role_feasibility(self, tasks):
        db = build_bird_database(scale=0.3)
        read = next(t for t in tasks if not t.write)
        write = next(t for t in tasks if t.write)
        assert role_feasible(db, "admin", read)
        assert role_feasible(db, "normal", read)
        assert not role_feasible(db, "normal", write)
        assert not role_feasible(db, "irrelevant", read)

    def test_correct_read_scored(self, tasks):
        read = next(t for t in tasks if not t.write and t.tricky is None)
        result = run_db_task(read, "bridgescope", CLAUDE_4, scale=0.3)
        assert result.feasible
        assert result.correct is True

    def test_write_correctness_via_snapshot(self, tasks):
        write = next(t for t in tasks if t.action == "INSERT")
        result = run_db_task(write, "bridgescope", CLAUDE_4, scale=0.3)
        assert result.correct is True

    def test_infeasible_marked_intercepted(self, tasks):
        write = next(t for t in tasks if t.write)
        result = run_db_task(write, "bridgescope", CLAUDE_4, role="normal", scale=0.3)
        assert result.correct is None
        assert result.intercepted


class TestExperimentsSmallScale:
    def test_fig5a_shape(self):
        result = experiment_fig5a(models=["gpt-4o"], n_tasks=8, scale=0.3)
        row = result["gpt-4o"]
        assert row["bridgescope"] < row["pg-mcp-minus"]
        assert row["best-achievable"] == BEST_ACHIEVABLE["read"]

    def test_fig5c_shape(self):
        result = experiment_fig5c(models=["claude-4"], n_tasks=8, scale=0.3)
        row = result["claude-4"]
        assert row["bridgescope"] >= 0.8
        assert row["pg-mcp"] <= 0.4

    def test_table2_small(self):
        """Pinned: the NL2ML tasks route through every mltools tool, and the
        rendered results feed the token counts, so a numeric change in
        ``repro.mltools`` that reaches the LLM's context moves these."""
        result = experiment_table2(models=["gpt-4o"], per_level=1, housing_rows=800)
        cells = result["cells"]
        assert cells[("gpt-4o", "bridgescope")] == {
            "completion_rate": 1.0,
            "avg_tokens": 5718.666666666667,
            "avg_llm_calls": 3.0,
        }
        assert cells[("gpt-4o", "pg-mcp")] == {
            "completion_rate": 1.0,
            "avg_tokens": 82768.0,
            "avg_llm_calls": 5.0,
        }
        assert cells[("gpt-4o", "pg-mcp-s")] == {
            "completion_rate": 1.0,
            "avg_tokens": 8962.666666666666,
            "avg_llm_calls": 5.0,
        }
        assert result["idealized_pg_mcp_tokens"] == 47162


class TestNL2MLRuns:
    @pytest.fixture(scope="class")
    def housing(self):
        return build_housing_database(rows=600)

    def test_bridgescope_completes_all_levels(self, housing):
        tasks = generate_nl2ml_tasks(per_level=2)
        for task in tasks:
            result = run_ml_task(task, "bridgescope", CLAUDE_4, housing)
            assert result.trace.completed and not result.trace.aborted, task.task_id
            assert result.trace.used("proxy")

    def test_bridgescope_call_count_near_three(self, housing):
        tasks = generate_nl2ml_tasks(per_level=2)
        calls = [
            run_ml_task(t, "bridgescope", CLAUDE_4, housing).trace.llm_calls
            for t in tasks
        ]
        assert sum(calls) / len(calls) <= 4.0

    def test_pg_mcp_overflows_on_large_table(self):
        housing = build_housing_database(rows=20_000)
        task = generate_nl2ml_tasks(per_level=1)[0]
        result = run_ml_task(task, "pg-mcp", GPT_4O, housing)
        assert not result.trace.completed
        assert result.trace.failure_reason == "context_overflow"

    def test_pg_mcp_s_routes_manually(self, housing):
        task = generate_nl2ml_tasks(per_level=1)[0]
        result = run_ml_task(task, "pg-mcp-s", GPT_4O, housing)
        assert result.trace.completed
        assert not result.trace.used("proxy")
        assert result.trace.llm_calls >= 4
