"""Tests for the CLI front ends (bench CLI and minidb shell)."""

import io

import pytest

from repro.bench.cli import EXPERIMENTS, main as bench_main
from repro.minidb import Database
from repro.minidb.__main__ import run_shell


class TestBenchCLI:
    @pytest.fixture
    def report(self, tiny_result):
        """One experiment from the table, run at test size and rendered."""
        return lambda name: EXPERIMENTS[name].render(tiny_result(name))

    def test_run_experiment_fig5a(self, report):
        text = report("fig5a")
        assert "Figure 5(a)" in text
        assert "gpt-4o" in text

    def test_run_experiment_fig5c(self, report):
        assert "transaction" in report("fig5c")

    def test_unknown_experiment(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            bench_main(["fig99"])
        assert exit_info.value.code == 2
        assert "invalid choice: 'fig99'" in capsys.readouterr().err

    def test_main_prints_report(self, capsys):
        code = bench_main(
            ["fig5a", "--tasks", "4", "--scale", "0.3", "--model", "gpt-4o"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "Figure 5(a)" in out
        assert "OK fig5a" in out

    def test_experiments_registry_complete(self):
        assert set(EXPERIMENTS) == {
            "fig5a", "fig5b", "fig5c", "fig6", "table1", "table2", "ablations",
            "joins", "retrieval", "storage", "concurrency", "query", "faults",
            "obs",
        }

    def test_options_are_exactly_the_documented_seven(self, capsys):
        with pytest.raises(SystemExit):
            bench_main(["--help"])
        usage = capsys.readouterr().out
        options = {word.strip("[],") for word in usage.split() if word.startswith("--")}
        assert options - {"--help"} == {
            "--smoke", "--out", "--rows", "--tasks", "--scale",
            "--housing-rows", "--model",
        }

    def test_run_experiment_query(self, report):
        text = report("query")
        assert "Query scale" in text
        assert "Index Range Scan" in text

    def test_run_experiment_storage(self, report):
        text = report("storage")
        assert "Storage durability" in text
        assert "warm reopen" in text

    def test_run_experiment_joins(self, report):
        text = report("joins")
        assert "Join scale" in text
        assert "Hash Join" in text

    def test_run_experiment_retrieval(self, report):
        text = report("retrieval")
        assert "Retrieval scale" in text
        assert "rankings: identical" in text

    def test_run_experiment_faults(self, report):
        text = report("faults")
        assert "Fault injection" in text
        assert "recovery violations" in text
        assert "retry litmus" in text


class TestMinidbShell:
    def run(self, script: str, db: Database | None = None) -> str:
        import contextlib

        database = db or Database(owner="admin")
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            run_shell(database, "admin", stream=io.StringIO(script))
        return out.getvalue()

    def test_select(self):
        output = self.run("SELECT 1 + 1;\n")
        assert "2" in output

    def test_multiline_statement(self):
        output = self.run("SELECT\n1 + 2;\n")
        assert "3" in output

    def test_create_and_describe(self):
        output = self.run("CREATE TABLE t (a INT);\n\\d\n\\d t\n")
        assert "table  t" in output
        assert "CREATE TABLE t" in output

    def test_describe_missing(self):
        assert "no such object" in self.run("\\d ghost\n")

    def test_error_reported_not_fatal(self):
        output = self.run("SELEKT;\nSELECT 5;\n")
        assert "ERROR" in output
        assert "5" in output

    def test_du_lists_users(self):
        output = self.run("\\du\n")
        assert "admin" in output

    def test_quit_command(self):
        output = self.run("\\q\nSELECT 1;\n")
        assert "1 |" not in output  # nothing executed after \q

    def test_unknown_meta_command(self):
        assert "unknown command" in self.run("\\zzz\n")
