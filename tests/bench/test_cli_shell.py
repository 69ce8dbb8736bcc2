"""Tests for the CLI front ends (bench CLI and minidb shell)."""

import io
from dataclasses import replace

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

    @pytest.mark.parametrize(
        "name",
        ["joins", "faults", "query", "retrieval", "storage", "concurrency", "obs"],
    )
    def test_folded_experiments_are_no_longer_names(self, capsys, name):
        # joins folded into query, faults into storage and concurrency;
        # query, retrieval, storage, concurrency and obs became count and
        # barrier tests under tests/
        with pytest.raises(SystemExit) as exit_info:
            bench_main([name])
        assert exit_info.value.code == 2
        assert f"invalid choice: '{name}'" in capsys.readouterr().err

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
        }

    def test_options_are_exactly_the_documented_five(self, capsys):
        with pytest.raises(SystemExit):
            bench_main(["--help"])
        usage = capsys.readouterr().out
        options = {word.strip("[],") for word in usage.split() if word.startswith("--")}
        assert options - {"--help"} == {
            "--out", "--tasks", "--scale", "--housing-rows", "--model",
        }

    @pytest.mark.parametrize(
        "argv,flag",
        [
            (["ablations", "--scale", "0.3"], "--scale"),
            (["ablations", "--tasks", "3"], "--tasks"),
            (["table2", "--tasks", "3"], "--tasks"),
            (["table2", "--scale", "0.3"], "--scale"),
            (["fig5a", "--housing-rows", "10"], "--housing-rows"),
            (["ablations", "--model", "gpt-4o"], "--model"),
        ],
    )
    def test_an_option_the_experiment_does_not_map_is_refused(
        self, capsys, argv, flag
    ):
        with pytest.raises(SystemExit) as exit_info:
            bench_main(argv)
        assert exit_info.value.code == 2
        assert f"{flag} does not apply to {argv[0]}" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flag,text,keyword,value",
        [
            ("--tasks", "3", "n_tasks", 3),
            ("--scale", "0.3", "scale", 0.3),
            ("--housing-rows", "10", "housing_rows", 10),
        ],
    )
    def test_all_accepts_an_option_any_of_its_experiments_maps(
        self, monkeypatch, flag, text, keyword, value
    ):
        ran = {}
        for name, experiment in EXPERIMENTS.items():
            monkeypatch.setitem(EXPERIMENTS, name, replace(
                experiment,
                run=lambda name=name, **sizes: ran.setdefault(name, sizes),
                render=lambda result: "",
                check=lambda result: [],
            ))
        assert bench_main(["all", flag, text]) == 0
        assert list(ran) == list(EXPERIMENTS)
        assert any(sizes.get(keyword) == value for sizes in ran.values())

    def test_smoke_is_no_longer_an_option(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            bench_main(["all", "--smoke"])
        assert exit_info.value.code == 2
        assert "unrecognized arguments: --smoke" in capsys.readouterr().err


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
