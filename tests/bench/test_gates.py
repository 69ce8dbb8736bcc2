"""The gates of ``python -m repro.bench``: every ``check(result)`` passes
a good result, names the failure on a doctored one, and carries the
thresholds the benchmark scripts carried before they were folded in.

Each case starts from a real result (``tiny_result``, test-sized) whose
size-dependent fields are first set comfortably inside every floor.
"""

import copy
import json
import os
from dataclasses import replace

import pytest

from repro.bench.cli import EXPERIMENTS, main
from repro.bench.reporting import record_bench_result

#: fields a tiny run cannot be trusted to get inside its gate: table2's
#: context overflow (the house table only overflows at paper size)
GOOD_VALUES = {
    "table2": {
        ("cells", ("gpt-4o", "pg-mcp"), "completion_rate"): 0.0,
        ("cells", ("claude-4", "pg-mcp"), "completion_rate"): 0.0,
        "idealized_pg_mcp_tokens": 10**9,
    },
}


def put(result, path, value):
    """Set ``result[a][b]...`` for the dotted or tuple ``path``."""
    keys = path.split(".") if isinstance(path, str) else list(path)
    for key in keys[:-1]:
        result = result[key]
    result[keys[-1]] = value


@pytest.fixture
def good(tiny_result):
    """``good(name)`` -> a private copy of a result every gate accepts."""

    def get(name):
        result = copy.deepcopy(tiny_result(name))
        for path, value in GOOD_VALUES.get(name, {}).items():
            put(result, path, value)
        return result

    return get


@pytest.mark.parametrize("name", list(EXPERIMENTS))
def test_gate_passes_a_good_result(good, name):
    assert EXPERIMENTS[name].check(good(name)) == []


GPT = "gpt-4o"
#: (experiment, field, doctored value, words the failure must carry)
DOCTORED = [
    ("ablations", "exemplar_top_k", [[1, False, "men's wear"]], "stored form"),
    ("ablations", "schema_threshold", [[0, "hierarchical", 60], [50, "full", 100]],
     "hierarchical get_schema tokens 60 is not < 50"),
    # the paper's shapes (the assertions of the old bench_fig*/table* files)
    ("fig5a", (GPT, "bridgescope"), 99.0, "gpt-4o: bridgescope calls 99 is not <"),
    ("fig5a", (GPT, "pg-mcp-minus"), 0.0, "is not < 0"),
    ("fig5a", (GPT, "best-achievable"), 0.0, "is not <= 1"),
    ("fig5b", (GPT, "pg-mcp"), 9.0, "accuracy gap to pg-mcp"),
    ("fig5b", (GPT, "bridgescope"), 0.59, "bridgescope accuracy 0.59 is not >= 0.6"),
    ("fig5c", (GPT, "bridgescope"), 0.89, "txn ratio 0.89 is not >= 0.9"),
    ("fig5c", (GPT, "pg-mcp"), 0.31, "pg-mcp txn ratio 0.31 is not <= 0.3"),
    ("fig6", (GPT, "(I, write)", "bridgescope"), 99.0,
     "gpt-4o (I, write): LLM-call reduction"),
    ("fig6", (GPT, "(A, read)", "bridgescope"), 4.6,
     "(A, read): bridgescope calls 4.6 is not <= 4.5"),
    ("table1", (GPT, "(N, write)", "bridgescope_tokens"), 1e9,
     "gpt-4o (N, write): token saving"),
    ("table2", ("cells", (GPT, "pg-mcp"), "completion_rate"), 0.5,
     "(1.0, 0.5, 1.0) is not == (1.0, 0.0, 1.0)"),
    ("table2", ("cells", (GPT, "bridgescope"), "avg_llm_calls"), 4.1,
     "bridgescope LLM calls 4.1 is not <= 4"),
    ("table2", ("cells", (GPT, "pg-mcp-s"), "avg_tokens"), 0.0,
     "pg-mcp-s tokens 0 is not >"),
    ("table2", "idealized_pg_mcp_tokens", 1, "is not >= 100"),
]


@pytest.mark.parametrize(
    "name,field,value,words", DOCTORED, ids=[f"{c[0]}-{c[3]}" for c in DOCTORED]
)
def test_gate_names_the_doctored_field(good, name, field, value, words):
    result = good(name)
    put(result, field, value)
    failures = EXPERIMENTS[name].check(result)
    assert any(words in failure for failure in failures), failures


def test_table1_needs_a_large_saving_somewhere(good):
    result = good("table1")
    for cells in result.values():
        for cell in ("(N, write)", "(I, read)", "(I, write)"):
            cells[cell]["bridgescope_tokens"] = 0.5 * cells[cell]["pg-mcp_tokens"]
    assert EXPERIMENTS["table1"].check(result) == [
        "best token saving 0.5 is not >= 0.6"
    ]


# ------------------------------------------------------------------ the CLI


def _swap(monkeypatch, name, **changes):
    """Replace fields of one table row. A stubbed ``run`` must hand out a
    result made beforehand: ``good`` itself runs what the table names."""
    monkeypatch.setitem(EXPERIMENTS, name, replace(EXPERIMENTS[name], **changes))


def test_main_exits_0_when_the_gate_holds_and_1_when_it_does_not(
    monkeypatch, capsys, good
):
    fine, bad = good("fig5c"), good("fig5c")
    _swap(monkeypatch, "fig5c", run=lambda **sizes: fine)
    assert main(["fig5c"]) == 0
    assert "OK fig5c" in capsys.readouterr().out

    bad[GPT]["bridgescope"] = 0.89
    _swap(monkeypatch, "fig5c", run=lambda **sizes: bad)
    assert main(["fig5c"]) == 1
    out = capsys.readouterr().out
    assert "Figure 5(c)" in out  # the report is printed either way
    assert "FAIL fig5c: gpt-4o: bridgescope txn ratio 0.89 is not >= 0.9" in out


def test_sizes_come_from_the_table_and_the_five_options(monkeypatch, good):
    seen = []

    def spy(name):
        result = good(name)

        def run(**sizes):
            seen.append(sizes)
            return result
        return run

    for name in ("ablations", "fig5a", "table2"):
        _swap(monkeypatch, name, run=spy(name))
    main(["ablations"])  # maps no option (one given is refused)
    main(["fig5a"])
    main(["fig5a", "--tasks", "3", "--scale", "0.25", "--model", "gpt-4o"])
    main(["table2", "--housing-rows", "300"])
    assert seen == [
        {},
        {"n_tasks": 25, "scale": 0.5},
        {"n_tasks": 3, "scale": 0.25, "models": ["gpt-4o"]},
        {"per_level": 10, "housing_rows": 300},
    ]


def test_a_run_without_out_writes_no_file(tmp_path, monkeypatch, good):
    monkeypatch.chdir(tmp_path)
    result = good("ablations")
    _swap(monkeypatch, "ablations", run=lambda **sizes: result)
    assert main(["ablations"]) == 0
    assert os.listdir(tmp_path) == []


def test_out_appends_one_entry_per_run(tmp_path, monkeypatch, good, capsys):
    out = tmp_path / "history.json"
    for name in ("ablations", "table2"):  # table2's cells are keyed by tuples
        _swap(monkeypatch, name, run=lambda result=good(name), **sizes: result)
        assert main([name, "--out", str(out)]) == 0
    document = json.loads(out.read_text())
    first, second = document["history"]
    assert (first["experiment"], first["passed"], first["failures"]) == (
        "ablations", True, []
    )
    assert first["exemplar_top_k"][0][:2] == [1, True]
    assert second["experiment"] == "table2"
    assert "gpt-4o/bridgescope" in second["cells"]
    assert document["latest"] == second
    assert os.listdir(tmp_path) == ["history.json"]


def test_out_is_refused_for_all(tmp_path, capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["all", "--out", str(tmp_path / "x.json")])
    assert exit_info.value.code == 2
    assert os.listdir(tmp_path) == []


def test_all_runs_each_experiment_function_once(monkeypatch, capsys, good):
    calls = []
    stubs = {}  # one stub per function in the table: fig6 and table1 share theirs
    for name, experiment in list(EXPERIMENTS.items()):
        if experiment.run not in stubs:
            def stub(result=good(name), function=experiment.run, **sizes):
                calls.append(function.__name__)
                return result
            stubs[experiment.run] = stub
        _swap(monkeypatch, name, run=stubs[experiment.run])
    assert main(["all"]) == 0
    assert calls.count("experiment_fig6_table1") == 1
    assert len(calls) == len(stubs) == len(EXPERIMENTS) - 1
    out = capsys.readouterr().out
    assert all(f"OK {name}" in out for name in EXPERIMENTS)


# ------------------------------------------------------- record_bench_result


def test_record_appends_and_latest_is_the_new_entry(tmp_path):
    path = str(tmp_path / "BENCH_x.json")
    record_bench_result(path, {"speedup": 1.0})
    document = record_bench_result(path, {"speedup": 2.0})
    assert document == json.load(open(path))
    assert document["format"] == "bench-history-1"
    assert [entry["speedup"] for entry in document["history"]] == [1.0, 2.0]
    assert document["latest"] == document["history"][-1]
    assert all("recorded_at" in entry for entry in document["history"])


@pytest.mark.parametrize(
    "content",
    ["{ not json", '{"speedup": 3.0}', '{"format": "other", "history": []}', "[1]"],
)
def test_record_refuses_a_file_it_cannot_extend(tmp_path, content):
    path = tmp_path / "BENCH_x.json"
    path.write_text(content)
    with pytest.raises(ValueError, match="BENCH_x.json"):
        record_bench_result(str(path), {"speedup": 2.0})
    assert path.read_text() == content
    assert os.listdir(tmp_path) == ["BENCH_x.json"]
