"""The gates of ``python -m repro.bench``: every ``check(result, smoke)``
passes a good result, names the failure on a doctored one, and carries the
thresholds the benchmark scripts carried before they were folded in.

Each case starts from a real result (``tiny_result``, test-sized) whose
size-dependent fields are first set comfortably inside every floor, so the
verdicts below do not depend on how fast this machine is.
"""

import copy
import json
import os
from dataclasses import replace

import pytest

from repro.bench.cli import EXPERIMENTS, main
from repro.bench.reporting import record_bench_result

#: fields a tiny run cannot be trusted to get inside its gate: timings,
#: table2's context overflow (the house table only overflows at paper size)
#: and retrieval's bounded share (a 2,000-value column holds fewer than k
#: names related to most keys, so the k-th best score is noise and no
#: candidate can be ruled out: 75 of 111 are bounded)
GOOD_VALUES = {
    "joins": {"speedup": 1000.0},
    "retrieval": {"speedup": 1000.0, "after_write_ms": 0.0, "avg_bounded": 0.0},
    "storage": {"speedup": 1000.0},
    "concurrency": {"read_heavy.speedup": 1000.0},
    "query": {
        f"{name}.speedup": 1000.0
        for name in ("range", "topn", "predicate", "union", "btree_write", "stats_skew")
    },
    "faults": {
        "seam.passthrough_overhead_pct": 0.0,
        "seam.measurements": 1,
        "retry_litmus.throughput_ratio": 1.0,
    },
    "obs": {"overhead.dark_overhead_pct": 0.0, "overhead.measurements": 1},
    "ablations": {"verification_overhead": 0.1, "index_scan.speedup": 100.0},
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
@pytest.mark.parametrize("smoke", [False, True])
def test_gate_passes_a_good_result(good, name, smoke):
    assert EXPERIMENTS[name].check(good(name), smoke) == []


GPT = "gpt-4o"
#: (experiment, smoke, field, doctored value, words the failure must carry)
DOCTORED = [
    # correctness checks and plan-shape pins: hard at every size
    ("joins", True, "plan", ["Nested Loop Join"], "does not report a hash join"),
    ("retrieval", True, "equivalence_ok", False, "rankings differ"),
    ("retrieval", True, "after_write_ms", 1e9,
     "after-write get_value ms 1e+09 is not <="),
    ("retrieval", False, "after_write_ms", 1e9,
     "after-write get_value ms 1e+09 is not <="),
    ("retrieval", True, "after_write_revised", 4,
     "catalogs kept after a write 4 is not == 5"),
    ("retrieval", True, "avg_bounded", 1e9,
     "candidates bounded per query 1e+09 is not <="),
    ("retrieval", False, "avg_bounded", 1e9,
     "candidates bounded per query 1e+09 is not <="),
    ("storage", True, "equivalence_ok", False, "tool outputs differ"),
    ("storage", True, "zero_rebuild", False, "rebuilt the catalog"),
    ("concurrency", True, "writer_contention.lost_updates", 1,
     "lost updates 1 is not == 0"),
    ("concurrency", True, "writer_contention.stuck_sessions", 1,
     "never finished 1 is not == 0"),
    ("concurrency", True, "writer_contention.recovered_value", -1,
     "counter replayed by recovery -1 is not =="),
    ("concurrency", True, "contention_ok", False, "did not complete cleanly"),
    ("concurrency", True, "read_heavy.errors", {"serial": 0, "threaded": 2},
     "read-heavy errors 2 is not == 0"),
    ("query", True, "identical", False, "different rows"),
    ("query", True, "range.plan", ["Seq Scan on events"],
     "range plan no longer shows 'Index Range Scan'"),
    ("query", True, "topn.plan", ["Seq Scan on events"],
     "topn plan no longer shows 'Ordered Index Scan'"),
    ("query", True, "predicate.plan", ["Index Scan"], "no longer a plain Seq Scan"),
    ("query", True, "union.plan", ["Seq Scan on events"],
     "union plan no longer shows 'Index Union Scan'"),
    ("query", True, "planner_stats.ordered_scans", 0, "'ordered_scans'] 0 is not > 0"),
    ("query", True, "planner_stats.union_scans", 0, "'union_scans'] 0 is not > 0"),
    ("query", True, "planner_stats.batch_scans", 0, "'batch_scans'] 0 is not > 0"),
    ("query", True, "stats_skew.static_plan", ["Seq Scan on events"],
     "static_plan no longer shows 'Index Scan using ix_events_hot'"),
    ("query", True, "stats_skew.plan", ["Index Scan using ix_events_hot (est. rows 9)"],
     "plan no longer shows 'Index Range Scan using ix_events_val'"),
    ("query", True, "stats_skew.plan", ["Index Range Scan using ix_events_val on events"],
     "plan no longer shows 'est. rows'"),
    ("faults", True, "torture.violations", 1, "recovery violations 1 is not == 0"),
    ("faults", True, "retry_litmus.litmus_ok", False, "lost updates or stuck"),
    ("obs", True, "features.slow_entries", 0, "slow_entries 0 is not >= 1"),
    ("obs", True, "features.explain_analyze_lines", 2,
     "explain_analyze_lines 2 is not >= 3"),
    ("obs", True, "features.spans_last_statement", 0, "spans_last_statement 0"),
    ("ablations", True, "producers.parallel", [("other",)], "different rows"),
    ("ablations", True, "index_scan.found", False, "wrong row"),
    ("ablations", True, "exemplar_top_k", [[1, False, "men's wear"]], "stored form"),
    # the paper's shapes (the assertions of the old bench_fig*/table* files)
    ("fig5a", False, (GPT, "bridgescope"), 99.0, "gpt-4o: bridgescope calls 99 is not <"),
    ("fig5a", False, (GPT, "pg-mcp-minus"), 0.0, "is not < 0"),
    ("fig5a", False, (GPT, "best-achievable"), 0.0, "is not <= 1"),
    ("fig5b", False, (GPT, "pg-mcp"), 9.0, "accuracy gap to pg-mcp"),
    ("fig5b", False, (GPT, "bridgescope"), 0.59, "bridgescope accuracy 0.59 is not >= 0.6"),
    ("fig5c", False, (GPT, "bridgescope"), 0.89, "txn ratio 0.89 is not >= 0.9"),
    ("fig5c", False, (GPT, "pg-mcp"), 0.31, "pg-mcp txn ratio 0.31 is not <= 0.3"),
    ("fig6", False, (GPT, "(I, write)", "bridgescope"), 99.0,
     "gpt-4o (I, write): LLM-call reduction"),
    ("fig6", False, (GPT, "(A, read)", "bridgescope"), 4.6,
     "(A, read): bridgescope calls 4.6 is not <= 4.5"),
    ("table1", False, (GPT, "(N, write)", "bridgescope_tokens"), 1e9,
     "gpt-4o (N, write): token saving"),
    ("table2", False, ("cells", (GPT, "pg-mcp"), "completion_rate"), 0.5,
     "(1.0, 0.5, 1.0) is not == (1.0, 0.0, 1.0)"),
    ("table2", False, ("cells", (GPT, "bridgescope"), "avg_llm_calls"), 4.1,
     "bridgescope LLM calls 4.1 is not <= 4"),
    ("table2", False, ("cells", (GPT, "pg-mcp-s"), "avg_tokens"), 0.0,
     "pg-mcp-s tokens 0 is not >"),
    ("table2", False, "idealized_pg_mcp_tokens", 1, "is not >= 100"),
]


@pytest.mark.parametrize(
    "name,smoke,field,value,words", DOCTORED, ids=[f"{c[0]}-{c[4]}" for c in DOCTORED]
)
def test_gate_names_the_doctored_field(good, name, smoke, field, value, words):
    result = good(name)
    put(result, field, value)
    failures = EXPERIMENTS[name].check(result, smoke)
    assert any(words in failure for failure in failures), failures


def test_table1_needs_a_large_saving_somewhere(good):
    result = good("table1")
    for cells in result.values():
        for cell in ("(N, write)", "(I, read)", "(I, write)"):
            cells[cell]["bridgescope_tokens"] = 0.5 * cells[cell]["pg-mcp_tokens"]
    assert EXPERIMENTS["table1"].check(result, False) == [
        "best token saving 0.5 is not >= 0.6"
    ]


QUERY_FLOORS = {  # class: (full, smoke, >= 1M rows)
    "range": (20.0, 3.0, 20.0),
    "topn": (5.0, 1.5, 5.0),
    "predicate": (1.5, 1.1, 1.5),
    "union": (20.0, 3.0, 20.0),
    "btree_write": (4.0, 1.5, 10.0),
    "stats_skew": (5.0, 1.5, 5.0),
}
#: (experiment, field, floor at full size, floor at smoke size): the values
#: the seven bench_*.py scripts carried; storage's full floor is re-based
#: (10x -> 5x, see storage_durability.SPEEDUP_FLOOR)
FLOORS = [
    ("joins", "speedup", 20.0, 20.0),
    ("retrieval", "speedup", 50.0, 5.0),
    ("storage", "speedup", 5.0, 2.0),
    ("concurrency", "read_heavy.speedup", 3.0, 1.5),
    ("faults", "retry_litmus.throughput_ratio", 0.5, 0.5),
    ("ablations", "index_scan.speedup", 5.01, 5.01),
] + [
    ("query", f"{name}.speedup", full, smoke)
    for name, (full, smoke, _) in QUERY_FLOORS.items()
]


@pytest.mark.parametrize("name,field,full,smoke_floor", FLOORS)
@pytest.mark.parametrize("smoke", [False, True])
def test_floor_is_exactly_the_recorded_one(good, name, field, full, smoke_floor, smoke):
    floor = smoke_floor if smoke else full
    result = good(name)
    put(result, field, floor)
    assert EXPERIMENTS[name].check(result, smoke) == []
    put(result, field, floor * 0.99)
    (failure,) = EXPERIMENTS[name].check(result, smoke)
    assert f"is not >= {floor:.4g}" in failure or "is not > 5" in failure


@pytest.mark.parametrize("smoke,factor", [(False, 10.0), (True, 3.0)])
def test_after_write_ceiling_is_a_share_of_the_cold_call(good, smoke, factor):
    result = good("retrieval")
    result["cold_ms"] = 300.0
    result["after_write_ms"] = 300.0 / factor
    assert EXPERIMENTS["retrieval"].check(result, smoke) == []
    result["after_write_ms"] = 300.0 / factor * 1.01
    (failure,) = EXPERIMENTS["retrieval"].check(result, smoke)
    assert f"is not <= {300.0 / factor:.4g}" in failure


@pytest.mark.parametrize("name", list(QUERY_FLOORS))
def test_query_floors_at_a_million_rows(good, name):
    result = good("query")
    result["rows"] = 1_000_000
    floor = QUERY_FLOORS[name][2]
    put(result, f"{name}.speedup", floor)
    assert EXPERIMENTS["query"].check(result, False) == []
    put(result, f"{name}.speedup", floor * 0.99)
    (failure,) = EXPERIMENTS["query"].check(result, False)
    assert failure.startswith(f"{name} speedup")


@pytest.mark.parametrize(
    "name,field,words",
    [
        ("faults", "seam.passthrough_overhead_pct", "passthrough seam overhead % (best"),
        ("obs", "overhead.dark_overhead_pct", "dark-mode overhead % (best of 1) 5.01"),
        ("ablations", "verification_overhead", "verification overhead 1 is not < 1"),
    ],
)
def test_ceilings(good, name, field, words):
    ceiling = 0.99 if name == "ablations" else 5.0
    result = good(name)
    put(result, field, ceiling)
    assert EXPERIMENTS[name].check(result, True) == []
    put(result, field, ceiling + 0.01)
    (failure,) = EXPERIMENTS[name].check(result, False)
    assert words in failure


# ------------------------------------------------------------------ the CLI


def _swap(monkeypatch, name, **changes):
    """Replace fields of one table row. A stubbed ``run`` must hand out a
    result made beforehand: ``good`` itself runs what the table names."""
    monkeypatch.setitem(EXPERIMENTS, name, replace(EXPERIMENTS[name], **changes))


def test_main_exits_0_when_the_gate_holds_and_1_when_it_does_not(
    monkeypatch, capsys, good
):
    fine, bad = good("joins"), good("joins")
    _swap(monkeypatch, "joins", run=lambda **sizes: fine)
    assert main(["joins", "--smoke"]) == 0
    assert "OK joins" in capsys.readouterr().out

    bad["speedup"] = 19.9
    _swap(monkeypatch, "joins", run=lambda **sizes: bad)
    assert main(["joins", "--smoke"]) == 1
    out = capsys.readouterr().out
    assert "Join scale" in out  # the report is printed either way
    assert "FAIL joins: speedup 19.9 is not >= 20" in out


def test_sizes_come_from_the_table_and_the_seven_options(monkeypatch, good):
    seen = []

    def spy(name):
        result = good(name)

        def run(**sizes):
            seen.append(sizes)
            return result
        return run

    for name in ("query", "storage", "fig5a", "table2"):
        _swap(monkeypatch, name, run=spy(name))
    main(["query"])
    main(["query", "--smoke"])
    main(["query", "--rows", "1234"])
    main(["storage", "--smoke", "--rows", "7", "--tasks", "3"])  # not storage's options
    main(["fig5a", "--smoke"])
    main(["fig5a", "--tasks", "3", "--scale", "0.25", "--model", "gpt-4o"])
    main(["table2", "--housing-rows", "300"])
    assert seen == [
        {"rows": 100_000},
        {"rows": 10_000},
        {"rows": 1234},
        {"rows": 10_000},
        {"n_tasks": 25, "scale": 0.5},
        {"n_tasks": 3, "scale": 0.25, "models": ["gpt-4o"]},
        {"per_level": 10, "housing_rows": 300},
    ]


def test_a_run_without_out_writes_no_file(tmp_path, monkeypatch, good):
    monkeypatch.chdir(tmp_path)
    result = good("storage")
    _swap(monkeypatch, "storage", run=lambda **sizes: result)
    assert main(["storage", "--smoke"]) == 0
    assert os.listdir(tmp_path) == []


def test_out_appends_one_entry_per_run(tmp_path, monkeypatch, good, capsys):
    out = tmp_path / "history.json"
    for name in ("storage", "table2"):  # table2's cells are keyed by tuples
        _swap(monkeypatch, name, run=lambda result=good(name), **sizes: result)
        assert main([name, "--smoke", "--out", str(out)]) == 0
    document = json.loads(out.read_text())
    first, second = document["history"]
    assert (first["experiment"], first["smoke"], first["passed"]) == (
        "storage", True, True
    )
    assert first["failures"] == [] and first["rows"] == 2_000
    assert second["experiment"] == "table2"
    assert "gpt-4o/bridgescope" in second["cells"]
    assert document["latest"] == second
    assert os.listdir(tmp_path) == ["history.json"]


def test_out_is_refused_for_all(tmp_path, capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["all", "--smoke", "--out", str(tmp_path / "x.json")])
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
    assert main(["all", "--smoke"]) == 0
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
