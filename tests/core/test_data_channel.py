"""The proxy's data channel: one wire form for every caller but the proxy.

A SELECT result travels the proxy's data channel as its column lists
(:class:`repro.mcp.Columns`); rows are built only where a result leaves a
tool for a caller that is not the proxy. This file is that change's oracle:

* **Wire vs native.** Every ``analytic_proxy`` select text and proxy unit,
  the ``test_proxy.py`` units and the 30 NL2ML pipelines are called
  directly and through the proxy. Each record is ``ToolResult.render()``
  plus the ``repr`` of ``content`` and ``metadata`` (rows, columns, model
  payloads). The direct call and the proxy route must agree, and the
  digest of each corpus's records is pinned at its value from before the
  change, when every result was a list of row tuples.
* **Matrices.** ``as_matrix``, ``feature_matrix`` and the trend series give
  the same bits, or the same error class and message, for column-backed
  input as for its rows (Hypothesis draws with None, NaN, ±0.0, bools,
  ints among floats, strings, one column and zero rows).
* **Mechanism.** ``Columns.wire`` is the one place a column value becomes
  rows: a proxied pipeline calls it 0 times, a direct ``select`` once.
* **Array readers.** ``predict`` and ``trend_analyze`` behind the proxy
  give the results and errors of the list path.
"""

from __future__ import annotations

import hashlib
import math
import sys
from pathlib import Path
from typing import Any

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.bench.datasets import build_housing_database
from repro.bench.nl2ml import generate_nl2ml_tasks
from repro.bench.tasks import PipelineNode
from repro.core import BridgeScope, MinidbBinding, compile_transform
from repro.mcp import Columns, ParamSpec, ToolCall, ToolResult, ToolServer, tool
from repro.mltools import MLToolServer
from repro.mltools.preprocessing import as_matrix, feature_matrix
from repro.mltools.trend import trend_analyze

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT / "benchmarks" / "e2e"))
from e2ebench import spec  # noqa: E402
from e2ebench.workloads import WORKLOADS  # noqa: E402

#: sha256 over each corpus's records, taken before results stayed columns
PINNED = {
    "analytic_selects": "cf9154ed0857eff20992d1951bb3e067dddd87a27b280f18097e9854aa3097fe",
    "analytic_units": "e4c6fcfe09b4961b9d9a2c55d0b65c5239c62aa5f1d8d100b6924d658acc8ccc",
    "proxy_units": "8dede204dfd96daa87ab95ed8efafac385ff2233502b5c0448d3c791fe551da1",
    "nl2ml": "dbdd6bf8788c91f4cc10d8cfef344af216cae2e52bdc78589dc4508a509660da",
}


def record(result: ToolResult) -> str:
    """What a caller can observe of one result."""
    return repr(
        (result.is_error, result.error_code, result.render(), result.content, result.metadata)
    )


def digest(records: list[str]) -> str:
    return hashlib.sha256("\n".join(records).encode()).hexdigest()


def payload(result: ToolResult) -> Any:
    """What the proxy hands downstream (``ProxyTool._payload_of``)."""
    if "payload" in result.metadata:
        return result.metadata["payload"]
    if "rows" in result.metadata:
        return result.metadata["rows"]
    return result.content


class SinkServer(ToolServer):
    """Keeps what it receives: ``any``-typed and ``array``-typed inputs."""

    name = "sink"

    def __init__(self):
        super().__init__()
        self.received: list[Any] = []

    @tool(description="consume anything", params=[ParamSpec("data", "any")])
    def consume(self, data):
        self.received.append(data)
        return {"n": len(data)}

    @tool(description="consume an array", params=[ParamSpec("data", "array")])
    def consume_array(self, data):
        self.received.append(data)
        return {"n": len(data)}

    @tool(
        description="combine two inputs",
        params=[ParamSpec("left", "any"), ParamSpec("right", "any")],
    )
    def combine(self, left, right):
        self.received.append((left, right))
        return {"left_n": len(left), "right_n": len(right)}


def producer(sql: str, transform: str | None = None) -> dict[str, Any]:
    spec_ = {"__tool__": "select", "__args__": {"sql": sql}}
    if transform is not None:
        spec_["__transform__"] = transform
    return spec_


def proxy(bridge: BridgeScope, target: str, **tool_args: Any) -> ToolResult:
    return bridge.call(ToolCall("proxy", {"target_tool": target, "tool_args": tool_args}))


# ------------------------------------------------------------ the corpora


@pytest.fixture(scope="module")
def analytic(tmp_path_factory):
    """The ``analytic_proxy`` workload at its smoke size, seed 1: its
    toolkit (plus a sink) and every distinct scripted step."""
    workload = WORKLOADS["analytic_proxy"](
        1, spec.SMOKE["analytic_proxy"], str(tmp_path_factory.mktemp("analytic"))
    )
    workload.build()
    bridge = workload.bridges[0]
    sink = SinkServer()
    bridge.registry.add_server(sink)
    steps: dict[str, Any] = {}
    for episode in workload.script(0):
        for step in episode.steps:
            steps.setdefault(repr((step.call.tool, step.call.args)), step)
    yield bridge, sink, [steps[key] for key in sorted(steps)]
    workload.close()


def test_analytic_selects_keep_their_pinned_records(analytic):
    bridge, _, steps = analytic
    records = []
    for step in steps:
        if step.call.tool != "select":
            continue
        result = bridge.call(step.call)
        assert not result.is_error, result.content
        assert step.check is None or step.check(result), step.call.args
        rows = result.metadata["rows"]
        assert type(rows) is list and all(type(row) is tuple for row in rows)
        records.append(record(result))
    assert len(records) == 33
    assert digest(records) == PINNED["analytic_selects"]


def test_analytic_select_reaches_any_consumer_as_its_rows(analytic):
    """``any`` parameters and transforms get the wire form; an identity
    transform passes the value on unchanged."""
    bridge, sink, steps = analytic
    for step in steps:
        if step.call.tool != "select":
            continue
        rows = bridge.call(step.call).metadata["rows"]
        sql = step.call.args["sql"]
        for transform in (None, "", "lambda x: x", "lambda rows: rows"):
            result = proxy(bridge, "consume", data=producer(sql, transform))
            assert result.content == {"n": len(rows)}, (sql, transform)
            assert repr(sink.received[-1]) == repr(rows), (sql, transform)
        result = proxy(bridge, "consume", data=producer(sql, "lambda x: x + [(0,)]"))
        assert not result.is_error, result.content
        assert repr(sink.received[-1]) == repr(rows + [(0,)])
        proxy(bridge, "combine", left=producer(sql), right=[producer(sql), producer(sql)])
        left, right = sink.received[-1]
        assert repr(left) == repr(rows) and repr(right) == repr([rows, rows])


def test_analytic_units_keep_their_pinned_records(analytic):
    """Each proxied pipeline equals the same tools called one after
    another on the direct results, bit for bit."""
    bridge, _, steps = analytic
    records = []
    for step in steps:
        if step.call.tool != "proxy":
            continue
        result = bridge.call(step.call)
        assert not result.is_error, result.content
        assert step.check(result), step.call.args
        records.append(record(result))
        assert record(result) == record(_direct(bridge, step.call.args))
    assert len(records) == 20
    assert digest(records) == PINNED["analytic_units"]


def _direct(bridge: BridgeScope, args: dict[str, Any]) -> ToolResult:
    """A proxy call's pipeline run as direct calls, producers first."""

    def resolve(value: Any) -> Any:
        if isinstance(value, dict) and "__tool__" in value:
            inner = {key: resolve(v) for key, v in value.get("__args__", {}).items()}
            produced = payload(bridge.call(ToolCall(value["__tool__"], inner)))
            return compile_transform(value.get("__transform__", ""))(produced)
        if isinstance(value, list) and value and all(
            isinstance(v, dict) and "__tool__" in v for v in value
        ):
            return [resolve(v) for v in value]
        return value

    resolved = {key: resolve(value) for key, value in args["tool_args"].items()}
    return bridge.call(ToolCall(args["target_tool"], resolved))


#: the proxy calls of ``tests/core/test_proxy.py``, on its retail database
PROXY_UNITS = [
    ("consume", {"data": producer("SELECT amount FROM sales")}),
    ("consume", {"data": [1, 2, 3, 4]}),
    ("combine", {"left": producer("SELECT amount FROM sales"),
                 "right": producer("SELECT price FROM items")}),
    ("consume", {"data": [producer("SELECT amount FROM sales"),
                          producer("SELECT price FROM items")]}),
    ("consume", {"data": producer("SELECT amount FROM sales",
                                  "lambda rows: [r[0] for r in rows]")}),
    ("ghost", {}),
    ("consume", {"data": {"__tool__": "ghost", "__args__": {}}}),
    ("consume", {"data": producer("SELECT nope FROM sales")}),
    ("consume", {}),
    ("consume", {"data": producer("SELECT * FROM salaries")}),
    ("consume", {"data": {
        "__tool__": "consume",
        "__args__": {"data": producer("SELECT amount FROM sales")},
        "__transform__": "lambda out: [out['n']] * out['n']",
    }}),
    ("train_linear", {"data": {
        "__tool__": "zscore_normalize",
        "__args__": {"data": producer(
            "SELECT amount, price FROM sales s JOIN items i ON s.item_id = i.item_id"
        )},
    }}),
    ("consume_array", {"data": producer("SELECT amount, region FROM sales")}),
    ("zscore_normalize", {"data": producer("SELECT amount, region FROM sales")}),
    ("minmax_normalize", {"data": producer("SELECT order_id, amount FROM sales")}),
]


def test_proxy_units_keep_their_pinned_records(db):
    sink = SinkServer()
    bridge = BridgeScope(MinidbBinding.for_user(db, "manager"), extra_servers=[sink, MLToolServer()])
    records = []
    for target, tool_args in PROXY_UNITS:
        result = proxy(bridge, target, **tool_args)
        received = sink.received[-1] if sink.received else None
        if isinstance(received, Columns):  # an array parameter's native input
            received = received.wire()
        records.append(record(result) + repr(received))
        if not result.is_error and target != "consume_array":
            assert record(result) == record(_direct(bridge, {
                "target_tool": target, "tool_args": tool_args
            })), target
    assert digest(records) == PINNED["proxy_units"]


def _proxy_spec(args: dict[str, Any]) -> dict[str, Any]:
    """The policy's translation of a pipeline plan into proxy arguments."""
    return {
        key: {
            "__tool__": value.tool,
            "__args__": _proxy_spec(value.args),
            "__transform__": "lambda x: x",
        } if isinstance(value, PipelineNode) else value
        for key, value in args.items()
    }


def test_nl2ml_pipelines_keep_their_pinned_records():
    db = build_housing_database(seed=0, rows=600)
    bridge = BridgeScope(MinidbBinding.for_user(db, "admin"), extra_servers=[MLToolServer()])
    records = []
    for task in generate_nl2ml_tasks(seed=0):
        args = {"target_tool": task.plan.tool, "tool_args": _proxy_spec(task.plan.args)}
        result = bridge.call(ToolCall("proxy", args))
        assert not result.is_error, (task.task_id, result.content)
        assert record(result) == record(_direct(bridge, args)), task.task_id
        records.append(record(result))
    assert len(records) == 30
    assert digest(records) == PINNED["nl2ml"]


# -------------------------------------------------------------- matrices

_CELLS = st.one_of(
    st.none(),
    st.just(math.nan),
    st.sampled_from([0.0, -0.0, 1.5, -2.25, 1e300]),
    st.booleans(),
    st.integers(-(10**20), 10**20),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from(["1.5", "-0", "1e3", "nan", "a", "", "x1"]),
)


def _outcome(fn, value) -> tuple:
    try:
        found = fn(value)
    except Exception as error:  # noqa: BLE001 - class and message are compared
        return ("error", type(error), str(error))
    if isinstance(found, np.ndarray):
        return ("matrix", found.shape, found.dtype, found.flags.c_contiguous, found.tobytes())
    return ("value", repr(found))


def _table(draw, width: int, n: int) -> list[list]:
    return [draw(st.lists(_CELLS, min_size=n, max_size=n)) for _ in range(width)]


def _series(value):
    return trend_analyze(value, [[1.0], [2.0]])


@settings(max_examples=300)
@given(width=st.integers(1, 4), n=st.integers(0, 6), data=st.data())
@example(width=2, n=2, data=None)  # 'a' at (1, 0) and 'b' at (0, 1)
def test_column_input_gives_the_rows_bits_and_errors(width, n, data):
    if data is None:
        columns = [[1.0, "a"], ["b", 2.0]]
    else:
        columns = _table(data.draw, width, n)
    rows = list(zip(*columns))
    value = Columns(columns, len(rows))
    for fn in (as_matrix, lambda v: feature_matrix(v, width), _series):
        assert _outcome(fn, value) == _outcome(fn, rows), (fn, columns)


def test_zero_rows_and_zero_columns():
    assert _outcome(as_matrix, Columns([[], []], 0)) == _outcome(as_matrix, [])
    assert _outcome(as_matrix, Columns([], 3)) == _outcome(as_matrix, [(), (), ()])
    assert _outcome(_series, Columns([[], []], 0)) == _outcome(_series, [])
    assert _outcome(lambda v: feature_matrix(v, 2), Columns([[], []], 0)) == _outcome(
        lambda v: feature_matrix(v, 2), []
    )
    assert Columns([], 2).wire() == [(), ()]
    assert Columns([], 2, list).wire() == [[], []]


def test_wire_form_equals_the_row_lists():
    columns = [[1, None, 2.5], ["a", "b", "c"]]
    assert Columns(columns, 3).wire() == list(zip(*columns))
    assert all(type(row) is tuple for row in Columns(columns, 3).wire())
    matrix = np.array([[1.0, -0.0], [2.5, 3.0]])
    lists = Columns(matrix.T.tolist(), 2, list).wire()
    assert repr(lists) == repr(matrix.tolist()) and all(type(r) is list for r in lists)
    assert Columns(columns, 3).head(2) == list(zip(*columns))[:2]


# -------------------------------------------------------------- mechanism


@pytest.fixture
def wire_calls(monkeypatch):
    """Counts calls to the one wire function."""
    calls = []
    original = Columns.wire

    def counted(self):
        calls.append(len(self))
        return original(self)

    monkeypatch.setattr(Columns, "wire", counted)
    return calls


def test_proxied_pipelines_build_no_rows(analytic, wire_calls):
    bridge, _, _ = analytic
    sql = "SELECT dwell_s, price, rating, score FROM signals WHERE day >= 30"
    normalised = {"__tool__": "zscore_normalize", "__args__": {"data": producer(sql)}}
    assert not proxy(bridge, "train_linear", data=normalised).is_error
    assert not proxy(bridge, "train_linear", data=producer(sql, "lambda x: x")).is_error
    assert wire_calls == []
    result = bridge.call(ToolCall("select", {"sql": sql}))
    assert len(wire_calls) == 1
    rows = result.metadata["rows"]
    assert type(rows) is list and rows and all(type(row) is tuple for row in rows)
    direct = bridge.call(ToolCall("zscore_normalize", {"data": rows}))
    assert type(direct.content) is list and all(type(row) is list for row in direct.content)


def test_values_routed_counts_rows(analytic):
    bridge, _, _ = analytic
    sql = "SELECT dwell_s, price, rating, score FROM signals WHERE day >= 30"
    count = bridge.call(ToolCall("select", {"sql": sql})).metadata["rowcount"]
    before = bridge.proxy.stats.values_routed
    normalised = {"__tool__": "zscore_normalize", "__args__": {"data": producer(sql)}}
    proxy(bridge, "train_linear", data=normalised)
    assert bridge.proxy.stats.values_routed - before == 2 * count


def test_only_array_parameters_receive_columns(analytic):
    bridge, sink, _ = analytic
    sql = "SELECT signal_id, kind FROM signals WHERE day < 5"
    proxy(bridge, "consume_array", data=producer(sql))
    native = sink.received[-1]
    proxy(bridge, "consume", data=producer(sql))
    assert isinstance(native, Columns) and type(sink.received[-1]) is list
    assert native.wire() == sink.received[-1]
    direct = bridge.call(ToolCall("consume_array", {"data": [(1, "a")]}))
    assert direct.content == {"n": 1} and sink.received[-1] == [(1, "a")]


# ---------------------------------------------------------- array readers


@pytest.fixture(scope="module")
def housing():
    db = build_housing_database(seed=0, rows=300)
    return BridgeScope(MinidbBinding.for_user(db, "admin"), extra_servers=[MLToolServer()])


_FEATURES = "SELECT total_rooms, households, median_income FROM house"


@pytest.mark.parametrize(
    "features",
    [
        _FEATURES + " WHERE housing_median_age < 10",
        _FEATURES + " WHERE housing_median_age < 0",  # zero rows
        "SELECT total_rooms, households FROM house",  # wrong width
        "SELECT total_rooms, households, ocean_proximity FROM house LIMIT 3",  # text
        "SELECT total_rooms, households, NULL FROM house LIMIT 3",  # None
    ],
)
@pytest.mark.parametrize("trainer", ["train_linear", "train_forest"])
def test_predict_behind_the_proxy_equals_the_list_path(housing, features, trainer):
    train = {"data": producer(_FEATURES.replace("FROM", ", median_house_value FROM"))}
    model = proxy(housing, trainer, **train).metadata["payload"]
    proxied = proxy(housing, "predict", model=model, features=producer(features))
    rows = housing.call(ToolCall("select", {"sql": features}))
    if rows.is_error:  # the select itself fails: both routes report it
        assert proxied.is_error and rows.content in proxied.content
        return
    direct = housing.call(ToolCall("predict", {"model": model, "features": rows.metadata["rows"]}))
    if direct.is_error:
        assert proxied.is_error and proxied.error_code == "ToolError"
        assert proxied.content == f"proxy consumer predict failed: {direct.content}"
    else:
        assert record(proxied) == record(direct)


@pytest.mark.parametrize(
    "sales, refunds",
    [
        ("SELECT median_income FROM house", "SELECT households / 1000.0 FROM house"),
        ("SELECT median_income FROM house WHERE households < 0", "SELECT 1.0"),  # empty
        ("SELECT median_income, households FROM house", "SELECT 1.0"),  # two columns
        ("SELECT ocean_proximity FROM house LIMIT 3", "SELECT 1.0"),
        ("SELECT NULL FROM house LIMIT 3", "SELECT 1.0"),
    ],
)
def test_trend_analyze_behind_the_proxy_equals_the_list_path(housing, sales, refunds):
    proxied = proxy(housing, "trend_analyze", sales=producer(sales), refunds=producer(refunds))
    direct = _direct(housing, {"target_tool": "trend_analyze", "tool_args": {
        "sales": producer(sales), "refunds": producer(refunds),
    }})
    if direct.is_error:
        assert proxied.content == f"proxy consumer trend_analyze failed: {direct.content}"
    else:
        assert record(proxied) == record(direct)


def test_two_column_series_still_refused(housing):
    result = proxy(
        housing, "trend_analyze",
        sales=producer("SELECT median_income, households FROM house"),
        refunds=producer("SELECT households FROM house"),
    )
    assert result.is_error
    assert "trend series rows must have exactly one column, got 2" in result.content
