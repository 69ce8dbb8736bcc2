"""Tests for F4: the proxy mechanism and transform safety."""

import pytest

from repro.core import (
    BridgeScope,
    BridgeScopeConfig,
    MinidbBinding,
    TransformError,
    compile_transform,
)
from repro.mcp import ParamSpec, ToolServer, tool
from repro.mltools import MLToolServer


class SinkServer(ToolServer):
    """Records what it receives, for asserting proxy routing."""

    name = "sink"

    def __init__(self):
        super().__init__()
        self.received = []

    @tool(description="consume data", params=[ParamSpec("data", "any")])
    def consume(self, data):
        self.received.append(data)
        return {"n": len(data) if hasattr(data, "__len__") else 1}

    @tool(
        description="combine two inputs",
        params=[ParamSpec("left", "any"), ParamSpec("right", "any")],
    )
    def combine(self, left, right):
        self.received.append((left, right))
        return {"left_n": len(left), "right_n": len(right)}


@pytest.fixture
def sink():
    return SinkServer()


@pytest.fixture
def bridge(db, sink):
    return BridgeScope(
        MinidbBinding.for_user(db, "manager"),
        extra_servers=[sink, MLToolServer()],
    )


def producer(sql, transform=""):
    spec = {"__tool__": "select", "__args__": {"sql": sql}}
    if transform:
        spec["__transform__"] = transform
    return spec


class TestProxyBasics:
    def test_routes_rows_to_consumer(self, bridge, sink):
        result = bridge.invoke(
            "proxy",
            target_tool="consume",
            tool_args={"data": producer("SELECT amount FROM sales")},
        )
        assert not result.is_error
        assert result.content == {"n": 3}
        assert sink.received[0] == [(30.0,), (160.0,), (60.0,)]

    def test_literal_args_pass_through(self, bridge, sink):
        bridge.invoke(
            "proxy", target_tool="consume", tool_args={"data": [1, 2, 3, 4]}
        )
        assert sink.received[0] == [1, 2, 3, 4]

    def test_multiple_producers(self, bridge, sink):
        result = bridge.invoke(
            "proxy",
            target_tool="combine",
            tool_args={
                "left": producer("SELECT amount FROM sales"),
                "right": producer("SELECT price FROM items"),
            },
        )
        assert result.content == {"left_n": 3, "right_n": 3}

    def test_producer_list_yields_list(self, bridge, sink):
        bridge.invoke(
            "proxy",
            target_tool="consume",
            tool_args={
                "data": [
                    producer("SELECT amount FROM sales"),
                    producer("SELECT price FROM items"),
                ]
            },
        )
        assert len(sink.received[0]) == 2

    def test_transform_applied(self, bridge, sink):
        bridge.invoke(
            "proxy",
            target_tool="consume",
            tool_args={
                "data": producer(
                    "SELECT amount FROM sales", "lambda rows: [r[0] for r in rows]"
                )
            },
        )
        assert sink.received[0] == [30.0, 160.0, 60.0]

    def test_unknown_target_tool(self, bridge):
        result = bridge.invoke("proxy", target_tool="ghost", tool_args={})
        assert result.is_error

    def test_unknown_producer_tool(self, bridge):
        result = bridge.invoke(
            "proxy",
            target_tool="consume",
            tool_args={"data": {"__tool__": "ghost", "__args__": {}}},
        )
        assert result.is_error

    def test_producer_failure_propagates(self, bridge):
        result = bridge.invoke(
            "proxy",
            target_tool="consume",
            tool_args={"data": producer("SELECT nope FROM sales")},
        )
        assert result.is_error
        assert "select" in result.content

    def test_consumer_failure_propagates(self, bridge):
        result = bridge.invoke(
            "proxy",
            target_tool="consume",
            tool_args={},  # missing required arg
        )
        assert result.is_error

    def test_security_applies_inside_proxy(self, bridge):
        result = bridge.invoke(
            "proxy",
            target_tool="consume",
            tool_args={"data": producer("SELECT * FROM salaries")},
        )
        assert result.is_error  # manager has no grant on salaries


class TestRecursiveUnits:
    def test_nested_units_execute_bottom_up(self, bridge, sink):
        nested = {
            "__tool__": "consume",
            "__args__": {"data": producer("SELECT amount FROM sales")},
            "__transform__": "lambda out: [out['n']] * out['n']",
        }
        result = bridge.invoke(
            "proxy", target_tool="consume", tool_args={"data": nested}
        )
        assert result.content == {"n": 3}
        assert sink.received == [[(30.0,), (160.0,), (60.0,)], [3, 3, 3]]

    def test_three_level_pipeline(self, bridge):
        # select -> zscore_normalize -> train_linear, all inside the proxy
        unit = {
            "__tool__": "zscore_normalize",
            "__args__": {"data": producer("SELECT amount, price FROM sales s JOIN items i ON s.item_id = i.item_id")},
        }
        result = bridge.invoke(
            "proxy", target_tool="train_linear", tool_args={"data": unit}
        )
        assert not result.is_error
        assert result.content["type"] == "linear"

    def test_depth_tracked(self, bridge):
        nested = {
            "__tool__": "consume",
            "__args__": {"data": producer("SELECT amount FROM sales")},
        }
        bridge.invoke("proxy", target_tool="consume", tool_args={"data": nested})
        assert bridge.proxy.stats.max_depth >= 2

    def test_stats_counters(self, bridge):
        bridge.invoke(
            "proxy",
            target_tool="consume",
            tool_args={"data": producer("SELECT amount FROM sales")},
        )
        stats = bridge.proxy.stats
        assert stats.units_executed == 1
        assert stats.producer_calls == 1
        assert stats.values_routed >= 3


class TestSiblingProducers:
    def test_siblings_resolve_one_after_another_in_argument_order(
        self, bridge, sink
    ):
        seen = []
        call = bridge.proxy.registry.call

        def recording_call(tool_call):
            seen.append(tool_call.args.get("sql", tool_call.tool))
            return call(tool_call)

        bridge.proxy.registry.call = recording_call
        result = bridge.invoke(
            "proxy",
            target_tool="combine",
            tool_args={
                "left": producer("SELECT amount FROM sales"),
                "right": producer("SELECT price FROM items"),
            },
        )
        assert not result.is_error, result.content
        assert seen == [
            "proxy", "SELECT amount FROM sales", "SELECT price FROM items",
            "combine",
        ]
        left, right = sink.received[-1]
        assert result.content["left_n"] == len(left) > 0
        assert result.content["right_n"] == len(right) > 0
        assert bridge.proxy.stats.producer_calls == 2


class TestTransforms:
    def test_identity_default(self):
        fn = compile_transform("")
        assert fn([1, 2]) == [1, 2]

    def test_lambda_basic(self):
        fn = compile_transform("lambda x: x * 2")
        assert fn(3) == 6

    def test_bare_expression_over_x(self):
        fn = compile_transform("x[0] + x[1]")
        assert fn([1, 2]) == 3

    def test_comprehension(self):
        fn = compile_transform("lambda rows: [r[0] for r in rows if r[0] > 1]")
        assert fn([(1,), (2,), (3,)]) == [2, 3]

    def test_dict_comprehension(self):
        fn = compile_transform("lambda rows: {r[0]: r[1] for r in rows}")
        assert fn([("a", 1)]) == {"a": 1}

    def test_builtins_whitelisted(self):
        fn = compile_transform("lambda x: sorted(set(x), reverse=True)")
        assert fn([3, 1, 3, 2]) == [3, 2, 1]

    def test_nested_lambda(self):
        fn = compile_transform("lambda xs: list(map(lambda v: v + 1, xs))")
        assert fn([1, 2]) == [2, 3]

    def test_string_methods(self):
        fn = compile_transform("lambda s: s.upper().strip()")
        assert fn(" hi ") == "HI"

    def test_conditional(self):
        fn = compile_transform("lambda x: 'big' if x > 10 else 'small'")
        assert fn(11) == "big"

    def test_multi_arg_lambda(self):
        fn = compile_transform("lambda a, b: a + b")
        assert fn(1, 2) == 3

    def test_wrong_arity_rejected(self):
        fn = compile_transform("lambda a, b: a + b")
        with pytest.raises(TransformError):
            fn(1)

    @pytest.mark.parametrize(
        "source",
        [
            "__import__('os')",
            "lambda x: x.__class__",
            "lambda x: open('/etc/passwd')",
            "lambda x: eval('1')",
            "lambda x: exec('pass')",
            "lambda x: getattr(x, 'foo')",
            "lambda x: x.denominator.bit_length()",  # non-whitelisted method
            "import os",
            "lambda x: (lambda: __builtins__)()",
        ],
    )
    def test_dangerous_constructs_rejected(self, source):
        with pytest.raises(TransformError):
            fn = compile_transform(source)
            fn(1)

    def test_syntax_error_rejected(self):
        with pytest.raises(TransformError):
            compile_transform("lambda x:")

    def test_runtime_error_wrapped(self):
        fn = compile_transform("lambda x: x[99]")
        with pytest.raises(TransformError):
            fn([1])

    def test_walrus_rejected(self):
        with pytest.raises(TransformError):
            compile_transform("(y := 1)")
