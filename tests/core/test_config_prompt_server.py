"""Tests for SecurityPolicy, BridgeScopeConfig, prompt, and server assembly."""

import pytest

from repro.core import (
    BRIDGESCOPE_PROMPT,
    BridgeScope,
    BridgeScopeConfig,
    MinidbBinding,
    SecurityPolicy,
    build_prompt,
)
from repro.minidb import Database


class TestSecurityPolicy:
    def test_permissive_allows_everything(self):
        policy = SecurityPolicy.permissive()
        assert policy.permits_object("anything")
        assert policy.permits_action("DROP")

    def test_read_only_preset(self):
        policy = SecurityPolicy.read_only()
        assert policy.permits_action("SELECT")
        for action in ("INSERT", "UPDATE", "DELETE", "DROP", "CREATE", "ALTER"):
            assert not policy.permits_action(action)

    def test_no_ddl_preset(self):
        policy = SecurityPolicy.no_ddl()
        assert policy.permits_action("SELECT")
        assert policy.permits_action("DELETE")
        assert not policy.permits_action("DROP")

    def test_object_blacklist_case_insensitive(self):
        policy = SecurityPolicy(object_blacklist=frozenset({"Salaries"}))
        assert not policy.permits_object("SALARIES")
        assert not policy.permits_object("salaries")

    def test_whitelist_and_blacklist_compose(self):
        policy = SecurityPolicy(
            object_whitelist=frozenset({"a", "b"}),
            object_blacklist=frozenset({"b"}),
        )
        assert policy.permits_object("a")
        assert not policy.permits_object("b")
        assert not policy.permits_object("c")

    def test_action_whitelist_uppercased(self):
        policy = SecurityPolicy(action_whitelist=frozenset({"select"}))
        assert policy.permits_action("SELECT")
        assert not policy.permits_action("INSERT")


class TestConfigDefaults:
    def test_defaults(self):
        config = BridgeScopeConfig()
        assert config.schema_detail_threshold == 20
        assert config.exemplar_top_k == 5
        assert config.max_result_rows == 50

    def test_policy_default_is_permissive(self):
        assert BridgeScopeConfig().policy.permits_action("DROP")


class TestPrompt:
    def test_prompt_covers_all_rules(self):
        for keyword in ("get_schema", "get_value", "begin()", "proxy", "abort"):
            assert keyword in BRIDGESCOPE_PROMPT

    def test_build_prompt_lists_tools_sorted(self):
        prompt = build_prompt(["select", "begin", "proxy"])
        assert "begin, proxy, select" in prompt

    def test_prompt_deterministic(self):
        assert build_prompt(["a"]) == build_prompt(["a"])


class TestServerAssembly:
    @pytest.fixture
    def db(self):
        database = Database(owner="admin")
        session = database.connect("admin")
        session.execute("CREATE TABLE t (a INT)")
        database.create_user("reader")
        session.execute("GRANT SELECT ON t TO reader")
        return database

    def test_system_prompt_mentions_exposed_tools(self, db):
        bridge = BridgeScope(MinidbBinding.for_user(db, "reader"))
        prompt = bridge.system_prompt()
        assert "select" in prompt
        assert "get_schema" in prompt

    def test_tool_names_unique(self, db):
        bridge = BridgeScope(MinidbBinding.for_user(db, "admin"))
        names = bridge.tool_names()
        assert len(names) == len(set(names))

    def test_render_tool_list_nonempty(self, db):
        bridge = BridgeScope(MinidbBinding.for_user(db, "admin"))
        assert "get_schema" in bridge.render_tool_list()

    def test_extra_server_tools_reachable_via_proxy(self, db):
        from repro.mcp import ParamSpec, ToolServer, tool

        class Doubler(ToolServer):
            @tool(description="double", params=[ParamSpec("x", "any")])
            def double(self, x):
                return [v * 2 for v in x]

        bridge = BridgeScope(
            MinidbBinding.for_user(db, "admin"), extra_servers=[Doubler()]
        )
        db.connect("admin").execute("INSERT INTO t VALUES (1), (2)")
        result = bridge.invoke(
            "proxy",
            target_tool="double",
            tool_args={
                "x": {
                    "__tool__": "select",
                    "__args__": {"sql": "SELECT a FROM t"},
                    "__transform__": "lambda rows: [r[0] for r in rows]",
                }
            },
        )
        assert result.content == [2, 4]

    def test_verifier_shared_between_server_and_execution(self, db):
        bridge = BridgeScope(MinidbBinding.for_user(db, "admin"))
        bridge.invoke("select", sql="SELECT * FROM t")
        assert bridge.verifier.verified == 1
