"""Routing: a server's visible tools are exactly its registered ones.

``ToolServer.has_tool`` and ``spec`` are lookups in the server's tool
table, so every way of changing that table (``register``, ``unregister``,
``rename_tools``) must leave the listing, the lookups and the calls in
agreement. PG-MCP− is PG-MCP with ``get_schema`` unregistered: it lists,
finds and runs ``execute_sql`` only, and renders its tool list as before.
"""

import pytest

from repro.baselines import PGMCP, PGMCPMinus
from repro.core import MinidbBinding
from repro.mcp import ToolNotFoundError, ToolRegistry, ToolServer, ToolSpec, tool
from repro.minidb import Database

EXECUTE_SQL_JSON = """{
 "name": "execute_sql",
 "description": "Execute any SQL statement and return its result.",
 "inputSchema": {
  "type": "object",
  "properties": {
   "sql": {
    "type": "string",
    "description": "the SQL statement to execute"
   }
  },
  "required": [
   "sql"
  ]
 },
 "annotations": {}
}"""

GET_SCHEMA_JSON = """{
 "name": "get_schema",
 "description": "Return the full database schema.",
 "inputSchema": {
  "type": "object",
  "properties": {},
  "required": []
 },
 "annotations": {}
}"""


@pytest.fixture
def binding():
    db = Database()
    db.connect("admin").execute("CREATE TABLE t (id INT PRIMARY KEY, name TEXT)")
    return MinidbBinding.for_user(db, "admin")


def assert_consistent(server: ToolServer) -> None:
    names = [spec.name for spec in server.visible_tools()]
    for name in names:
        assert server.has_tool(name)
        assert server.spec(name).name == name
    assert sorted(names) == sorted(server._tools)


class TestPGMCPMinus:
    def test_lists_only_execute_sql(self, binding):
        server = PGMCPMinus(binding)
        assert [spec.name for spec in server.visible_tools()] == ["execute_sql"]
        assert not server.has_tool("get_schema")
        assert_consistent(server)

    def test_get_schema_is_not_found(self, binding):
        server = PGMCPMinus(binding)
        with pytest.raises(ToolNotFoundError):
            server.spec("get_schema")
        for result in (
            server.invoke("get_schema"),
            ToolRegistry([server]).invoke("get_schema"),
        ):
            assert result.is_error
            assert result.error_code == "ToolNotFoundError"
        assert not server.invoke("execute_sql", sql="SELECT id FROM t").is_error

    def test_pg_mcp_keeps_both(self, binding):
        server = PGMCP(binding)
        assert [spec.name for spec in server.visible_tools()] == [
            "execute_sql", "get_schema",
        ]
        assert not server.invoke("get_schema").is_error

    def test_tool_lists_render_as_before(self, binding):
        assert PGMCP(binding).render_tool_list() == (
            EXECUTE_SQL_JSON + "\n" + GET_SCHEMA_JSON
        )
        assert PGMCPMinus(binding).render_tool_list() == EXECUTE_SQL_JSON


class Pair(ToolServer):
    name = "pair"

    @tool(description="first", params=[])
    def first(self):
        return "1"

    @tool(description="second", params=[])
    def second(self):
        return "2"


class TestTableChanges:
    def test_rename_tools(self):
        server = Pair()
        server.rename_tools(lambda name: f"ns__{name}")
        assert_consistent(server)
        assert not server.has_tool("first")
        with pytest.raises(ToolNotFoundError) as missing:
            server.spec("first")
        assert "(available: ns__first, ns__second)" in missing.value.message
        assert server.invoke("ns__second").content == "2"
        assert ToolRegistry([server]).owner_of("ns__first") is server

    def test_unregister(self):
        server = Pair()
        server.unregister("first")
        server.unregister("never_there")
        assert_consistent(server)
        assert not server.has_tool("first")
        assert server.invoke("first").error_code == "ToolNotFoundError"
        assert not ToolRegistry([server]).has_tool("first")

    def test_register_after_rename(self):
        server = Pair()
        server.rename_tools(lambda name: name.upper())
        server.register(ToolSpec("third", "third", []), lambda: "3")
        assert_consistent(server)
        assert [spec.name for spec in server.visible_tools()] == [
            "FIRST", "SECOND", "third",
        ]
        assert ToolRegistry([server]).invoke("third").content == "3"
