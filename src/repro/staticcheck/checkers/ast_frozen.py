"""Rule ``ast-frozen``: every SQL AST node is a ``frozen=True`` dataclass.

:func:`repro.minidb.parser.parse` answers repeated text from a cache, so the
*same* statement object reaches the verifier, then the session that executes
it — and, through the dispatcher, two sessions on two threads at once. That
is only sound while nobody can change a node after the parser built it. A
``@dataclass`` in ``minidb/ast_nodes.py`` that does not declare
``frozen=True`` reopens the hole silently (assignment to its fields would
succeed and be seen by every other holder of the statement), so each one is
a finding.
"""

from __future__ import annotations

import ast
from typing import Iterator

from ..core import Checker, Finding, ModuleSource, register

AST_NODES_PATH = "src/repro/minidb/ast_nodes.py"


def _is_dataclass_decorator(node: ast.expr) -> bool:
    target = node.func if isinstance(node, ast.Call) else node
    name = (
        target.id
        if isinstance(target, ast.Name)
        else target.attr if isinstance(target, ast.Attribute) else None
    )
    return name == "dataclass"


def _declares_frozen(node: ast.expr) -> bool:
    return isinstance(node, ast.Call) and any(
        keyword.arg == "frozen"
        and isinstance(keyword.value, ast.Constant)
        and keyword.value.value is True
        for keyword in node.keywords
    )


@register
class AstFrozenChecker(Checker):
    name = "ast-frozen"
    description = (
        "every @dataclass in minidb/ast_nodes.py declares frozen=True — "
        "parsed statements are shared between callers through parse()'s cache"
    )

    def check(self, module: ModuleSource) -> Iterator[Finding]:
        if module.rel_path != AST_NODES_PATH:
            return
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.ClassDef):
                continue
            for decorator in node.decorator_list:
                if _is_dataclass_decorator(decorator) and not _declares_frozen(
                    decorator
                ):
                    yield module.finding(
                        self.name,
                        node,
                        f"AST node {node.name} is a dataclass without "
                        "frozen=True — parse() shares one statement object "
                        "between callers, so its nodes must be immutable",
                    )
