"""Rule ``planner-seam``: planning decisions are taken in ``planner.py`` only.

A statement has one physical plan (:func:`repro.minidb.planner.plan_select`
/ ``plan_table_scan``): EXPLAIN renders it and the executor runs it. That
only stays true while nothing else re-derives a piece of it — the access
path, the join strategy, or the WHERE-conjunct bindings they are chosen
from. Before the plan value existed the access-path decision was written
out five times and the join decision twice, and the copies drifted (EXPLAIN
printed ``Nested Loop Join`` over a hash join that ran). The rule for which
source column a name means drifted the same way while the executor built
its own name maps beside the planner's, so the one
:class:`~repro.minidb.planner.NameResolver` is built by the planner and
stored on the plan nodes. Calls to the planning primitives — constructing
the resolver included — from any module under ``src/repro/`` other than
``minidb/planner.py`` are therefore findings: consume a plan node instead.

Tests may call the primitives directly — they pin the primitives' own
behaviour and live outside ``src/repro/``.
"""

from __future__ import annotations

import ast
from typing import Iterator

from ..core import Checker, Finding, ModuleSource, register

PLANNER_PATH = "src/repro/minidb/planner.py"

#: the primitives a plan is derived from; each has call sites in
#: ``planner.py`` only
PLANNING_PRIMITIVES = frozenset(
    {
        "choose_access_path",
        "plan_join",
        "harvest_conjuncts",
        "pushdown_filter",
        "NameResolver",
    }
)


@register
class PlannerSeamChecker(Checker):
    name = "planner-seam"
    description = (
        "access-path / join / binding planning primitives and the name "
        "resolver are called from minidb/planner.py only; everything else "
        "consumes the plan value"
    )

    def check(self, module: ModuleSource) -> Iterator[Finding]:
        if not module.rel_path.startswith("src/repro/"):
            return
        if module.rel_path == PLANNER_PATH:
            return
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = (
                func.id
                if isinstance(func, ast.Name)
                else func.attr if isinstance(func, ast.Attribute) else None
            )
            if name in PLANNING_PRIMITIVES:
                yield module.finding(
                    self.name,
                    node,
                    f"{name}() outside minidb/planner.py re-derives part of "
                    "the plan — take it from the SelectPlan / ScanPlan / "
                    "JoinPlan node plan_select() built",
                )
