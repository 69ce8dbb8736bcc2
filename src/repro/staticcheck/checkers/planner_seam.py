"""Rule ``planner-seam``: planning decisions are taken in ``planner.py``
only, and which column a name means is decided in ``analysis.py`` only.

A statement has one physical plan (:func:`repro.minidb.planner.plan_select`
/ ``plan_table_scan``): EXPLAIN renders it and the executor runs it. That
only stays true while nothing else re-derives a piece of it — the access
path, the join strategy, or the WHERE-conjunct bindings they are chosen
from. Before the plan value existed the access-path decision was written
out five times and the join decision twice, and the copies drifted (EXPLAIN
printed ``Nested Loop Join`` over a hash join that ran). Calls to the
planning primitives from any module under ``src/repro/`` other than
``minidb/planner.py`` are therefore findings: consume a plan node instead.

A plan is built once per template and kept (the executor's prepared
plans), so building one anywhere else would run unkept and unkeyed.
Calling ``plan_select`` or ``plan_table_scan`` outside ``planner.py`` is a
finding except in the prepared-plan entry — ``Executor._plan`` (every
SELECT block that runs) and ``Executor._target_scan`` (UPDATE/DELETE
targets) — and in plain EXPLAIN (``Executor._exec_ExplainStatement``),
which renders a plan it never runs.

Kernels are compiled where a plan is made, in one function, so a
prepared plan and an unprepared one run the same code for a position:
``Executor._prepare`` builds the kernels of every plan the executor runs
(a prepared plan, a custom one, a statement no template holds, a
subquery's), and a ``compile_batch_expr`` call anywhere else under
``src/repro/`` is a finding.

A scan reads its heap in one place too: ``Executor._batches`` turns a
planned source into batches — the heap's one ``cut``, or the access
path's ``fetch_batch`` — and every scan, a SELECT's or an UPDATE/DELETE
target's, goes through it. A ``cut`` or ``fetch_batch`` call anywhere
else under ``src/repro/`` is a finding: a second reader of the heap would
hold its own copy and its own batching.

The rule for which source column a name means drifted the same way: the
privilege footprint, the planner and the per-row scope each read names on
their own, and a view body read its caller's columns. The binder in
``minidb/analysis.py`` resolves every name once, before any row, and
everything else reads its slots. Constructing the
:class:`~repro.minidb.analysis.NameResolver` anywhere else, or raising
``UnknownColumnError`` anywhere but there and in ``minidb/catalog.py``
(a named column of a known table), is a finding.

Privileges have one rule, the database's. The verifier's own walk of the
grants drifted from it (a column grant split in two passed one and failed
the other), so ``repro.core.verification`` asks for the database's verdict
(``DatabaseBinding.authorize``): a ``user_actions_on`` or
``user_column_restrictions`` call there is a finding.

Tests may call the primitives directly — they pin the primitives' own
behaviour and live outside ``src/repro/``.
"""

from __future__ import annotations

import ast
from typing import Iterator

from ..core import Checker, Finding, ModuleSource, register

PLANNER_PATH = "src/repro/minidb/planner.py"
BINDER_PATH = "src/repro/minidb/analysis.py"
CATALOG_PATH = "src/repro/minidb/catalog.py"
EXECUTOR_PATH = "src/repro/minidb/executor.py"

#: the primitives a plan is derived from; each has call sites in
#: ``planner.py`` only
PLANNING_PRIMITIVES = frozenset(
    {
        "choose_access_path",
        "plan_join",
        "harvest_conjuncts",
        "pushdown_filter",
    }
)


#: the plan builders, and the only functions outside ``planner.py`` that
#: may call them
PLAN_BUILDERS = frozenset({"plan_select", "plan_table_scan"})
PLAN_ENTRIES = frozenset(
    {
        (EXECUTOR_PATH, "Executor._plan"),
        (EXECUTOR_PATH, "Executor._target_scan"),
        (EXECUTOR_PATH, "Executor._exec_ExplainStatement"),
    }
)

#: the one function that compiles batch kernels, for every plan that runs
COMPILE_SITE = (EXECUTOR_PATH, "Executor._prepare")

#: the verifier asks for the database's verdict; it walks no grants
VERIFIER_PATH = "src/repro/core/verification.py"
GRANT_WALKS = frozenset({"user_actions_on", "user_column_restrictions"})

#: the heap reads of a scan, and the one function that makes them
SCAN_READS = frozenset({"cut", "fetch_batch"})
SCAN_SITE = (EXECUTOR_PATH, "Executor._batches")


def _called_name(node: ast.AST) -> str | None:
    if isinstance(node, ast.Call):
        node = node.func
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def _inside(module: ModuleSource, node: ast.AST, site: tuple[str, str]) -> bool:
    """Whether ``node`` lies in the function ``site`` names (its own
    body, or a function nested in it)."""
    path, qualname = site
    scope = module.qualname(node)
    return module.rel_path == path and (
        scope == qualname or scope.startswith(qualname + ".")
    )


@register
class PlannerSeamChecker(Checker):
    name = "planner-seam"
    description = (
        "access-path / join / binding planning primitives are called from "
        "minidb/planner.py only, plans are built in the prepared-plan entry "
        "and EXPLAIN only; kernels are compiled in Executor._prepare only; "
        "heaps are cut / fetched for a scan in Executor._batches only; "
        "names are resolved (NameResolver, "
        "UnknownColumnError) in minidb/analysis.py only; "
        "the verifier walks no grants"
    )

    def check(self, module: ModuleSource) -> Iterator[Finding]:
        path = module.rel_path
        if not path.startswith("src/repro/"):
            return
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Call):
                name = _called_name(node)
                if name in PLANNING_PRIMITIVES and path != PLANNER_PATH:
                    yield module.finding(
                        self.name,
                        node,
                        f"{name}() outside minidb/planner.py re-derives part of "
                        "the plan — take it from the SelectPlan / ScanPlan / "
                        "JoinPlan node plan_select() built",
                    )
                elif (
                    name in PLAN_BUILDERS
                    and path != PLANNER_PATH
                    and (path, module.qualname(node)) not in PLAN_ENTRIES
                ):
                    yield module.finding(
                        self.name,
                        node,
                        f"{name}() outside the prepared-plan entry builds a "
                        "plan that is neither kept nor keyed — plan through "
                        "Executor._plan / Executor._target_scan",
                    )
                elif (
                    name == "compile_batch_expr"
                    and (path, module.qualname(node)) != COMPILE_SITE
                ):
                    yield module.finding(
                        self.name,
                        node,
                        "compile_batch_expr() outside Executor._prepare is a "
                        "second compile path — read the kernel the plan's "
                        "compiled map holds (Scope.compiled)",
                    )
                elif name in SCAN_READS and not _inside(module, node, SCAN_SITE):
                    yield module.finding(
                        self.name,
                        node,
                        f"{name}() outside Executor._batches reads the heap "
                        "a second way — scan through the planned source "
                        "(Executor._scan)",
                    )
                elif name in GRANT_WALKS and path == VERIFIER_PATH:
                    yield module.finding(
                        self.name,
                        node,
                        f"{name}() in the verifier copies the privilege rule "
                        "— ask the database for its verdict "
                        "(DatabaseBinding.authorize)",
                    )
                elif name == "NameResolver" and path != BINDER_PATH:
                    yield module.finding(
                        self.name,
                        node,
                        "NameResolver() outside minidb/analysis.py resolves names "
                        "a second way — read the slot the binder gave the "
                        "reference (StatementAnalysis.binding)",
                    )
            elif (
                isinstance(node, ast.Raise)
                and node.exc is not None
                and _called_name(node.exc) == "UnknownColumnError"
                and path not in (BINDER_PATH, CATALOG_PATH)
            ):
                yield module.finding(
                    self.name,
                    node,
                    "raising UnknownColumnError outside minidb/analysis.py "
                    "decides at run time what a name means — the binder "
                    "records the name error before any row",
                )
