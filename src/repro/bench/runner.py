"""Experiment harness: builds toolkits, runs agents on tasks, scores runs.

One function per paper experiment (Figures 5-6, Tables 1-2) returns the
aggregated numbers, and a ``check_*`` beside it holds the shape the paper
reports for them (``python -m repro.bench <name>`` prints both). Every run
is seeded from (task, model, toolkit) so the whole evaluation is
deterministic.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field
from itertools import islice, zip_longest
from typing import Any, Callable

from ..agent import ReActAgent, RunTrace
from ..baselines import PGMCP, PGMCPMinus, make_sampled_binding
from ..core import BridgeScope, BridgeScopeConfig, MinidbBinding
from ..llm import PROFILES, ModelProfile, SimulatedDataAgentPolicy
from ..mcp import ToolRegistry, ToolServer
from ..minidb import Database
from ..mltools import MLToolServer
from .bird_ext import generate_bird_ext_tasks
from .datasets import (
    ROLE_ADMIN,
    ROLE_IRRELEVANT,
    ROLE_NORMAL,
    build_bird_database,
    build_housing_database,
)
from .gates import expect, failed
from .nl2ml import generate_nl2ml_tasks, idealized_pg_mcp_token_cost
from .tasks import DBTask, MLTask

GENERIC_PROMPT = """\
You are a general-purpose data agent operating in a ReAct loop: reason
about the user's task, call one tool, observe its result, and repeat until
the task is complete. You are connected to a database through an MCP
server. Inspect the schema before writing SQL when a schema tool exists;
otherwise discover table structure through exploratory queries. Generate
standard SQL and check execution results carefully — error messages from
the database indicate what to fix. If the task requires modifying data,
apply the modifications the user asked for and verify the reported row
counts look plausible. If a task cannot be completed (for example, the
database rejects every attempt or required access is missing), stop and
abort with a clear explanation instead of retrying forever. Report the
final answer strictly from tool results; never invent data you did not
retrieve. Keep each tool call to a single SQL statement where possible,
and prefer precise predicates over broad scans when filtering data.
"""

#: theoretical minimum LLM calls (paper Section 3.2/3.3)
BEST_ACHIEVABLE = {
    "read": 3,          # context retrieval, SQL execution, finalization
    "write": 5,         # + begin and commit
    "abort_no_tool": 1, # missing tool is visible without any call
    "abort_schema": 2,  # schema retrieval, then abort
    "ml": 3,            # context retrieval, proxy execution, finalization
}


@dataclass
class TaskRunResult:
    trace: RunTrace
    feasible: bool
    correct: bool | None  # None for infeasible tasks (accuracy undefined)
    intercepted: bool = False  # infeasible task aborted without SQL success


@dataclass
class CellStats:
    """Aggregate over one experiment cell."""

    runs: list[TaskRunResult] = field(default_factory=list)

    def add(self, result: TaskRunResult) -> None:
        self.runs.append(result)

    @property
    def n(self) -> int:
        return len(self.runs)

    @property
    def avg_llm_calls(self) -> float:
        return sum(r.trace.llm_calls for r in self.runs) / max(self.n, 1)

    @property
    def avg_tokens(self) -> float:
        return sum(r.trace.total_tokens for r in self.runs) / max(self.n, 1)

    @property
    def accuracy(self) -> float:
        scored = [r for r in self.runs if r.correct is not None]
        if not scored:
            return 0.0
        return sum(1 for r in scored if r.correct) / len(scored)

    @property
    def completion_rate(self) -> float:
        return sum(1 for r in self.runs if r.trace.completed and not r.trace.aborted) / max(self.n, 1)

    @property
    def transaction_ratio(self) -> float:
        return sum(
            1 for r in self.runs if r.trace.began_transaction and r.trace.committed
        ) / max(self.n, 1)


def _seed_for(task_id: str, model: str, toolkit: str) -> int:
    return zlib.crc32(f"{task_id}|{model}|{toolkit}".encode())


# --------------------------------------------------------------------------
# toolkit assembly
# --------------------------------------------------------------------------


def build_toolkit(
    name: str,
    db: Database,
    user: str,
    extra_servers: list[ToolServer] | None = None,
    config: BridgeScopeConfig | None = None,
) -> tuple[ToolRegistry, str]:
    """Build (registry, system prompt) for a toolkit flavor."""
    extras = extra_servers or []
    if name == "bridgescope":
        bridge = BridgeScope(
            MinidbBinding.for_user(db, user),
            config or BridgeScopeConfig(),
            extra_servers=extras,
        )
        return bridge.registry, bridge.system_prompt()
    if name == "pg-mcp":
        binding = MinidbBinding.for_user(db, user)
        return ToolRegistry([PGMCP(binding), *extras]), GENERIC_PROMPT
    if name == "pg-mcp-minus":
        binding = MinidbBinding.for_user(db, user)
        return ToolRegistry([PGMCPMinus(binding), *extras]), GENERIC_PROMPT
    if name == "pg-mcp-s":
        binding = make_sampled_binding(db, user)
        return ToolRegistry([PGMCP(binding), *extras]), GENERIC_PROMPT
    raise ValueError(f"unknown toolkit {name!r}")


# --------------------------------------------------------------------------
# single-task execution & scoring
# --------------------------------------------------------------------------


def role_feasible(db: Database, user: str, task: DBTask) -> bool:
    """Whether ``user`` holds the privileges the task's gold SQL needs."""
    return all(
        db.privileges.allows(user, task.action, table) for table in task.tables
    )


def run_db_task(
    task: DBTask,
    toolkit: str,
    profile: ModelProfile,
    role: str = ROLE_ADMIN,
    scale: float = 1.0,
) -> TaskRunResult:
    """Run one BIRD-Ext task and score it against a parallel oracle DB."""
    db = build_bird_database(seed=0, scale=scale)
    oracle = build_bird_database(seed=0, scale=scale)
    registry, prompt = build_toolkit(toolkit, db, role)
    policy = SimulatedDataAgentPolicy(
        profile, seed=_seed_for(task.task_id, profile.name, toolkit)
    )
    agent = ReActAgent(policy, registry, prompt, toolkit_name=toolkit)
    trace = agent.run(task)

    feasible = role_feasible(db, role, task)
    oracle_session = oracle.connect(ROLE_ADMIN)
    correct: bool | None = None
    intercepted = False

    if feasible:
        if task.write:
            oracle_session.execute(task.gold_sql)
            correct = (
                trace.completed and not trace.aborted and db.snapshot() == oracle.snapshot()
            )
        else:
            gold_rows = sorted(
                oracle_session.execute(task.gold_sql).rows, key=repr
            )
            agent_rows = (
                sorted(trace.last_payload, key=repr)
                if isinstance(trace.last_payload, list)
                else None
            )
            correct = (
                trace.completed
                and not trace.aborted
                and agent_rows == gold_rows
            )
    else:
        # for infeasible tasks success = clean interception: aborted, and
        # the database was not modified
        intercepted = trace.aborted and db.snapshot() == oracle.snapshot()
    return TaskRunResult(trace, feasible, correct, intercepted)


def run_ml_task(
    task: MLTask,
    toolkit: str,
    profile: ModelProfile,
    housing_db: Database,
) -> TaskRunResult:
    registry, prompt = build_toolkit(
        toolkit, housing_db, ROLE_ADMIN, extra_servers=[MLToolServer()]
    )
    policy = SimulatedDataAgentPolicy(
        profile, seed=_seed_for(task.task_id, profile.name, toolkit)
    )
    agent = ReActAgent(policy, registry, prompt, toolkit_name=toolkit)
    trace = agent.run(task)
    completed = trace.completed and not trace.aborted
    return TaskRunResult(trace, feasible=True, correct=completed)


# --------------------------------------------------------------------------
# experiments
# --------------------------------------------------------------------------


def _profiles(models: list[str] | None) -> list[ModelProfile]:
    names = models or ["gpt-4o", "claude-4"]
    return [PROFILES[name] for name in names]


def _task_subset(tasks: list[DBTask], limit: int | None) -> list[DBTask]:
    if limit is None or limit >= len(tasks):
        return tasks
    # deterministic stratified subset: round-robin over actions
    by_action: dict[str, list[DBTask]] = {}
    for task in tasks:
        by_action.setdefault(task.action, []).append(task)
    rounds = zip_longest(*(by_action[action] for action in sorted(by_action)))
    in_turn = (task for round_ in rounds for task in round_ if task is not None)
    return list(islice(in_turn, limit))


def _cell(
    tasks: list[DBTask], toolkit: str, profile: ModelProfile, **run: Any
) -> CellStats:
    cell = CellStats()
    for task in tasks:
        cell.add(run_db_task(task, toolkit, profile, **run))
    return cell


def _per_model(
    models: list[str] | None,
    tasks: list[DBTask],
    toolkits: tuple[str, ...],
    metric: str,
    scale: float,
    **constants: float,
) -> dict[str, dict[str, float]]:
    """``{model: {toolkit: its metric over the tasks, **constants}}``."""
    return {
        profile.name: {
            **{
                toolkit: getattr(_cell(tasks, toolkit, profile, scale=scale), metric)
                for toolkit in toolkits
            },
            **constants,
        }
        for profile in _profiles(models)
    }


def experiment_fig5a(
    models: list[str] | None = None,
    n_tasks: int | None = 40,
    scale: float = 0.5,
) -> dict[str, dict[str, float]]:
    """Context retrieval: avg LLM calls, BridgeScope vs PG-MCP−.

    Uses read tasks (the paper's best-achievable of 3 calls — context
    retrieval, SQL execution, finalization — describes the read workflow).
    """
    reads = [t for t in generate_bird_ext_tasks() if not t.write]
    return _per_model(
        models, _task_subset(reads, n_tasks), ("bridgescope", "pg-mcp-minus"),
        "avg_llm_calls", scale,
        **{"best-achievable": float(BEST_ACHIEVABLE["read"])},
    )


def experiment_fig5b(
    models: list[str] | None = None,
    n_tasks: int | None = 40,
    scale: float = 0.5,
) -> dict[str, dict[str, float]]:
    """SQL execution accuracy, BridgeScope vs PG-MCP."""
    tasks = _task_subset(generate_bird_ext_tasks(), n_tasks)
    return _per_model(models, tasks, ("bridgescope", "pg-mcp"), "accuracy", scale)


def experiment_fig5c(
    models: list[str] | None = None,
    n_tasks: int | None = 30,
    scale: float = 0.5,
) -> dict[str, dict[str, float]]:
    """Transaction trigger ratio on write tasks."""
    tasks = [t for t in generate_bird_ext_tasks() if t.write][:n_tasks]
    return _per_model(
        models, tasks, ("bridgescope", "pg-mcp"), "transaction_ratio", scale,
        **{"best-achievable": 1.0},
    )


#: {model: {"(role, task type)": {series: value}}} — Figure 6 / Table 1
CellResults = dict[str, dict[str, dict[str, float]]]

#: the five cells of Figure 6 / Table 1: role label, task type, role, and
#: which best-achievable call count applies
FIG6_CELLS = [
    ("A", "read", ROLE_ADMIN, "read"),
    ("A", "write", ROLE_ADMIN, "write"),
    ("N", "write", ROLE_NORMAL, "abort_no_tool"),
    ("I", "read", ROLE_IRRELEVANT, "abort_schema"),
    ("I", "write", ROLE_IRRELEVANT, "abort_schema"),
]


def experiment_fig6_table1(
    models: list[str] | None = None,
    n_tasks: int = 20,
    scale: float = 0.5,
) -> CellResults:
    """LLM calls (Fig 6) and token usage (Table 1) across privilege roles.

    Returns ``{model: {cell: {toolkit: value, toolkit+"_tokens": value,
    "best": value}}}`` with cells keyed like ``"(N, write)"``.
    """
    all_tasks = generate_bird_ext_tasks()
    by_type = {
        "read": [t for t in all_tasks if not t.write],
        "write": [t for t in all_tasks if t.write],
    }
    results: CellResults = {}
    for profile in _profiles(models):
        results[profile.name] = {}
        for label, task_type, role, best in FIG6_CELLS:
            tasks = by_type[task_type][:n_tasks]
            entry = {"best": float(BEST_ACHIEVABLE[best])}
            for toolkit in ("bridgescope", "pg-mcp"):
                cell = _cell(tasks, toolkit, profile, role=role, scale=scale)
                entry[toolkit] = cell.avg_llm_calls
                entry[f"{toolkit}_tokens"] = cell.avg_tokens
                entry[f"{toolkit}_intercepted"] = sum(
                    1 for r in cell.runs if r.intercepted
                ) / max(cell.n, 1)
            results[profile.name][f"({label}, {task_type})"] = entry
    return results


def experiment_table2(
    models: list[str] | None = None,
    per_level: int = 10,
    housing_rows: int = 20_000,
) -> dict[str, Any]:
    """NL2ML: completion rate, token usage, LLM calls; plus idealized cost."""
    tasks = generate_nl2ml_tasks(per_level=per_level)
    housing = build_housing_database(rows=housing_rows)
    cells: dict[tuple[str, str], dict[str, float]] = {}
    for profile in _profiles(models):
        for toolkit in ("bridgescope", "pg-mcp", "pg-mcp-s"):
            cell = CellStats()
            for task in tasks:
                cell.add(run_ml_task(task, toolkit, profile, housing))
            cells[(profile.name, toolkit)] = {
                "completion_rate": cell.completion_rate,
                "avg_tokens": cell.avg_tokens,
                "avg_llm_calls": cell.avg_llm_calls,
            }
    bridgescope_tokens = [
        stats["avg_tokens"]
        for (_, toolkit), stats in cells.items()
        if toolkit == "bridgescope"
    ]
    return {
        "cells": cells,
        "idealized_pg_mcp_tokens": idealized_pg_mcp_token_cost(housing),
        "bridgescope_avg_tokens": sum(bridgescope_tokens)
        / max(len(bridgescope_tokens), 1),
    }


# --------------------------------------------------------------------------
# gates: the paper's result shapes, as result -> failures
# --------------------------------------------------------------------------

#: the Figure 6 / Table 1 cells whose tasks the role cannot complete
INFEASIBLE_CELLS = ("(N, write)", "(I, read)", "(I, write)")


def _each_model(
    result: dict[str, Any], expectations: Callable[[str, Any], list]
) -> list[str]:
    return failed(e for model, row in result.items() for e in expectations(model, row))


def check_fig5a(result: dict[str, dict[str, float]]) -> list[str]:
    """BridgeScope approaches best-achievable and beats PG-MCP-minus."""
    return _each_model(result, lambda model, row: [
        expect(f"{model}: bridgescope calls", row["bridgescope"], "<",
               row["pg-mcp-minus"]),
        expect(f"{model}: bridgescope calls", row["bridgescope"], "<=",
               row["best-achievable"] + 1.0),
    ])


def check_fig5b(result: dict[str, dict[str, float]]) -> list[str]:
    """Accuracies are comparable: tool modularization has no side effect."""
    return _each_model(result, lambda model, row: [
        expect(f"{model}: accuracy gap to pg-mcp",
               abs(row["bridgescope"] - row["pg-mcp"]), "<=", 0.15),
        expect(f"{model}: bridgescope accuracy", row["bridgescope"], ">=", 0.6),
    ])


def check_fig5c(result: dict[str, dict[str, float]]) -> list[str]:
    """Explicit transaction tools are (nearly) always used; execute_sql rarely."""
    return _each_model(result, lambda model, row: [
        expect(f"{model}: bridgescope txn ratio", row["bridgescope"], ">=", 0.9),
        expect(f"{model}: pg-mcp txn ratio", row["pg-mcp"], "<=", 0.3),
    ])


def _savings(result: CellResults, what: str, suffix: str) -> list[tuple[str, float]]:
    """``1 - bridgescope/pg-mcp`` per (model, infeasible cell), labelled."""
    return [
        (f"{model} {cell}: {what}",
         1 - cells[cell][f"bridgescope{suffix}"] / cells[cell][f"pg-mcp{suffix}"])
        for model, cells in result.items()
        for cell in INFEASIBLE_CELLS
    ]


def check_fig6(result: CellResults) -> list[str]:
    """Infeasible tasks cost >= 20% fewer LLM calls; feasible ones stay small."""
    savings = _savings(result, "LLM-call reduction", "")
    return failed(
        [expect(*saving, ">=", 0.2) for saving in savings]
        + [
            expect(f"{model} (A, read): bridgescope calls",
                   cells["(A, read)"]["bridgescope"], "<=", 4.5)
            for model, cells in result.items()
        ]
    )


def check_table1(result: CellResults) -> list[str]:
    """Infeasible tasks cost >= 20% fewer tokens, and >= 60% somewhere."""
    savings = _savings(result, "token saving", "_tokens")
    return failed(
        [expect(*saving, ">=", 0.2) for saving in savings]
        + [expect("best token saving", max(s for _, s in savings), ">=", 0.6)]
    )


def check_table2(result: dict[str, Any]) -> list[str]:
    """Only the proxy completes NL2ML cheaply; routing data costs >= 100x."""
    cells = result["cells"]
    expectations = [
        # an idealized pg-mcp pays >= 2 orders of magnitude for moving the data
        expect("idealized pg-mcp tokens over bridgescope's",
               result["idealized_pg_mcp_tokens"] / result["bridgescope_avg_tokens"],
               ">=", 100)
    ]
    for model in sorted({model for model, _ in cells}):
        bridge, sampled = cells[(model, "bridgescope")], cells[(model, "pg-mcp-s")]
        completion = tuple(
            cells[(model, toolkit)]["completion_rate"]
            for toolkit in ("bridgescope", "pg-mcp", "pg-mcp-s")
        )
        expectations += [
            expect(f"{model}: completion rates (bridgescope, pg-mcp, pg-mcp-s)",
                   completion, "==", (1.0, 0.0, 1.0)),
            expect(f"{model}: bridgescope LLM calls", bridge["avg_llm_calls"], "<=",
                   4.0),
            expect(f"{model}: pg-mcp-s tokens", sampled["avg_tokens"], ">",
                   bridge["avg_tokens"]),
        ]
    return failed(expectations)
