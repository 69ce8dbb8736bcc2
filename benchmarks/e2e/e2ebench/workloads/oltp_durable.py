"""``oltp_durable``: one agent, short statements, durable engine, fsync off.

Per-statement overhead dominates here (every accepted SQL tool call parses
its text twice: once under ``SqlVerifier.verify``, once in
``Session.execute``), so this is the workload on which a statement/plan
cache, verify/execute parse sharing, registry lookup or WAL-encoding work
shows. Scans, retrieval and queueing do almost nothing.
"""

from __future__ import annotations

from repro.core import BridgeScope, BridgeScopeConfig, SecurityPolicy

from ..datagen import blocks, rng_for
from ..harness import Episode, Step, rowcount_is, rows_are
from .taskdag import (
    AGENT,
    TaskDagWorkload,
    claim_task_sql,
    ready_tasks_sql,
    signal_sql,
)

#: calls that must come back as errors: the wrong action through a tool, an
#: ungranted table, DDL text through a DML tool, and a tool that the no-DDL
#: policy never exposed
_REJECTED = (
    ("select", "DELETE FROM tasks WHERE task_id = {n}"),
    ("select", "SELECT secret FROM credentials WHERE id = {n}"),
    ("update", "DROP TABLE tasks"),
    ("drop", "DROP TABLE tasks"),
)


#: episodes of each kind in a block of 200: 60% claim transactions, 25%
#: lookups, 10% autocommit writes, 3% begin/update/rollback, 2% calls that
#: must be rejected (each of the four once)
MIX = {
    "claim": 120, "point": 25, "join": 25, "update": 10, "insert": 10,
    "rollback": 6, "rejected": 4,
}


class OltpDurable(TaskDagWorkload):
    name = "oltp_durable"
    block = sum(MIX.values())

    def build(self) -> None:
        self.load()
        config = BridgeScopeConfig(policy=SecurityPolicy.no_ddl())
        self.bridges = [BridgeScope.for_minidb_user(self.db, AGENT, config)]

    def script(self, client: int) -> list[Episode]:
        """Blocks of ``MIX``."""
        rng = rng_for(self.name, self.seed, "script")
        model = self.new_model()  # state as of each scripted episode
        plans = self.sizes["plans"]
        per_plan = self.sizes["tasks_per_plan"]
        tasks = plans * per_plan
        titles = [row["title"] for row in self.plan_rows]
        signals = rejected = 0
        episodes = []
        for kind in blocks(rng, MIX, self.sizes["cap"]):
            if kind == "claim":
                plan = rng.randrange(plans)
                first = plan * per_plan
                pending = [
                    task for task in range(first, first + per_plan)
                    if model.status[task] == "pending"
                ]
                ready = sorted(pending, key=lambda task: (-model.priority[task], task))[:5]
                task = ready[0] if ready else rng.randrange(first, first + per_plan)
                signals += 1
                effect = ("claim", task, -1)
                episode = Episode(kind, [
                    Step("select", {"sql": ready_tasks_sql(plan)},
                         check=rows_are([(t, model.priority[t]) for t in ready])),
                    Step("begin"),
                    Step("update", {"sql": claim_task_sql(task)}, check=rowcount_is(1)),
                    Step("insert", {"sql": signal_sql(signals, task, "claim", "claimed by agent")}),
                    Step("commit"),
                ], effect)
            elif kind == "point":
                task = rng.randrange(tasks)
                effect = None
                row = (task, model.status[task], model.priority[task], model.attempts[task])
                episode = Episode(kind, [
                    Step("select", {"sql": (
                        "SELECT task_id, status, priority, attempts FROM tasks "
                        f"WHERE task_id = {task}"
                    )}, check=rows_are([row])),
                ])
            elif kind == "join":
                plan = rng.randrange(plans)
                first = plan * per_plan
                effect = None
                rows = [
                    (titles[plan], task, model.status[task])
                    for task in range(first, first + per_plan)
                ]
                episode = Episode(kind, [
                    Step("select", {"sql": (
                        "SELECT p.title, t.task_id, t.status FROM plans p "
                        "JOIN tasks t ON t.plan_id = p.plan_id "
                        f"WHERE p.plan_id = {plan} AND t.plan_id = {plan} "
                        "ORDER BY t.task_id"
                    )}, check=rows_are(rows)),
                ])
            elif kind == "update":
                task = rng.randrange(tasks)
                effect = ("priority", task, rng.randrange(100))
                episode = Episode(kind, [
                    Step("update", {"sql": (
                        f"UPDATE tasks SET priority = {effect[2]} WHERE task_id = {task}"
                    )}, check=rowcount_is(1)),
                ], effect)
            elif kind == "insert":
                signals += 1
                effect = ("signal",)
                episode = Episode(kind, [
                    Step("insert", {"sql": signal_sql(
                        signals, rng.randrange(tasks), "note", "progress noted"
                    )}),
                ], effect)
            elif kind == "rollback":
                task = rng.randrange(tasks)
                effect = None
                episode = Episode(kind, [
                    Step("begin"),
                    Step("update", {"sql": (
                        f"UPDATE tasks SET status = 'done' WHERE task_id = {task}"
                    )}, check=rowcount_is(1)),
                    Step("rollback"),
                ])
            else:
                tool, sql = _REJECTED[rejected % len(_REJECTED)]
                rejected += 1
                effect = None
                episode = Episode(kind, [
                    Step(tool, {"sql": sql.format(n=rng.randrange(tasks))}, rejected=True),
                ])
            model.apply(effect)
            episodes.append(episode)
        return episodes
