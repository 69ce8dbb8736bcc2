"""The plan/task DAG database shared by the two durable workloads.

Schema after SNIPPETS.md snippet 1 (a planner that stores plans and their
tasks with ``parent_id`` edges, executed by workers that claim tasks):
``plans``, ``tasks`` (hash index on ``plan_id``, btree on ``priority``), a
growing ``signals`` log, and a ``credentials`` table the agent role has no
grant on. :class:`TaskDagModel` is the independent shadow of committed
state the oracle compares the database with.
"""

from __future__ import annotations

import threading
from typing import Any

from repro.minidb import Database

from ..datagen import distinct_phrases, rng_for
from ..harness import Workload

AGENT = "agent"
OWNER = "admin"

_SCHEMA = (
    "CREATE TABLE plans (plan_id INT PRIMARY KEY, title TEXT NOT NULL, "
    "status TEXT NOT NULL, claimed INT NOT NULL)",
    "CREATE TABLE tasks (task_id INT PRIMARY KEY, plan_id INT NOT NULL "
    "REFERENCES plans(plan_id), parent_id INT, name TEXT NOT NULL, "
    "status TEXT NOT NULL, priority INT NOT NULL, position INT NOT NULL, "
    "attempts INT NOT NULL)",
    "CREATE TABLE signals (signal_id INT PRIMARY KEY, task_id INT NOT NULL, "
    "kind TEXT NOT NULL, note TEXT)",
    "CREATE TABLE credentials (id INT PRIMARY KEY, secret TEXT NOT NULL)",
)
_INDEXES = (
    "CREATE INDEX ix_tasks_plan ON tasks USING HASH (plan_id)",
    "CREATE INDEX ix_tasks_priority ON tasks USING BTREE (priority)",
)
_GRANTS = (
    f"GRANT SELECT, UPDATE ON plans TO {AGENT}",
    f"GRANT SELECT, UPDATE ON tasks TO {AGENT}",
    f"GRANT SELECT, INSERT ON signals TO {AGENT}",
)


class TaskDagModel:
    """Committed state, kept in plain Python lists."""

    def __init__(self, tasks: list[dict[str, Any]], plans: int):
        self.status = [row["status"] for row in tasks]
        self.attempts = [0] * len(tasks)
        self.priority = [row["priority"] for row in tasks]
        self.claimed = [0] * plans
        self.signals = 0

    def apply(self, effect: tuple | None) -> None:
        if effect is None:
            return
        kind = effect[0]
        if kind == "claim":
            _, task, plan = effect
            self.status[task] = "claimed"
            self.attempts[task] += 1
            self.signals += 1
            if plan >= 0:
                self.claimed[plan] += 1
        elif kind == "priority":
            self.priority[effect[1]] = effect[2]
        else:  # "signal"
            self.signals += 1


class TaskDagWorkload(Workload):
    """Loads the task DAG and checks it against the shadow model."""

    durable = True
    #: keyword arguments of ``Database.open`` the subclass measures under
    open_options: dict[str, Any] = {}

    def __init__(self, seed: int, sizes: dict[str, int], workdir: str):
        super().__init__(seed, sizes, workdir)
        rng = rng_for(self.name, seed, "data")
        per_plan = sizes["tasks_per_plan"]
        titles = distinct_phrases(rng, sizes["plans"], (3, 3))
        self.plan_rows = [
            {"plan_id": plan, "title": titles[plan], "status": "active", "claimed": 0}
            for plan in range(sizes["plans"])
        ]
        self.task_rows = [
            {
                "task_id": task,
                "plan_id": task // per_plan,
                "parent_id": None if task % per_plan == 0 else task - task % per_plan,
                "name": f"step {task % per_plan} of {titles[task // per_plan]}",
                "status": "pending",
                "priority": rng.randrange(100),
                "position": task % per_plan,
                "attempts": 0,
            }
            for task in range(sizes["plans"] * per_plan)
        ]
        self.credential_rows = [
            {"id": n, "secret": f"{rng.getrandbits(64):016x}"}
            for n in range(sizes["credentials"])
        ]
        self.model = self.new_model()
        #: two clients finish episodes concurrently; list updates are not atomic
        self._model_mutex = threading.Lock()
        self.path = ""

    def new_model(self) -> TaskDagModel:
        return TaskDagModel(self.task_rows, self.sizes["plans"])

    def open_database(self) -> Database:
        options = dict(self.open_options)
        if "auto_checkpoint_records" in self.sizes:
            # smoke sizes checkpoint early; full sizes keep the engine default
            options["auto_checkpoint_records"] = self.sizes["auto_checkpoint_records"]
        return Database.open(self.path, owner=OWNER, **options)

    def load(self) -> None:
        """Schema, bulk load, indexes, ANALYZE, role and grants, checkpoint.

        Rows go straight into the heaps (the repo's bulk-load idiom, which
        bypasses the WAL by design); the checkpoint then makes them durable.
        """
        self.path = self.fresh_dir()
        self.model = self.new_model()
        self.db = db = self.open_database()
        owner = db.connect(OWNER)
        for statement in _SCHEMA:
            owner.execute(statement)
        for table, rows in (
            ("plans", self.plan_rows),
            ("tasks", self.task_rows),
            ("credentials", self.credential_rows),
        ):
            heap = db.heap(table)
            for row in rows:
                heap.insert(row)
        for statement in _INDEXES:
            owner.execute(statement)
        for table in ("plans", "tasks", "signals"):
            owner.execute(f"ANALYZE {table}")
        db.create_user(AGENT)
        for statement in _GRANTS:
            owner.execute(statement)
        db.checkpoint()

    def close(self) -> None:
        self.db.close()
        # let go of it: a rebuilt database must not count twice in peak RSS
        self.db = None
        self.bridges = []

    def apply(self, effect: Any) -> None:
        with self._model_mutex:
            self.model.apply(effect)

    def reopen(self) -> None:
        self.db = self.open_database()

    def verify(self) -> tuple[int, list[str]]:
        model = self.model
        owner = self.db.connect(OWNER)
        tasks = owner.execute(
            "SELECT task_id, status, attempts, priority FROM tasks ORDER BY task_id"
        ).rows
        plans = owner.execute("SELECT plan_id, claimed FROM plans ORDER BY plan_id").rows
        facts = [
            # rolled-back and rejected calls left no trace: every column of
            # every task is what the committed episodes alone produce
            ("task ids", [row[0] for row in tasks], list(range(len(model.status)))),
            ("task status", [row[1] for row in tasks], model.status),
            ("task attempts", [row[2] for row in tasks], model.attempts),
            ("task priority", [row[3] for row in tasks], model.priority),
            # lost-update litmus: every committed claim bumped its plan once
            ("plans.claimed", [row[1] for row in plans], model.claimed),
            ("signals rows", owner.scalar("SELECT COUNT(*) FROM signals"), model.signals),
            (
                "credentials rows",
                owner.scalar("SELECT COUNT(*) FROM credentials"),
                len(self.credential_rows),
            ),
            (
                "objects",
                self.db.catalog.object_names(),
                ["credentials", "plans", "signals", "tasks"],
            ),
        ]
        mismatches = []
        for label, found, expected in facts:
            if found != expected:
                if isinstance(expected, list) and len(found) == len(expected):
                    wrong = [n for n, pair in enumerate(zip(found, expected)) if pair[0] != pair[1]]
                    mismatches.append(f"{label}: {len(wrong)} differ, first at {wrong[0]}")
                else:
                    mismatches.append(f"{label}: found {found!r:.80}, expected {expected!r:.80}")
        return len(facts), mismatches


def ready_tasks_sql(plan: int) -> str:
    return (
        "SELECT task_id, priority FROM tasks "
        f"WHERE plan_id = {plan} AND status = 'pending' "
        "ORDER BY priority DESC, task_id LIMIT 5"
    )


def claim_task_sql(task: int) -> str:
    return (
        "UPDATE tasks SET status = 'claimed', attempts = attempts + 1 "
        f"WHERE task_id = {task}"
    )


def signal_sql(signal: int, task: int, kind: str, note: str) -> str:
    return (
        "INSERT INTO signals (signal_id, task_id, kind, note) "
        f"VALUES ({signal}, {task}, '{kind}', '{note}')"
    )
