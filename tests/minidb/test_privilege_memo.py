"""The privilege memo answers what a fresh walk of the grants answers.

``PrivilegeManager.actions_on`` and ``column_restrictions`` answer from a
memo that holds for one epoch; every change to users or grants must bump
the epoch. The state machine draws GRANT / REVOKE (table, column, PUBLIC,
``ALL``), new users, renames and drops of tables and columns inside blocks
that COMMIT, ROLLBACK or ROLLBACK TO a savepoint, and a reopen of the
durable directory, and after every step compares each remembered answer
with a walk of the grants as they stand. A change that forgets its bump
(the undo a ROLLBACK runs, say) leaves an answer of the epoch before it,
which the comparison finds.

The threaded test asks while another thread alternates GRANT and REVOKE:
an answer walked from grants a change replaced must not be kept.
"""

from __future__ import annotations

import os
import shutil
import sys
import tempfile
import threading

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, precondition, rule

from repro.minidb import Database
from repro.minidb.errors import MiniDBError
from repro.minidb.privileges import MEMO_LIMIT, PrivilegeManager

STRESS_THREADS = int(os.environ.get("REPRO_STRESS_THREADS", "2"))

USERS = ("u", "v", "public", "admin", "ghost")
TABLES = ("t", "s", "t2", "s2")
OBJECTS = TABLES + ("*",)
COLUMNS = ("a", "b", "c", "d")
ACTIONS = ("SELECT", "INSERT", "UPDATE", "ALL")
ASKED = ("SELECT", "INSERT", "UPDATE", "DELETE", "CREATE")


def fresh(privileges: PrivilegeManager, key: tuple) -> object:
    """The answer to a memo key from the grants themselves."""
    user, action, obj = key
    if action is None:
        return privileges._walk_actions(user, None, obj)
    return privileges._walk_restrictions(user, action, obj)


def assert_memo_holds(privileges: PrivilegeManager) -> None:
    for key, answer in list(privileges._memo.items()):
        assert answer == fresh(privileges, key), key


class PrivilegeMemoMachine(RuleBasedStateMachine):
    def __init__(self) -> None:
        super().__init__()
        self.path = tempfile.mkdtemp(prefix="privilege-memo-")
        self.db = Database.open(self.path)
        self.admin = self.db.connect("admin")
        self.admin.execute("CREATE TABLE t (a INT, b INT, c INT)")
        self.admin.execute("CREATE TABLE s (a INT, b INT)")
        for grant in (
            "GRANT SELECT ON t TO u",
            "GRANT SELECT (b) ON s TO u",
            "GRANT UPDATE (a, c) ON t TO v",
            "GRANT INSERT ON s TO PUBLIC",
        ):
            self.admin.execute(grant)
        self.in_block = False
        self.savepoint = False

    def teardown(self) -> None:
        self.db.close()
        shutil.rmtree(self.path, ignore_errors=True)

    def run(self, sql: str) -> None:
        try:
            self.admin.execute(sql)
        except MiniDBError:
            pass  # a missing object or column, a refused GRANT in a block

    # ------------------------------------------------------------ asking

    @rule(
        user=st.sampled_from(USERS),
        action=st.sampled_from(ASKED),
        obj=st.sampled_from(OBJECTS + ("T", "nope")),
    )
    def ask(self, user, action, obj):
        privileges = self.db.privileges
        restriction = privileges.column_restrictions(user, action, obj)
        actions = privileges.actions_on(user, obj)
        assert restriction == fresh(privileges, (user.lower(), action, obj.lower()))
        assert actions == fresh(privileges, (user.lower(), None, obj.lower()))

    # ------------------------------------------------------------ grants

    @rule(
        verb=st.sampled_from(("GRANT", "REVOKE")),
        action=st.sampled_from(ACTIONS),
        columns=st.none() | st.lists(st.sampled_from(COLUMNS), min_size=1, max_size=2, unique=True),
        obj=st.sampled_from(OBJECTS),
        user=st.sampled_from(("u", "v", "PUBLIC")),
    )
    def change_grant(self, verb, action, columns, obj, user):
        if columns is not None and (obj == "*" or action == "ALL"):
            columns = None
        cols = f" ({', '.join(columns)})" if columns else ""
        direction = "TO" if verb == "GRANT" else "FROM"
        self.run(f"{verb} {action}{cols} ON {obj} {direction} {user}")

    @rule(name=st.sampled_from(("v", "w")))
    def create_user(self, name):
        self.db.create_user(name)

    # --------------------------------------------------------------- DDL

    @rule(old=st.sampled_from(TABLES), new=st.sampled_from(TABLES))
    def rename_table(self, old, new):
        self.run(f"ALTER TABLE {old} RENAME TO {new}")

    @rule(table=st.sampled_from(TABLES))
    def drop_table(self, table):
        self.run(f"DROP TABLE {table}")

    @rule(table=st.sampled_from(TABLES))
    def create_table(self, table):
        self.run(f"CREATE TABLE {table} (a INT, b INT, c INT)")

    @rule(
        table=st.sampled_from(TABLES),
        old=st.sampled_from(COLUMNS),
        new=st.sampled_from(COLUMNS),
    )
    def rename_column(self, table, old, new):
        self.run(f"ALTER TABLE {table} RENAME COLUMN {old} TO {new}")

    @rule(table=st.sampled_from(TABLES), column=st.sampled_from(COLUMNS))
    def drop_column(self, table, column):
        self.run(f"ALTER TABLE {table} DROP COLUMN {column}")

    @rule(table=st.sampled_from(TABLES), column=st.sampled_from(COLUMNS))
    def add_column(self, table, column):
        self.run(f"ALTER TABLE {table} ADD COLUMN {column} INT")

    # ------------------------------------------------------------ blocks

    @precondition(lambda self: not self.in_block)
    @rule()
    def begin(self):
        self.admin.execute("BEGIN")
        self.in_block, self.savepoint = True, False

    @precondition(lambda self: self.in_block)
    @rule(end=st.sampled_from(("COMMIT", "ROLLBACK")))
    def end(self, end):
        self.admin.execute(end)
        self.in_block = False

    @precondition(lambda self: self.in_block)
    @rule()
    def savepoint_here(self):
        self.admin.execute("SAVEPOINT sp")
        self.savepoint = True

    @precondition(lambda self: self.in_block and self.savepoint)
    @rule()
    def rollback_to_savepoint(self):
        self.admin.execute("ROLLBACK TO sp")

    @precondition(lambda self: not self.in_block)
    @rule()
    def reopen(self):
        self.db.close()
        self.db = Database.open(self.path)
        self.admin = self.db.connect("admin")

    # --------------------------------------------------------- invariant

    @invariant()
    def memo_equals_a_fresh_walk(self):
        privileges = self.db.privileges
        assert_memo_holds(privileges)
        # remember an answer for every question, so the next step's change
        # finds them all in the memo: one it forgets to bump for leaves
        # answers of this step behind
        for user in ("u", "v", "w", "public", "admin"):
            for obj in OBJECTS:
                privileges.actions_on(user, obj)
                for action in ("SELECT", "INSERT", "UPDATE"):
                    privileges.column_restrictions(user, action, obj)


TestMemoAgainstWalk = PrivilegeMemoMachine.TestCase
TestMemoAgainstWalk.settings = settings(
    max_examples=max(150, settings.default.max_examples), stateful_step_count=40
)


def test_memo_is_bounded():
    privileges = PrivilegeManager("admin")
    privileges.create_user("u")
    for n in range(3 * MEMO_LIMIT):
        assert privileges.actions_on("u", f"made_up_{n}") == frozenset()
        assert len(privileges._memo) <= MEMO_LIMIT


def test_keys_are_lower_cased():
    privileges = PrivilegeManager("Admin")
    privileges.grant("U", "select", "T", ["A"])
    assert privileges.column_restrictions("u", "SELECT", "t") == {"a"}
    assert privileges.column_restrictions("U", "Select", "T") == {"a"}
    assert privileges.actions_on("u", "T") == {"SELECT"}
    assert privileges.actions_on("ADMIN", "t") == {
        "SELECT", "INSERT", "UPDATE", "DELETE", "CREATE", "DROP", "ALTER",
    }
    assert set(privileges._memo) == {
        ("u", "SELECT", "t"), ("u", None, "t"), ("admin", None, "t"),
    }


def test_answers_follow_a_concurrent_grant_and_revoke():
    """After each of its changes the changing thread must read that
    change, whatever the asking threads walked and kept meanwhile."""
    db = Database(owner="admin")
    admin = db.connect("admin")
    admin.execute("CREATE TABLE t (a INT, b INT)")
    db.create_user("u")
    privileges = db.privileges
    stop = threading.Event()
    seen: set[object] = set()

    def ask() -> None:
        while not stop.is_set():
            seen.add(privileges.column_restrictions("u", "SELECT", "t"))
            privileges.actions_on("u", "t")
            privileges.column_restrictions("u", "SELECT", "T")

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    askers = [threading.Thread(target=ask) for _ in range(STRESS_THREADS)]
    try:
        for thread in askers:
            thread.start()
        for _ in range(400):
            admin.execute("GRANT SELECT ON t TO u")
            assert privileges.column_restrictions("u", "SELECT", "t") is None
            assert privileges.actions_on("u", "t") == {"SELECT"}
            admin.execute("REVOKE SELECT ON t FROM u")
            assert privileges.column_restrictions("u", "SELECT", "t") == frozenset()
            assert privileges.actions_on("u", "t") == frozenset()
            admin.execute("GRANT SELECT (a) ON t TO u")
            assert privileges.column_restrictions("u", "SELECT", "T") == {"a"}
            admin.execute("REVOKE SELECT ON t FROM u")
            assert privileges.column_restrictions("u", "SELECT", "T") == frozenset()
    finally:
        stop.set()
        for thread in askers:
            thread.join(timeout=30)
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in askers)
    assert seen <= {None, frozenset(), frozenset({"a"})}
