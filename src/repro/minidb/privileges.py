"""PostgreSQL-style privilege system for minidb.

A privilege is a pair ``(action, object)`` with an optional column set for
column-level SELECT/UPDATE grants. The model follows the paper's
formalization: the privilege set of user *u* is ``P_u ⊆ A × O``.

Special users:

* the database owner (created with the database) implicitly holds every
  privilege including DDL;
* ``PUBLIC`` grants apply to all users.

DDL actions (CREATE/DROP/ALTER) are object-scoped like DML: granting
``DROP ON inventory`` lets the grantee drop that one table, while CREATE is
granted on the pseudo-object ``*`` (database-wide).

Every tool call asks the same questions again (the verifier's and the
engine's ``Database.authorize``, ``get_schema``'s annotations), so
:meth:`PrivilegeManager.actions_on` and
:meth:`PrivilegeManager.column_restrictions` answer from a memo that holds
for one *epoch*. Every change to users or grants bumps
:attr:`PrivilegeManager.epoch` under the manager's mutex and starts an
empty memo. A read takes no lock; a miss walks the grants and keeps its
answer only when the epoch did not move during the walk, so an answer
computed from grants a concurrent GRANT or REVOKE replaced is never kept.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Any, Callable

from .errors import PermissionDenied

ACTIONS = ("SELECT", "INSERT", "UPDATE", "DELETE", "CREATE", "DROP", "ALTER")
ALL_OBJECTS = "*"
PUBLIC = "public"

#: answers one epoch's memo keeps before it starts over, so a caller that
#: asks about made-up names can fill it but never grow it
MEMO_LIMIT = 2048

_MISSING = object()


@dataclass
class Grant:
    """One granted privilege; ``columns is None`` means the whole object."""

    action: str
    obj: str  # lower-cased object name or "*"
    columns: frozenset[str] | None = None  # lower-cased column names


class PrivilegeManager:
    """Tracks users and their grants; answers privilege queries."""

    def __init__(self, owner: str):
        self.owner = owner
        #: user -> the grants made to that user
        self._users: dict[str, list[Grant]] = {owner.lower(): [], PUBLIC: []}
        #: guards ``_users`` and every grants list against concurrent
        #: sessions: GRANT/REVOKE mutate while other sessions' authorize()
        #: checks and checkpoint snapshots iterate. Re-entrant because
        #: ``ALL`` grants/revokes recurse per action. Public so the
        #: snapshot serializer can hold it across a whole dump.
        self.mutex = threading.RLock()
        #: bumped, under ``mutex``, by every change to users or grants; read
        #: without the lock by a memo miss, before and after its walk
        self.epoch = 0
        #: (user, action or None, object), lower-cased -> the answer of
        #: :meth:`column_restrictions` (or, action ``None``,
        #: :meth:`actions_on`) at ``epoch``; rebound, never cleared in place
        self._memo: dict[tuple[str, str | None, str], Any] = {}

    #: requires self.mutex
    def _bump(self) -> None:
        """Start a new epoch: every remembered answer is dropped."""
        self.epoch += 1
        self._memo = {}

    # ------------------------------------------------------------- users

    def create_user(self, name: str) -> None:
        with self.mutex:
            self._users.setdefault(name.lower(), [])
            self._bump()

    def has_user(self, name: str) -> bool:
        return name.lower() in self._users

    def users(self) -> list[str]:
        with self.mutex:
            return sorted(self._users)

    def grants_of(self, user: str) -> list[Grant]:
        """Copy of ``user``'s direct grants (no PUBLIC merge, no owner
        implication) — the serialization surface for snapshot dumps."""
        with self.mutex:
            return list(self._entry(user))

    def set_grants(self, user: str, grants: list[Grant]) -> None:
        """Replace ``user``'s grant list wholesale (snapshot restore)."""
        with self.mutex:
            self._users[user.lower()] = list(grants)
            self._bump()

    def _entry(self, name: str) -> list[Grant]:
        key = name.lower()
        if key not in self._users:
            raise PermissionDenied(f"role {name!r} does not exist")
        return self._users[key]

    def is_owner(self, user: str) -> bool:
        return user.lower() == self.owner.lower()

    # ------------------------------------------------------------- grants

    def grant(
        self,
        user: str,
        action: str,
        obj: str,
        columns: list[str] | None = None,
    ) -> None:
        """Grant ``action`` on ``obj`` (optionally column-restricted) to ``user``."""
        action = action.upper()
        if action == "ALL":
            for each in ACTIONS:
                self.grant(user, each, obj, columns)
            return
        if action not in ACTIONS:
            raise PermissionDenied(f"unknown privilege action {action!r}")
        with self.mutex:
            grants = self._users.setdefault(user.lower(), [])
            cols = frozenset(c.lower() for c in columns) if columns else None
            grant = Grant(action, obj.lower(), cols)
            if grant not in grants:
                grants.append(grant)
            self._bump()

    def revoke(
        self,
        user: str,
        action: str,
        obj: str,
        columns: list[str] | None = None,
    ) -> None:
        """Revoke ``action`` on ``obj`` from ``user``. Without columns every
        grant of that (action, object) goes, whole-object and column-level.
        With columns, as in PostgreSQL, they leave each column-level grant
        (one left with none goes); a whole-object grant stays."""
        action = action.upper()
        if action == "ALL":
            for each in ACTIONS:
                self.revoke(user, each, obj, columns)
            return
        with self.mutex:
            grants = self._entry(user)
            obj_key = obj.lower()
            wanted = frozenset(c.lower() for c in columns) if columns else None
            kept = []
            for g in grants:
                if g.action != action or g.obj != obj_key:
                    kept.append(g)
                elif wanted is not None and g.columns is None:
                    kept.append(g)
                elif wanted is not None and g.columns - wanted:
                    kept.append(Grant(action, obj_key, g.columns - wanted))
            grants[:] = kept
            self._bump()

    # --------------------------------------------- grants follow their object

    def follow_object(self, obj: str, new: str | None) -> Callable[[], None]:
        """Carry every grant on ``obj`` to ``new`` (a renamed table), or
        with ``new=None`` drop them (a dropped table or view)."""
        key = obj.lower()
        if new is None:
            return self._rewrite(lambda g: None if g.obj == key else g)
        new_key = new.lower()
        return self._rewrite(
            lambda g: Grant(g.action, new_key, g.columns) if g.obj == key else g
        )

    def follow_column(
        self, obj: str, column: str, new: str | None
    ) -> Callable[[], None]:
        """Rename ``column`` to ``new`` in the column grants on ``obj``, or
        with ``new=None`` take it out of them (a grant left with no column
        goes)."""
        key, col = obj.lower(), column.lower()
        added = frozenset() if new is None else frozenset({new.lower()})

        def change(g: Grant) -> Grant | None:
            if g.obj != key or g.columns is None or col not in g.columns:
                return g
            rest = g.columns - {col} | added
            return Grant(g.action, key, rest) if rest else None

        return self._rewrite(change)

    def _rewrite(self, change: Callable[[Grant], Grant | None]) -> Callable[[], None]:
        """Replace each grant ``g`` of every user by ``change(g)``
        (``None`` drops it); returns the closure that puts back exactly
        the grants it replaced, in their places."""
        edits: list[tuple[list[Grant], int, Grant, Grant | None]] = []
        with self.mutex:
            for grants in self._users.values():
                kept = []
                for position, grant in enumerate(grants):
                    new = change(grant)
                    if new is not grant:
                        edits.append((grants, position, grant, new))
                    if new is not None:
                        kept.append(new)
                grants[:] = kept
            self._bump()

        def undo() -> None:
            # in order: each reinsertion finds the grants before it back
            with self.mutex:
                for grants, position, old, new in edits:
                    if new is None:
                        grants.insert(position, old)
                    else:
                        grants[:] = [old if g is new else g for g in grants]
                self._bump()

        return undo

    # -------------------------------------------------------------- checks

    def _grants_for(self, user: str) -> list[Grant]:
        with self.mutex:
            return self._entry(user) + self._users[PUBLIC]

    def allows(
        self,
        user: str,
        action: str,
        obj: str,
        columns: set[str] | None = None,
    ) -> bool:
        """Whether ``user`` may perform ``action`` on ``obj`` (over ``columns``)."""
        return _covers(self.column_restrictions(user, action, obj), columns)

    def check(
        self,
        user: str,
        action: str,
        obj: str,
        columns: set[str] | None = None,
    ) -> None:
        """Raise :class:`PermissionDenied` unless :meth:`allows`; the error
        names the refused access and what the grants do cover."""
        granted = self.column_restrictions(user, action, obj)
        if not _covers(granted, columns):
            detail = f" (columns: {', '.join(sorted(columns))})" if columns else ""
            raise PermissionDenied(
                f"permission denied for user {user!r}: {action} on {obj}{detail}",
                access=(action, obj, columns),
                granted=granted,
            )

    def actions_on(self, user: str, obj: str) -> frozenset[str]:
        """The set of actions ``user`` holds on ``obj`` (whole or partial)."""
        key = (user.lower(), None, obj.lower())
        answer = self._memo.get(key, _MISSING)
        if answer is _MISSING:
            answer = self._remember(key, self._walk_actions)
        return answer

    def column_restrictions(self, user: str, action: str, obj: str) -> frozenset[str] | None:
        """What ``user``'s ``action`` grants on ``obj`` cover — the one
        coverage rule, read by :meth:`allows` and :meth:`check` too.

        ``None`` when the user holds a whole-object grant (or is the
        owner); otherwise the union of the user's and PUBLIC's granted
        column sets, as in PostgreSQL, which is empty when nothing is
        granted.
        """
        key = (user.lower(), action.upper(), obj.lower())
        answer = self._memo.get(key, _MISSING)
        if answer is _MISSING:
            answer = self._remember(key, self._walk_restrictions)
        return answer

    def _remember(
        self,
        key: tuple[str, str | None, str],
        walk: Callable[[str, str | None, str], Any],
    ) -> Any:
        """``walk(*key)``, kept in the memo unless the epoch moved while it
        ran (the walk may have read grants that are gone)."""
        epoch = self.epoch
        answer = walk(*key)
        with self.mutex:
            if self.epoch == epoch:
                if len(self._memo) >= MEMO_LIMIT:
                    self._memo = {}
                self._memo[key] = answer
        return answer

    def _walk_actions(self, user: str, _: None, obj: str) -> frozenset[str]:
        """:meth:`actions_on` from the grants themselves (lower-cased
        arguments)."""
        if self.is_owner(user):
            return frozenset(ACTIONS)
        if not self.has_user(user):
            return frozenset()
        return frozenset(
            grant.action
            for grant in self._grants_for(user)
            if grant.obj in (obj, ALL_OBJECTS)
        )

    def _walk_restrictions(
        self, user: str, action: str, obj: str
    ) -> frozenset[str] | None:
        """:meth:`column_restrictions` from the grants themselves
        (lower-cased user and object, upper-cased action)."""
        if self.is_owner(user):
            return None
        if not self.has_user(user):
            return frozenset()
        columns: set[str] = set()
        for grant in self._grants_for(user):
            if grant.action != action or grant.obj not in (obj, ALL_OBJECTS):
                continue
            if grant.columns is None:
                return None
            columns |= grant.columns
        return frozenset(columns)


def _covers(granted: frozenset[str] | None, columns: set[str] | None) -> bool:
    """Whether an access to ``columns`` (``None``: the whole object) lies
    inside ``granted``, an answer of
    :meth:`PrivilegeManager.column_restrictions`."""
    if granted is None:
        return True
    if not granted or columns is None:
        return False
    return {c.lower() for c in columns} <= granted
