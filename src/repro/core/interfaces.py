"""Database-agnostic interface consumed by the BridgeScope toolkit.

Per Section 2.6 of the paper, every BridgeScope tool is built on "a unified
set of database interfaces that can be implemented for any database
system". :class:`DatabaseBinding` is that set. The reference binding wraps
:mod:`repro.minidb`; tests include a second toy binding to demonstrate
portability.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import AbstractSet, Any

from ..mcp import Columns


@dataclass
class ObjectInfo:
    """Structured description of one database object (table or view)."""

    name: str
    kind: str  # "table" | "view"
    columns: list[dict[str, Any]] = field(default_factory=list)
    primary_key: list[str] = field(default_factory=list)
    foreign_keys: list[str] = field(default_factory=list)
    indexes: list[str] = field(default_factory=list)
    ddl: str = ""  # normalized CREATE statement


@dataclass
class SqlOutcome:
    """Uniform result of running SQL through a binding. ``rows`` may be
    column-backed; ``len(rows)`` is the row count either way."""

    columns: list[str]
    rows: list[tuple] | Columns
    rowcount: int
    status: str


@dataclass
class AccessFootprint:
    """Static analysis result for one SQL statement (binding-neutral)."""

    action: str
    accesses: list[tuple[str, str, set[str] | None]]
    # each entry: (action, object, columns-or-None-for-whole-object)
    is_transaction_control: bool = False
    #: the binding's own analysis of the statement, kept so that
    #: :meth:`DatabaseBinding.authorize` need not analyze it again
    parsed: Any = field(default=None, repr=False, compare=False)


@dataclass(frozen=True)
class Denial:
    """The database's refusal of one access, as its privilege rule reports it."""

    action: str
    obj: str  # "*" when the privilege needed is database-wide
    columns: frozenset[str] | None  # what the access needs; None = whole object
    granted: frozenset[str]  # what the user's grants cover; empty = nothing


class DatabaseBinding(abc.ABC):
    """Everything BridgeScope needs from a database, and nothing more."""

    # ----------------------------------------------------------- execution

    @abc.abstractmethod
    def run_sql(self, sql: str) -> SqlOutcome:
        """Execute one SQL statement in this binding's session.

        A SELECT's ``rows`` may be a column-backed
        :class:`~repro.mcp.Columns` rather than a list of tuples. It is not
        iterable or indexable: read it with ``len``, ``.columns`` or
        ``wire()`` (the list of tuples).
        """

    @abc.abstractmethod
    def analyze_sql(self, sql: str) -> AccessFootprint:
        """Statically analyze a statement without executing it."""

    # ------------------------------------------------------------- catalog

    @abc.abstractmethod
    def list_objects(self) -> list[str]:
        """Names of all top-level objects (tables and views), sorted."""

    @abc.abstractmethod
    def object_info(self, name: str) -> ObjectInfo:
        """Structured schema details of one object."""

    @abc.abstractmethod
    def distinct_values(self, table: str, column: str, limit: int) -> list[Any]:
        """Up to ``limit`` distinct non-NULL values of ``table.column``."""

    def retrieve_values(
        self,
        table: str,
        column: str,
        key: str,
        k: int,
        limit: int,
        synonyms: Any = None,
    ) -> list[tuple[Any, float]]:
        """Top-``k`` column values most relevant to ``key``, scored.

        The default brute-forces over :meth:`distinct_values` with
        :func:`repro.core.similarity.top_k`; bindings with an exemplar
        index (e.g. :class:`~repro.core.minidb_binding.MinidbBinding`)
        override this with an indexed implementation that must return the
        identical ranking.
        """
        from .similarity import top_k

        return top_k(key, self.distinct_values(table, column, limit), k, synonyms)

    # ---------------------------------------------------------- privileges

    @abc.abstractmethod
    def authorize(self, footprint: AccessFootprint) -> Denial | None:
        """The database's verdict on ``footprint``: its first refused
        access, or ``None`` when the bound user holds every privilege the
        accesses need. The one privilege rule is the database's; the
        verifier asks for it rather than walking grants itself."""

    @abc.abstractmethod
    def user_actions_on(self, obj: str) -> AbstractSet[str]:
        """Actions the bound user holds on ``obj`` (database-side); callers
        must not change the set (a binding may hand out a shared one)."""

    @abc.abstractmethod
    def user_column_restrictions(self, action: str, obj: str) -> frozenset[str] | None:
        """Columns the user's grant is limited to; None = whole object."""

    @abc.abstractmethod
    def all_actions(self) -> tuple[str, ...]:
        """The database's privilege action vocabulary."""

    # -------------------------------------------------------- transactions

    @abc.abstractmethod
    def in_transaction(self) -> bool:
        """Whether the bound session has an open explicit transaction."""

    @property
    @abc.abstractmethod
    def user(self) -> str:
        """The database user this binding operates as."""
