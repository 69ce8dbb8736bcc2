"""minidb — a from-scratch relational database engine.

This package is the PostgreSQL stand-in for the BridgeScope reproduction:
SQL parsing, query execution with joins/aggregates/subqueries, ACID
transactions via undo logging, PK/FK/UNIQUE/NOT NULL/CHECK constraints,
views, secondary indexes, and a PostgreSQL-style privilege system with
table- and column-level grants.

Storage is pluggable (:mod:`repro.minidb.engines`): databases are
in-memory by default, while ``Database.open(path)`` mounts a durable
engine whose write-ahead log and snapshot files survive restarts with
exact crash-recovery semantics.

Public entry points: :class:`Database`, :class:`Session`,
:class:`ResultSet`, :func:`parse`, :func:`analyze`, plus the error
taxonomy in :mod:`repro.minidb.errors`.
"""

from .analysis import ObjectAccess, StatementAnalysis, analyze
from .catalog import Catalog, Column, ForeignKey, IndexSchema, TableSchema, ViewSchema
from .database import Database, Session
from .engines import DurableEngine, InMemoryEngine, StorageEngine
from .errors import (
    CatalogError,
    CheckViolation,
    DivisionByZeroError,
    DuplicateObjectError,
    ExecutionError,
    ForeignKeyViolation,
    IntegrityError,
    InvalidColumnReferenceError,
    MiniDBError,
    NotNullViolation,
    PermissionDenied,
    PersistenceError,
    SQLSyntaxError,
    StorageFailedError,
    TransactionError,
    TypeMismatchError,
    UniqueViolation,
    UnknownColumnError,
    UnknownTableError,
)
from .parser import parse, parse_script
from .privileges import ACTIONS, PrivilegeManager
from .result import ResultSet

__all__ = [
    "ACTIONS",
    "Catalog",
    "CatalogError",
    "CheckViolation",
    "Column",
    "Database",
    "DivisionByZeroError",
    "DuplicateObjectError",
    "DurableEngine",
    "ExecutionError",
    "ForeignKey",
    "ForeignKeyViolation",
    "InMemoryEngine",
    "IndexSchema",
    "IntegrityError",
    "InvalidColumnReferenceError",
    "MiniDBError",
    "NotNullViolation",
    "ObjectAccess",
    "PermissionDenied",
    "PersistenceError",
    "PrivilegeManager",
    "ResultSet",
    "SQLSyntaxError",
    "Session",
    "StatementAnalysis",
    "StorageEngine",
    "StorageFailedError",
    "TableSchema",
    "TransactionError",
    "TypeMismatchError",
    "UniqueViolation",
    "UnknownColumnError",
    "UnknownTableError",
    "ViewSchema",
    "analyze",
    "parse",
    "parse_script",
]
