"""Error taxonomy for the minidb engine.

The hierarchy deliberately mirrors the error *channels* a PostgreSQL client
sees, because the agent layer reacts differently to each: a syntax error
triggers SQL repair, an unknown-identifier error triggers context retrieval,
and a permission error triggers task abort. Keeping the channels distinct is
what makes failure-driven agent behavior realistic.
"""

from __future__ import annotations


class MiniDBError(Exception):
    """Base class for every error raised by the engine."""

    #: short machine-readable code, similar in spirit to SQLSTATE classes
    code = "XX000"

    def __init__(self, message: str):
        super().__init__(message)
        self.message = message

    def __str__(self) -> str:  # pragma: no cover - trivial
        return f"{self.code}: {self.message}"


class SQLSyntaxError(MiniDBError):
    """Raised by the lexer/parser for malformed SQL."""

    code = "42601"


class CatalogError(MiniDBError):
    """Schema-level failure: unknown or duplicate object."""

    code = "42P01"


class UnknownTableError(CatalogError):
    code = "42P01"


class UnknownColumnError(CatalogError):
    code = "42703"


class DuplicateObjectError(CatalogError):
    code = "42P07"


class DuplicateAliasError(CatalogError):
    """One FROM clause binds a name twice."""

    code = "42712"


class DuplicateColumnError(CatalogError):
    """A table would have two columns whose names differ only in case."""

    code = "42701"


class TypeMismatchError(MiniDBError):
    """Value incompatible with the declared column type."""

    code = "42804"


class IntegrityError(MiniDBError):
    """Constraint violation (PK/FK/UNIQUE/NOT NULL/CHECK)."""

    code = "23000"


class NotNullViolation(IntegrityError):
    code = "23502"


class UniqueViolation(IntegrityError):
    code = "23505"


class ForeignKeyViolation(IntegrityError):
    code = "23503"


class CheckViolation(IntegrityError):
    code = "23514"


class PermissionDenied(MiniDBError):
    """User lacks the privilege required for the attempted operation. The
    privilege rule's refusal names the ``access`` it refused, ``(action,
    object, columns-or-None)`` (object ``"*"``: database-wide), and the
    columns the grants do cover (``granted``; empty: nothing granted)."""

    code = "42501"

    def __init__(self, message: str, access: tuple | None = None, granted=frozenset()):
        super().__init__(message)
        self.access, self.granted = access, granted


class TransactionError(MiniDBError):
    """Invalid transaction state transition (e.g. COMMIT with no BEGIN)."""

    code = "25000"


class LockError(TransactionError):
    """Base class for concurrency-control failures.

    Raised only when a lock manager is installed on the database (the
    multi-session service layer does this); single-threaded use never
    sees these. ``retryable`` tells the client whether simply re-issuing
    the work is the correct reaction.
    """

    code = "55P03"
    retryable = False


class LockTimeoutError(LockError):
    """A table lock could not be acquired within the configured timeout."""

    code = "55P03"
    retryable = True


class DeadlockError(LockError):
    """This session was chosen as the victim of a lock-wait cycle.

    The session's transaction has been (or is being) rolled back so its
    locks release and the other participants can proceed; the client
    should retry the whole transaction.
    """

    code = "40P01"
    retryable = True


class ExecutionError(MiniDBError):
    """Runtime evaluation failure (division by zero, bad cast, ...)."""

    code = "22000"


class DivisionByZeroError(ExecutionError):
    code = "22012"


class InvalidColumnReferenceError(ExecutionError):
    """An ORDER BY key the statement cannot sort by: an ordinal out of
    range, or a key after a set operation that names no output column.
    Refused when the statement is bound, as PostgreSQL refuses it at
    analysis; an :class:`ExecutionError` by descent, so a handler of
    that class still catches it."""

    code = "42P10"


class PersistenceError(MiniDBError):
    """Durable-storage failure: unreadable snapshot, corrupt WAL record
    (other than a torn tail, which recovery repairs), or I/O against a
    closed engine."""

    code = "58030"


class StorageFailedError(PersistenceError):
    """The durable engine is in fail-stop panic mode.

    Raised once a WAL append or fsync fails (the write may be torn on
    disk; continuing to append would put records of unknowable durability
    after it) and by every write attempted afterwards. Deliberately
    **not** retryable: re-issuing the statement against the same engine
    cannot succeed — the remedy is to close, fix the storage, and reopen
    (recovery truncates the torn tail). In-memory reads keep serving in
    the meantime: the service degrades to read-only instead of dying.
    """

    code = "57P02"
    retryable = False
