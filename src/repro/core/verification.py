"""Object-level tool verification (paper Section 2.3, mechanism 2).

Even though BridgeScope only exposes privilege-compatible tools,
hallucinated or injected SQL can still reference forbidden objects or smuggle
a different action through a tool (e.g. a DELETE string passed to the
``select`` tool). :class:`SqlVerifier` statically analyzes every SQL string
before execution. It keeps the tool-side rules — the tool's action, the
transaction tools, the user's security policy, no GRANT/REVOKE, and SELECT
on every object for a ``system.*`` view (``system.statements`` shows other
users' SQL) — and asks the database for its privilege verdict
(:meth:`~repro.core.interfaces.DatabaseBinding.authorize`) instead of
keeping a copy of the rule. The database authorizes again when the
statement runs: two calls, one rule.

Violations raise :class:`SecurityViolation` (non-retriable) — the statement
never reaches the database.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..mcp import ToolError
from .config import SecurityPolicy
from .interfaces import AccessFootprint, DatabaseBinding


class SecurityViolation(ToolError):
    """A rule-based security rejection; not retriable by rephrasing SQL."""

    def __init__(self, message: str):
        super().__init__(message, retriable=False)


@dataclass
class AuditRecord:
    """One verification decision, for the security audit trail."""

    user: str
    sql: str
    action: str
    objects: list[str]
    allowed: bool
    reason: str = ""


@dataclass
class AuditLog:
    """Append-only log of verification decisions."""

    records: list[AuditRecord] = field(default_factory=list)
    max_records: int = 10_000

    def append(self, record: AuditRecord) -> None:
        if len(self.records) >= self.max_records:
            del self.records[: self.max_records // 10]
        self.records.append(record)

    def rejections(self) -> list[AuditRecord]:
        return [r for r in self.records if not r.allowed]

    def render(self, last: int = 20) -> str:
        lines = []
        for record in self.records[-last:]:
            verdict = "ALLOW" if record.allowed else "DENY "
            detail = f" ({record.reason})" if record.reason else ""
            lines.append(
                f"{verdict} {record.user}: {record.action} on "
                f"{', '.join(record.objects) or '-'}{detail}"
            )
        return "\n".join(lines)


class SqlVerifier:
    def __init__(self, binding: DatabaseBinding, policy: SecurityPolicy):
        self.binding = binding
        self.policy = policy
        #: counters for benchmarks / audits
        self.verified = 0
        self.rejected = 0
        self.audit = AuditLog()

    def verify(self, sql: str, expected_action: str | None = None) -> AccessFootprint:
        """Verify ``sql``; returns its footprint or raises SecurityViolation."""
        footprint = self.binding.analyze_sql(sql)
        try:
            self._check(footprint, expected_action)
        except SecurityViolation as violation:
            self.rejected += 1
            self._record(sql, footprint, violation.message)
            raise
        self.verified += 1
        self._record(sql, footprint)
        return footprint

    def _record(self, sql: str, footprint: AccessFootprint, reason: str = "") -> None:
        user, objects = self.binding.user, sorted({o for _, o, _ in footprint.accesses})
        record = AuditRecord(user, sql, footprint.action, objects, not reason, reason)
        self.audit.append(record)

    def _check(self, footprint: AccessFootprint, expected_action: str | None) -> None:
        if footprint.is_transaction_control:
            if expected_action not in (None, "TRANSACTION"):
                raise SecurityViolation(
                    "transaction control statements must use the dedicated "
                    "begin/commit/rollback tools"
                )
            return
        if expected_action is not None and footprint.action != expected_action:
            raise SecurityViolation(
                f"this tool only executes {expected_action} statements, "
                f"got a {footprint.action} statement"
            )
        if not self.policy.permits_action(footprint.action):
            raise SecurityViolation(
                f"action {footprint.action} is blocked by the user's security policy"
            )
        for action, obj, columns in footprint.accesses:
            if action == "GRANT":
                raise SecurityViolation(
                    "GRANT/REVOKE are not available through BridgeScope tools"
                )
            if not self.policy.permits_action(action):
                raise SecurityViolation(
                    f"action {action} (required on {obj}) is blocked by the "
                    "user's security policy"
                )
            if not self.policy.permits_object(obj):
                raise SecurityViolation(
                    f"object {obj!r} is not accessible under the user's "
                    "security policy"
                )
            if action == "SELECT" and obj.startswith("system."):
                self._refuse(AccessFootprint(action, [(action, "*", columns)]), obj)
        self._refuse(footprint)

    def _refuse(self, footprint: AccessFootprint, shown: str | None = None) -> None:
        """Raise the database's refusal of ``footprint``, if it has one, in
        the tool's words (``shown`` names the object asked for)."""
        denial = self.binding.authorize(footprint)
        if denial is None:
            return
        obj = shown or denial.obj
        target = f"{denial.action} " + ("(database-wide)" if obj == "*" else f"on {obj}")
        if obj == "*" or not denial.granted:
            message = f"{target} for user {self.binding.user!r}"
        elif denial.columns is None:
            message = f"whole-object {target} exceeds the column-level grant"
        else:
            missing = sorted({c.lower() for c in denial.columns} - denial.granted)
            message = f"{target} columns ({', '.join(missing)})"
        raise SecurityViolation(f"permission denied: {message}")
