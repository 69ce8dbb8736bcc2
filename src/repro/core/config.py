"""User-side security policy and toolkit configuration.

Implements the paper's user-side controls (Sections 2.2-2.3):

* object-level white/black-lists restricting which database objects the LLM
  may see and touch (within the user's own database privileges);
* action-level white/black-lists restricting which SQL-execution tools are
  exposed (e.g. block ``drop`` to prevent destructive operations);
* the adaptive-schema threshold *n* governing full vs hierarchical
  ``get_schema`` output;
* limits protecting tool output size.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class SecurityPolicy:
    """User-side security policy applied on top of database privileges.

    ``None`` white-lists mean "everything permitted"; black-lists always
    subtract. Matching is case-insensitive.
    """

    object_whitelist: frozenset[str] | None = None
    object_blacklist: frozenset[str] = frozenset()
    action_whitelist: frozenset[str] | None = None
    action_blacklist: frozenset[str] = frozenset()

    def __post_init__(self):
        if self.object_whitelist is not None:
            self.object_whitelist = frozenset(o.lower() for o in self.object_whitelist)
        self.object_blacklist = frozenset(o.lower() for o in self.object_blacklist)
        if self.action_whitelist is not None:
            self.action_whitelist = frozenset(a.upper() for a in self.action_whitelist)
        self.action_blacklist = frozenset(a.upper() for a in self.action_blacklist)

    # -------------------------------------------------------------- checks

    def permits_object(self, name: str) -> bool:
        key = name.lower()
        if key in self.object_blacklist:
            return False
        if self.object_whitelist is not None and key not in self.object_whitelist:
            return False
        return True

    def permits_action(self, action: str) -> bool:
        key = action.upper()
        if key in self.action_blacklist:
            return False
        if self.action_whitelist is not None and key not in self.action_whitelist:
            return False
        return True

    @classmethod
    def permissive(cls) -> "SecurityPolicy":
        return cls()

    @classmethod
    def read_only(cls) -> "SecurityPolicy":
        return cls(action_whitelist=frozenset({"SELECT"}))

    @classmethod
    def no_ddl(cls) -> "SecurityPolicy":
        return cls(action_blacklist=frozenset({"CREATE", "DROP", "ALTER"}))


@dataclass
class BridgeScopeConfig:
    """Tunable knobs of the toolkit."""

    #: adaptive schema threshold *n*: at most this many named objects are
    #: rendered in full by get_schema(); beyond it, only names are listed
    #: and get_object() retrieves details on demand (paper Section 2.2).
    schema_detail_threshold: int = 20
    #: default k for get_value top-k exemplar retrieval
    exemplar_top_k: int = 5
    #: hard cap on rows rendered into a tool result (LLM context guard)
    max_result_rows: int = 50
    #: maximum distinct values scanned per column for exemplar search
    exemplar_scan_limit: int = 10_000
    policy: SecurityPolicy = field(default_factory=SecurityPolicy.permissive)
