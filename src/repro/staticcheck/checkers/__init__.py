"""Checker implementations — importing this package registers every rule."""

from . import (  # noqa: F401  — import-for-registration
    ast_frozen,
    broad_except,
    cond_wait,
    encapsulation,
    error_taxonomy,
    fs_seam,
    guarded_by,
    metric_registration,
    planner_seam,
)
