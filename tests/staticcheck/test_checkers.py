"""Fixture triples for every checker: a bad fixture the rule must flag,
a good fixture it must leave alone, and a suppressed fixture it must
honor. These are the proof that the CI gate actually guards each
invariant — a checker that never fires is indistinguishable from no
checker at all."""

import textwrap

from repro.staticcheck import ModuleSource, all_checkers, check_module


def run_rule(rule, source, rel_path="src/repro/fixture.py"):
    """Run one named rule over fixture source; returns (findings, suppressed)."""
    module = ModuleSource("fixture.py", textwrap.dedent(source), rel_path=rel_path)
    checker = all_checkers()[rule]()
    result = check_module(module, [checker])
    named = [f for f in result.findings if f.rule == rule]
    return named, [f for f in result.suppressed if f.rule == rule]


# ------------------------------------------------------------- guarded-by


GUARDED_BAD = """\
    import threading

    class Box:
        def __init__(self):
            self._mutex = threading.Lock()
            self._items = []  #: guarded by self._mutex

        def add(self, item):
            self._items.append(item)
"""

GUARDED_GOOD = """\
    import threading

    class Box:
        def __init__(self):
            self._mutex = threading.Lock()
            self._items = []  #: guarded by self._mutex

        def add(self, item):
            with self._mutex:
                self._items.append(item)
"""


def test_guarded_by_flags_unlocked_access():
    findings, _ = run_rule("guarded-by", GUARDED_BAD)
    assert len(findings) == 1
    assert "_items" in findings[0].message
    assert "_mutex" in findings[0].message
    assert findings[0].context == "Box.add"


def test_guarded_by_clean_when_locked():
    findings, _ = run_rule("guarded-by", GUARDED_GOOD)
    assert findings == []


def test_guarded_by_suppression_honored():
    source = GUARDED_BAD.replace(
        "self._items.append(item)\n",
        "self._items.append(item)"
        "  # staticcheck: ignore[guarded-by] — fixture rationale\n",
        1,
    ).replace("self._items = []  #", "self._items = []  #", 1)
    # only the access line is suppressed, not the annotation line
    findings, suppressed = run_rule("guarded-by", source)
    assert findings == []
    assert len(suppressed) == 1


def test_guarded_by_init_exempt_and_annotation_above():
    findings, _ = run_rule(
        "guarded-by",
        """\
        import threading

        class Box:
            def __init__(self):
                self._mutex = threading.Lock()
                #: guarded by self._mutex
                self._items = []
                self._items.append(0)  # __init__ happens-before sharing

            def peek(self):
                return self._items
        """,
    )
    assert len(findings) == 1
    assert findings[0].context == "Box.peek"


def test_guarded_by_requires_annotation_shifts_obligation():
    source = """\
        import threading

        class Box:
            def __init__(self):
                self._mutex = threading.Lock()
                self._items = []  #: guarded by self._mutex

            #: requires self._mutex
            def _append(self, item):
                self._items.append(item)

            def good(self, item):
                with self._mutex:
                    self._append(item)

            def bad(self, item):
                self._append(item)
        """
    findings, _ = run_rule("guarded-by", source)
    assert len(findings) == 1
    assert findings[0].context == "Box.bad"
    assert "_append" in findings[0].message


def test_guarded_by_condition_aliases_lock():
    findings, _ = run_rule(
        "guarded-by",
        """\
        import threading

        class Box:
            def __init__(self):
                self._mutex = threading.Lock()
                self._space = threading.Condition(self._mutex)
                self._items = []  #: guarded by self._mutex

            def add(self, item):
                with self._space:
                    self._items.append(item)
        """,
    )
    assert findings == []


# --------------------------------------------------------- encapsulation


def test_encapsulation_flags_foreign_private_access():
    findings, _ = run_rule(
        "encapsulation",
        """\
        def peek(obj):
            return obj._hidden
        """,
    )
    assert len(findings) == 1
    assert "_hidden" in findings[0].message


def test_encapsulation_allows_self_and_module_friends():
    findings, _ = run_rule(
        "encapsulation",
        """\
        class Owner:
            def __init__(self):
                self._secret = 1

            def mine(self):
                return self._secret

        def module_friend(owner):
            return owner._secret  # declared by a class in this module
        """,
    )
    assert findings == []


def test_encapsulation_suppression_honored():
    findings, suppressed = run_rule(
        "encapsulation",
        """\
        def peek(obj):
            return obj._hidden  # staticcheck: ignore[encapsulation] — fixture rationale
        """,
    )
    assert findings == []
    assert len(suppressed) == 1


def test_encapsulation_dunder_exempt():
    findings, _ = run_rule(
        "encapsulation",
        """\
        def name_of(obj):
            return obj.__class__.__name__
        """,
    )
    assert findings == []


# ------------------------------------------------------------- cond-wait


COND_WAIT_BAD = """\
    import threading

    class Q:
        def __init__(self):
            self._mutex = threading.Lock()
            self._ready = threading.Condition(self._mutex)
            self.items = []

        def get(self):
            with self._ready:
                if not self.items:
                    self._ready.wait()
                return self.items.pop()
"""


def test_cond_wait_flags_if_recheck():
    findings, _ = run_rule("cond-wait", COND_WAIT_BAD)
    assert len(findings) == 1
    assert "while" in findings[0].message


def test_cond_wait_clean_in_while_loop():
    findings, _ = run_rule(
        "cond-wait", COND_WAIT_BAD.replace("if not self.items:", "while not self.items:")
    )
    assert findings == []


def test_cond_wait_suppression_honored():
    source = COND_WAIT_BAD.replace(
        "self._ready.wait()",
        "self._ready.wait()  # staticcheck: ignore[cond-wait] — fixture rationale",
    )
    findings, suppressed = run_rule("cond-wait", source)
    assert findings == []
    assert len(suppressed) == 1


def test_cond_wait_ignores_event_wait():
    findings, _ = run_rule(
        "cond-wait",
        """\
        import threading

        class Latch:
            def __init__(self):
                self._done = threading.Event()

            def join(self):
                self._done.wait()  # Event.wait has no predicate to re-check
        """,
    )
    assert findings == []


# -------------------------------------------------------- error-taxonomy


MINIDB_PATH = "src/repro/minidb/fixture.py"


def test_error_taxonomy_flags_builtin_raise_in_minidb():
    findings, _ = run_rule(
        "error-taxonomy",
        """\
        def parse(text):
            raise ValueError("bad input")
        """,
        rel_path=MINIDB_PATH,
    )
    assert len(findings) == 1
    assert "ValueError" in findings[0].message


def test_error_taxonomy_allows_taxonomy_and_local_subclasses():
    findings, _ = run_rule(
        "error-taxonomy",
        """\
        from .errors import SQLSyntaxError

        class _Internal(ValueError):
            pass

        def parse(text):
            if not text:
                raise _Internal(text)
            raise SQLSyntaxError("unexpected end of input")
        """,
        rel_path=MINIDB_PATH,
    )
    assert findings == []


def test_error_taxonomy_out_of_scope_module_exempt():
    findings, _ = run_rule(
        "error-taxonomy",
        """\
        def validate(n):
            raise ValueError(n)
        """,
        rel_path="src/repro/bench/fixture.py",
    )
    assert findings == []


def test_error_taxonomy_suppression_honored():
    findings, suppressed = run_rule(
        "error-taxonomy",
        """\
        def parse(text):
            raise ValueError("bad input")  # staticcheck: ignore[error-taxonomy] — fixture rationale
        """,
        rel_path=MINIDB_PATH,
    )
    assert findings == []
    assert len(suppressed) == 1


# --------------------------------------------------------- broad-except


BROAD_BAD = """\
    def swallow():
        try:
            return risky()
        except Exception:
            return None
"""


def test_broad_except_flags_silent_handler():
    findings, _ = run_rule("broad-except", BROAD_BAD)
    assert len(findings) == 1


def test_broad_except_allows_reraise_and_tool_result():
    findings, _ = run_rule(
        "broad-except",
        """\
        def convert():
            try:
                return risky()
            except Exception as exc:
                raise WrappedError(str(exc)) from exc

        def fold():
            try:
                return risky()
            except Exception as exc:
                return ToolResult.error(str(exc), code=type(exc).__name__)

        def narrow():
            try:
                return risky()
            except (OSError, ValueError):
                return None
        """,
    )
    assert findings == []


def test_broad_except_flags_bare_except():
    findings, _ = run_rule(
        "broad-except",
        """\
        def swallow():
            try:
                return risky()
            except:
                return None
        """,
    )
    assert len(findings) == 1


def test_broad_except_suppression_honored():
    source = BROAD_BAD.replace(
        "except Exception:",
        "except Exception:  # staticcheck: ignore[broad-except] — fixture rationale",
    )
    findings, suppressed = run_rule("broad-except", source)
    assert findings == []
    assert len(suppressed) == 1


# ---------------------------------------------------------------- fs-seam


FS_SEAM_BAD = """\
    import json
    import os

    class Engine:
        def checkpoint(self, payload, tmp_path, final_path):
            with open(tmp_path, "w", encoding="utf-8") as fh:
                fh.write(json.dumps(payload))
                fh.flush()
                os.fsync(fh.fileno())
            os.replace(tmp_path, final_path)
"""

FS_SEAM_GOOD = """\
    import json

    class Engine:
        def checkpoint(self, payload, tmp_path, final_path):
            fh = self.fs.open(tmp_path, "w", encoding="utf-8")
            try:
                fh.write(json.dumps(payload))
                fh.flush()
                self.fs.fsync(fh)
            finally:
                fh.close()
            self.fs.replace(tmp_path, final_path)
"""

#: the rule is scoped to the durable stack; fixtures must claim that path
FS_SEAM_PATH = "src/repro/minidb/engines/durable.py"


def test_fs_seam_flags_bare_io_in_seamed_module():
    findings, _ = run_rule("fs-seam", FS_SEAM_BAD, rel_path=FS_SEAM_PATH)
    assert len(findings) == 3  # open(), os.fsync(), os.replace()
    messages = " ".join(f.message for f in findings)
    assert "open()" in messages
    assert "os.fsync()" in messages
    assert "os.replace()" in messages


def test_fs_seam_clean_through_the_seam():
    findings, _ = run_rule("fs-seam", FS_SEAM_GOOD, rel_path=FS_SEAM_PATH)
    assert findings == []


def test_fs_seam_ignores_unseamed_modules():
    # the same bare I/O outside the durable stack is not a finding — the
    # seam is a durability contract, not a repo-wide style rule
    findings, _ = run_rule("fs-seam", FS_SEAM_BAD, rel_path="src/repro/bench/cli.py")
    assert findings == []


def test_fs_seam_allows_pid_probes_and_path_helpers():
    findings, _ = run_rule(
        "fs-seam",
        """\
        import os

        class Engine:
            def _pid_alive(self, pid):
                try:
                    os.kill(pid, 0)
                except ProcessLookupError:
                    return False
                return True

            def lock_path(self):
                return os.path.join(self.path, "LOCK")
        """,
        rel_path=FS_SEAM_PATH,
    )
    assert findings == []


def test_fs_seam_suppression_honored():
    source = FS_SEAM_BAD.replace(
        'os.replace(tmp_path, final_path)',
        'os.replace(tmp_path, final_path)  # staticcheck: ignore[fs-seam] — fixture rationale',
    )
    findings, suppressed = run_rule("fs-seam", source, rel_path=FS_SEAM_PATH)
    assert len(findings) == 2
    assert len(suppressed) == 1


# ----------------------------------------------------- metric-registration


METRIC_BAD = """\
    from repro.obs.metrics import Counter, Histogram

    class Stats:
        def __init__(self):
            self.hits = Counter("hits_total")
            self.latency = Histogram("latency_seconds")
"""

METRIC_GOOD = """\
    from repro.obs.metrics import Gauge, MetricsRegistry

    class Stats:
        def __init__(self, registry: MetricsRegistry):
            self.hits = registry.counter("hits_total")
            self.latency = registry.histogram("latency_seconds")
            self.depth = registry.register(Gauge("queue_depth"))
"""


def test_metric_registration_flags_orphan_instruments():
    findings, _ = run_rule("metric-registration", METRIC_BAD)
    assert len(findings) == 2
    messages = " ".join(f.message for f in findings)
    assert "orphan Counter()" in messages
    assert "orphan Histogram()" in messages
    assert "registry.counter(...)" in messages


def test_metric_registration_clean_through_registry():
    findings, _ = run_rule("metric-registration", METRIC_GOOD)
    assert findings == []


def test_metric_registration_sees_through_module_alias():
    findings, _ = run_rule(
        "metric-registration",
        """\
        from repro.obs import metrics

        counter = metrics.Counter("loose_total")
        """,
    )
    assert len(findings) == 1
    assert "orphan Counter()" in findings[0].message


def test_metric_registration_ignores_unrelated_counters():
    # collections.Counter is not an instrument; import-awareness keeps it out
    findings, _ = run_rule(
        "metric-registration",
        """\
        from collections import Counter

        tally = Counter("aabbcc")
        """,
    )
    assert findings == []


def test_metric_registration_exempts_the_factory_module():
    findings, _ = run_rule(
        "metric-registration", METRIC_BAD, rel_path="src/repro/obs/metrics.py"
    )
    assert findings == []


def test_metric_registration_suppression_honored():
    source = METRIC_BAD.replace(
        'Counter("hits_total")',
        'Counter("hits_total")  # staticcheck: ignore[metric-registration] — fixture rationale',
    )
    findings, suppressed = run_rule("metric-registration", source)
    assert len(findings) == 1  # the Histogram orphan still fires
    assert len(suppressed) == 1


# ------------------------------------------------------------- planner-seam


PLANNER_SEAM_BAD = """\
    from repro.minidb import planner
    from repro.minidb.planner import choose_access_path, extract_equality_bindings

    class Executor:
        def scan(self, table, heap, where, binding):
            bindings = extract_equality_bindings(where, binding)
            path, index, key = choose_access_path(table, heap, bindings)
            return index.probe(key) if path.kind == "index" else None

        def join(self, kind, condition, where, lefts, right):
            return planner.plan_join(kind, condition, where, lefts, right.binding, right.columns)
"""

PLANNER_SEAM_GOOD = """\
    from repro.minidb.planner import plan_select, plan_table_scan

    class Executor:
        def run(self, stmt, resolve_table):
            plan = plan_select(stmt, self.db, resolve_table)
            for scan in plan.scans:
                self.scan(scan)

        def scan(self, scan):
            if scan.path.kind == "index":
                return scan.index.probe(scan.key)
            return None

        def targets(self, schema, binding, where):
            return self.scan(plan_table_scan(self.db, schema, binding, where))
"""

PLANNER_SEAM_PATH = "src/repro/minidb/executor.py"


def test_planner_seam_flags_planning_outside_the_planner():
    findings, _ = run_rule("planner-seam", PLANNER_SEAM_BAD, rel_path=PLANNER_SEAM_PATH)
    assert len(findings) == 3
    messages = " ".join(f.message for f in findings)
    assert "extract_equality_bindings()" in messages
    assert "choose_access_path()" in messages
    assert "plan_join()" in messages  # attribute calls count too
    assert findings[0].context == "Executor.scan"


def test_planner_seam_clean_when_consuming_the_plan():
    findings, _ = run_rule("planner-seam", PLANNER_SEAM_GOOD, rel_path=PLANNER_SEAM_PATH)
    assert findings == []


def test_planner_seam_exempts_the_planner_and_code_outside_src():
    for rel_path in ("src/repro/minidb/planner.py", "tests/minidb/test_range_scans.py"):
        findings, _ = run_rule("planner-seam", PLANNER_SEAM_BAD, rel_path=rel_path)
        assert findings == []


def test_planner_seam_suppression_honored():
    source = PLANNER_SEAM_BAD.replace(
        "bindings = extract_equality_bindings(where, binding)",
        "bindings = extract_equality_bindings(where, binding)"
        "  # staticcheck: ignore[planner-seam] — fixture rationale",
    )
    findings, suppressed = run_rule("planner-seam", source, rel_path=PLANNER_SEAM_PATH)
    assert len(findings) == 2
    assert len(suppressed) == 1


# --------------------------------------------------------------- ast-frozen
# (PR 15; the rule does not exist at the parent, so all four are new)


AST_FROZEN_BAD = """\
    import dataclasses
    from dataclasses import dataclass

    class Expr:
        pass

    @dataclass
    class Literal(Expr):
        value: object

    @dataclass(frozen=False)
    class ColumnRef(Expr):
        name: str

    @dataclasses.dataclass(eq=True)
    class Star(Expr):
        table: str = None
"""

AST_FROZEN_GOOD = """\
    import dataclasses
    from dataclasses import dataclass

    class Expr:
        pass

    @dataclass(frozen=True)
    class Literal(Expr):
        value: object

    @dataclasses.dataclass(eq=True, frozen=True)
    class Star(Expr):
        table: str = None
"""

AST_NODES_PATH = "src/repro/minidb/ast_nodes.py"


def test_ast_frozen_flags_every_unfrozen_dataclass():
    findings, _ = run_rule("ast-frozen", AST_FROZEN_BAD, rel_path=AST_NODES_PATH)
    assert [f.context for f in findings] == ["Literal", "ColumnRef", "Star"]
    assert "frozen=True" in findings[0].message


def test_ast_frozen_clean_when_every_node_is_frozen():
    findings, _ = run_rule("ast-frozen", AST_FROZEN_GOOD, rel_path=AST_NODES_PATH)
    assert findings == []


def test_ast_frozen_only_looks_at_the_ast_module():
    for rel_path in ("src/repro/minidb/planner.py", "tests/minidb/test_parser.py"):
        findings, _ = run_rule("ast-frozen", AST_FROZEN_BAD, rel_path=rel_path)
        assert findings == []


def test_ast_frozen_suppression_honored():
    source = AST_FROZEN_BAD.replace(
        "class Literal(Expr):",
        "class Literal(Expr):  # staticcheck: ignore[ast-frozen] — fixture rationale",
    )
    findings, suppressed = run_rule("ast-frozen", source, rel_path=AST_NODES_PATH)
    assert len(findings) == 2
    assert len(suppressed) == 1
