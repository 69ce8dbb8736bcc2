"""Oracle for the planner's conjunct reader: :func:`planner.harvest_conjuncts`
and :func:`planner.pushdown_filter`.

Both read ``column op literal`` through one private reader,
``planner._atom``. Before it, four harvesters each recognised that shape
themselves, with their own name-resolution test: equality bindings (plus a
column/literal pair helper), range bindings, index unions and the
pushed-down scan filter. They are copied below verbatim (only renamed) as
the references, with the planner's ``_colmap`` the pushdown reference
read, which went when one :class:`planner.NameResolver` replaced the
planner's name-resolution helpers. The planner now reads which column a
reference names off the binder's slots; the new side gives a reference
the slot of a column of the scanned binding exactly when that resolver,
built from the same statement sources, let the reference bind there —
the name rule the references were written against.

Hypothesis draws WHERE trees over column/literal comparisons in both
operand orders (NULL literals and ``<>`` included), BETWEEN and NOT
BETWEEN, IN and NOT IN lists (NULL, duplicate and ``1``/``1.0``/``TRUE``
members), subquery IN, and OR-chains that mix columns, shapes and nested
AND. Column references are unqualified, qualified with this binding (in
either case) or with another one; statement sources may list a column
twice or not know their columns (``None``). The new functions must answer
exactly what the references answer: the same equalities (last conjunct
wins), ranges and unions, and the same pushed-down conjuncts — compared by
``repr``, so ``1``, ``1.0`` and ``TRUE`` are told apart.

The pins run each statement through both implementations (``[reference]``
and ``[new]`` ids), so they also check the references by hand.
"""

from dataclasses import dataclass
from typing import Any

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.minidb import ast_nodes as ast
from repro.minidb import parse, planner
from repro.minidb.analysis import NameResolver
from repro.minidb.planner import (
    NULL_REJECTING_COMPARISONS,
    RangeBinding,
    UnionBinding,
    conjoin,
    split_conjuncts,
)
from repro.minidb.sqlgen import expr_to_sql
from repro.minidb.storage import ordering_key_element

# --------------------------------------------------------------------------
# the four harvesters before planner._atom, verbatim
# --------------------------------------------------------------------------


@dataclass
class ReferenceEqualityBinding:
    """One ``column = constant`` conjunct usable for index probing."""

    column: str  # lower-cased
    value: Any


def reference_extract_equality_bindings(
    where: ast.Expr | None,
    binding: str,
    statement_sources: list[tuple[str, list[str] | None]] | None = None,
) -> list[ReferenceEqualityBinding]:
    bindings: list[ReferenceEqualityBinding] = []
    lowered = binding.lower()
    for conjunct in split_conjuncts(where):
        if isinstance(conjunct, ast.BinaryOp) and conjunct.op == "=":
            column_ref, literal = reference_column_literal_pair(
                conjunct.left, conjunct.right, lowered
            )
            if column_ref is None or literal is None or literal.value is None:
                continue
            if (
                column_ref.table is None
                and statement_sources is not None
                and not reference_unqualified_unambiguous(
                    column_ref.name.lower(), statement_sources
                )
            ):
                continue
            bindings.append(
                ReferenceEqualityBinding(column_ref.name.lower(), literal.value)
            )
    return bindings


def reference_unqualified_unambiguous(
    name: str, statement_sources: list[tuple[str, list[str] | None]] | None
) -> bool:
    if statement_sources is None:
        return False
    count = 0
    for _, columns in statement_sources:
        if columns is None:
            return False
        count += sum(1 for c in columns if c.lower() == name)
    return count == 1


#: comparison op -> (is_lower_bound, inclusive) with the column on the left
REFERENCE_RANGE_OPS = {
    ">": (True, False),
    ">=": (True, True),
    "<": (False, False),
    "<=": (False, True),
}


def reference_extract_range_bindings(
    where: ast.Expr | None,
    binding: str,
    statement_sources: list[tuple[str, list[str] | None]] | None = None,
) -> dict[str, RangeBinding]:
    lowered = binding.lower()
    ranges: dict[str, RangeBinding] = {}

    def usable(column_ref: ast.ColumnRef) -> bool:
        if column_ref.table is not None:
            return column_ref.table.lower() == lowered
        return statement_sources is None or reference_unqualified_unambiguous(
            column_ref.name.lower(), statement_sources
        )

    def bind(column: str) -> RangeBinding:
        return ranges.setdefault(column, RangeBinding(column))

    for conjunct in split_conjuncts(where):
        if isinstance(conjunct, ast.BinaryOp) and conjunct.op in REFERENCE_RANGE_OPS:
            for column_side, literal_side, flip in (
                (conjunct.left, conjunct.right, False),
                (conjunct.right, conjunct.left, True),
            ):
                if (
                    isinstance(column_side, ast.ColumnRef)
                    and isinstance(literal_side, ast.Literal)
                    and literal_side.value is not None
                    and usable(column_side)
                ):
                    is_low, inclusive = REFERENCE_RANGE_OPS[conjunct.op]
                    if flip:  # literal <op> column reads backwards
                        is_low = not is_low
                    entry = bind(column_side.name.lower())
                    if is_low:
                        entry.tighten_low(literal_side.value, inclusive)
                    else:
                        entry.tighten_high(literal_side.value, inclusive)
                    break
        elif (
            isinstance(conjunct, ast.BetweenExpr)
            and not conjunct.negated
            and isinstance(conjunct.operand, ast.ColumnRef)
            and isinstance(conjunct.low, ast.Literal)
            and isinstance(conjunct.high, ast.Literal)
            and conjunct.low.value is not None
            and conjunct.high.value is not None
            and usable(conjunct.operand)
        ):
            entry = bind(conjunct.operand.name.lower())
            entry.tighten_low(conjunct.low.value, True)
            entry.tighten_high(conjunct.high.value, True)
    return ranges


def reference_split_disjuncts(expr: ast.Expr) -> list[ast.Expr]:
    if isinstance(expr, ast.BinaryOp) and expr.op == "OR":
        return reference_split_disjuncts(expr.left) + reference_split_disjuncts(
            expr.right
        )
    return [expr]


def reference_extract_union_bindings(
    where: ast.Expr | None,
    binding: str,
    statement_sources: list[tuple[str, list[str] | None]] | None = None,
) -> dict[str, UnionBinding]:
    lowered = binding.lower()
    unions: dict[str, UnionBinding] = {}

    def usable(column_ref: ast.ColumnRef) -> bool:
        if column_ref.table is not None:
            return column_ref.table.lower() == lowered
        return statement_sources is None or reference_unqualified_unambiguous(
            column_ref.name.lower(), statement_sources
        )

    def from_in(conjunct: ast.InExpr) -> UnionBinding | None:
        if conjunct.negated or not isinstance(conjunct.candidates, list):
            return None
        operand = conjunct.operand
        if not (isinstance(operand, ast.ColumnRef) and usable(operand)):
            return None
        if not all(isinstance(c, ast.Literal) for c in conjunct.candidates):
            return None
        entry = UnionBinding(operand.name.lower())
        seen: set = set()
        for candidate in conjunct.candidates:
            if candidate.value is None:
                continue  # NULL member: three-valued IN matches nothing
            key = ordering_key_element(candidate.value)
            if key not in seen:
                seen.add(key)
                entry.points.append(candidate.value)
        return entry

    def from_or(conjunct: ast.Expr) -> UnionBinding | None:
        disjuncts = reference_split_disjuncts(conjunct)
        if len(disjuncts) < 2:
            return None
        entry: UnionBinding | None = None
        seen: set = set()
        for disjunct in disjuncts:
            column: str | None = None
            if isinstance(disjunct, ast.BinaryOp) and disjunct.op in (
                ("=",) + tuple(REFERENCE_RANGE_OPS)
            ):
                for column_side, literal_side, flip in (
                    (disjunct.left, disjunct.right, False),
                    (disjunct.right, disjunct.left, True),
                ):
                    if (
                        isinstance(column_side, ast.ColumnRef)
                        and isinstance(literal_side, ast.Literal)
                        and literal_side.value is not None
                        and usable(column_side)
                    ):
                        column = column_side.name.lower()
                        value = literal_side.value
                        if disjunct.op == "=":
                            member: "RangeBinding | None" = None
                        else:
                            is_low, inclusive = REFERENCE_RANGE_OPS[disjunct.op]
                            if flip:
                                is_low = not is_low
                            member = RangeBinding(column)
                            if is_low:
                                member.tighten_low(value, inclusive)
                            else:
                                member.tighten_high(value, inclusive)
                        break
                else:
                    return None
            elif (
                isinstance(disjunct, ast.BetweenExpr)
                and not disjunct.negated
                and isinstance(disjunct.operand, ast.ColumnRef)
                and isinstance(disjunct.low, ast.Literal)
                and isinstance(disjunct.high, ast.Literal)
                and disjunct.low.value is not None
                and disjunct.high.value is not None
                and usable(disjunct.operand)
            ):
                column = disjunct.operand.name.lower()
                member = RangeBinding(column)
                member.tighten_low(disjunct.low.value, True)
                member.tighten_high(disjunct.high.value, True)
            elif isinstance(disjunct, ast.InExpr):
                in_entry = from_in(disjunct)
                if in_entry is None:
                    return None
                column = in_entry.column
                member = None
                value = None  # points merged below
            else:
                return None
            if entry is None:
                entry = UnionBinding(column)
            elif entry.column != column:
                return None  # disjunction spans columns: not one index
            if isinstance(disjunct, ast.InExpr):
                for point in in_entry.points:
                    key = ordering_key_element(point)
                    if key not in seen:
                        seen.add(key)
                        entry.points.append(point)
            elif member is None:
                key = ordering_key_element(value)
                if key not in seen:
                    seen.add(key)
                    entry.points.append(value)
            else:
                entry.ranges.append(member)
        return entry

    for conjunct in split_conjuncts(where):
        if isinstance(conjunct, ast.InExpr):
            entry = from_in(conjunct)
        elif isinstance(conjunct, ast.BinaryOp) and conjunct.op == "OR":
            entry = from_or(conjunct)
        else:
            continue
        if entry is None:
            continue
        existing = unions.get(entry.column)
        # conjuncts intersect: the smaller candidate set is the better scan
        if existing is None or entry.members < existing.members:
            unions[entry.column] = entry
    return unions


def reference_colmap(columns: list[str] | None) -> dict[str, str | None] | None:
    if columns is None:
        return None
    mapping: dict[str, str | None] = {}
    for column in columns:
        key = column.lower()
        mapping[key] = None if key in mapping else column
    return mapping


def reference_extract_pushdown_filter(
    where: ast.Expr | None,
    binding: str,
    columns: list[str],
    statement_sources: list[tuple[str, list[str] | None]] | None = None,
) -> ast.Expr | None:
    if where is None:
        return None
    own_columns = reference_colmap(columns)  # a name exposed twice is ambiguous: not pushed
    lowered = binding.lower()
    kept: list[ast.Expr] = []
    for conjunct in split_conjuncts(where):
        if not (
            isinstance(conjunct, ast.BinaryOp)
            and conjunct.op in NULL_REJECTING_COMPARISONS
        ):
            continue
        for column_side, literal_side in (
            (conjunct.left, conjunct.right),
            (conjunct.right, conjunct.left),
        ):
            if (
                isinstance(column_side, ast.ColumnRef)
                and isinstance(literal_side, ast.Literal)
                and literal_side.value is not None
                and own_columns.get(column_side.name.lower()) is not None
                and (
                    column_side.table.lower() == lowered
                    if column_side.table is not None
                    else reference_unqualified_unambiguous(
                        column_side.name.lower(), statement_sources
                    )
                )
            ):
                kept.append(conjunct)
                break
    return conjoin(kept)


def reference_column_literal_pair(
    left: ast.Expr, right: ast.Expr, binding: str
) -> tuple[ast.ColumnRef | None, ast.Literal | None]:
    for column_side, literal_side in ((left, right), (right, left)):
        if isinstance(column_side, ast.ColumnRef) and isinstance(
            literal_side, ast.Literal
        ):
            if column_side.table is None or column_side.table.lower() == binding:
                return column_side, literal_side
    return None, None


# --------------------------------------------------------------------------
# both implementations behind one signature
# --------------------------------------------------------------------------


def reference_harvest(where, binding, statement_sources):
    """(equalities, ranges, unions) as ``plan_table_scan`` used to assemble
    them from three harvesters."""
    equalities = {
        b.column: b.value
        for b in reference_extract_equality_bindings(where, binding, statement_sources)
    }
    return (
        equalities,
        reference_extract_range_bindings(where, binding, statement_sources),
        reference_extract_union_bindings(where, binding, statement_sources),
    )


def resolves(resolver, ref):
    """Whether ``resolver`` names one column by ``ref``; a bare name binds
    only when every source's columns are known."""
    name = ref.name.lower()
    if ref.table is None:
        known = not resolver.unknown and name in resolver.unqualified
        return known and name not in resolver.ambiguous
    key = f"{ref.table.lower()}.{name}"
    return key in resolver.qualified and key not in resolver.ambiguous


def slots_for(where, binding, usable):
    """Slots giving each reference in ``where`` that ``usable`` accepts a
    column of ``binding``; every other reference binds elsewhere."""
    slots = {}
    stack = [] if where is None else [where]
    while stack:
        expr = stack.pop()
        if isinstance(expr, ast.ColumnRef):
            if usable(expr):
                slots[id(expr)] = (0, binding, expr.name)
        else:
            stack.extend(ast.children(expr))
    return slots


def new_harvest(where, binding, statement_sources):
    # the block's resolver over the same sources; None: a single source
    lowered = binding.lower()
    resolver = None if statement_sources is None else NameResolver(statement_sources)

    def usable(ref):
        if ref.table is not None:
            return ref.table.lower() == lowered
        return resolver is None or resolves(resolver, ref)

    harvest = planner.harvest_conjuncts(where, binding, slots_for(where, binding, usable))
    return (harvest.equalities, harvest.ranges, harvest.unions)


def new_pushdown(where, binding, columns, statement_sources):
    own = NameResolver([(binding, columns)])
    resolver = NameResolver(statement_sources)

    def usable(ref):
        return resolves(own, ref) and (ref.table is not None or resolves(resolver, ref))

    return planner.pushdown_filter(where, binding, slots_for(where, binding, usable))


HARVESTS = {"reference": reference_harvest, "new": new_harvest}
PUSHDOWNS = {"reference": reference_extract_pushdown_filter, "new": new_pushdown}


def where_of(sql):
    return parse(f"SELECT * FROM t WHERE {sql}").where


# --------------------------------------------------------------------------
# pins: each statement through both implementations
# --------------------------------------------------------------------------

HARVEST_PINS = [
    # (WHERE, statement sources, (equalities, ranges, unions) as plain values)
    ("a = 1 AND 5 = B AND a = 2", None, ({"a": 2, "b": 5}, {}, {})),
    ("5 < a AND 9 >= a", None, ({}, {"a": (5, False, 9, True)}, {})),
    ("a BETWEEN 2 AND 8 AND a > 3", None, ({}, {"a": (3, False, 8, True)}, {})),
    ("a NOT BETWEEN 2 AND 8 AND a > NULL AND a = NULL AND a <> 1", None, ({}, {}, {})),
    ("a IN (5, NULL, 5, 1, 1.0, TRUE)", None, ({}, {}, {"a": ([5, 1], [])})),
    ("a NOT IN (1, 2) AND b IN (SELECT a FROM u) AND c IN (1, d)", None, ({}, {}, {})),
    (
        "a < 2 OR a BETWEEN 5 AND 7 OR a = 11 OR a IN (11, 12)",
        None,
        ({}, {}, {"a": ([11, 12], [(None, True, 2, False), (5, True, 7, True)])}),
    ),
    ("a = 1 OR a <> 2", None, ({}, {}, {})),
    ("a = 1 OR b = 2", None, ({}, {}, {})),
    ("a = 1 OR (a = 2 AND b = 3)", None, ({}, {}, {})),
    ("a IN (1, 2, 3) AND a IN (2, 3) AND a IN (4, 5)", None, ({}, {}, {"a": ([2, 3], [])})),
    ("t.a = 1 AND T.b > 2 AND u.c = 3", None, ({"a": 1}, {"b": (2, False, None, True)}, {})),
    # statement sources: unqualified names bind only when unambiguous
    ("a = 1 AND b = 2 AND t.b < 9", [("t", ["a", "b"]), ("u", ["b"])],
     ({"a": 1}, {"b": (None, True, 9, False)}, {})),
    ("a = 1 AND t.a > 0", [("t", ["a"]), ("v", None)], ({}, {"a": (0, False, None, True)}, {})),
]  # fmt: skip


def plain(harvest):
    """A harvest as plain values: ranges become (low, incl_low, high,
    incl_high), unions (points, ranges)."""
    equalities, ranges, unions = harvest

    def bounds(rng):
        return (rng.low, rng.incl_low, rng.high, rng.incl_high)

    return (
        equalities,
        {column: bounds(rng) for column, rng in ranges.items()},
        {
            column: (union.points, [bounds(rng) for rng in union.ranges])
            for column, union in unions.items()
        },
    )


@pytest.mark.parametrize("implementation", HARVESTS)
@pytest.mark.parametrize("sql, sources, expected", HARVEST_PINS)
def test_harvest_pins(implementation, sql, sources, expected):
    harvest = HARVESTS[implementation](where_of(sql), "t", sources)
    assert repr(plain(harvest)) == repr(expected)


PUSHDOWN_PINS = [
    # (WHERE, own columns, statement sources, pushed-down SQL or None)
    ("a = 1 AND t.b > 2 AND c IS NULL", ["a", "b", "c"], [("t", ["a", "b", "c"]), ("u", ["x"])],
     "((a = 1) AND (t.b > 2))"),
    ("u.a = 1 AND b = 2 AND 3 <> t.b", ["b"], [("t", ["b"]), ("u", ["a"])], "((b = 2) AND (3 <> t.b))"),
    ("b = 2", ["b"], [("t", ["b"]), ("u", ["b"])], None),
    ("b = 2", ["b"], [("t", ["b"]), ("v", None)], None),
    ("t.a = 1 AND t.b = 2", ["a", "A", "b"], [("t", ["a", "A", "b"])], "(t.b = 2)"),
    ("t.a BETWEEN 1 AND 2 AND t.a IN (1, 2) AND t.a = NULL", ["a"], [("t", ["a"])], None),
]  # fmt: skip


@pytest.mark.parametrize("implementation", PUSHDOWNS)
@pytest.mark.parametrize("sql, columns, sources, expected", PUSHDOWN_PINS)
def test_pushdown_pins(implementation, sql, columns, sources, expected):
    pushed = PUSHDOWNS[implementation](where_of(sql), "t", columns, sources)
    assert (None if pushed is None else expr_to_sql(pushed)) == expected


# --------------------------------------------------------------------------
# the property: random WHERE trees, new == reference
# --------------------------------------------------------------------------

COMPARISONS = ("=", "<>", "<", "<=", ">", ">=")
VALUES = (None, 0, 1, 1.0, True, False, 2, -3, 2.5, "x", "1", "")
OWN_NAMES = ("a", "b", "A", "c")

refs = st.builds(
    ast.ColumnRef,
    st.sampled_from(("a", "b", "A")),
    st.sampled_from((None, None, "t", "t", "T", "u")),
)
literals = st.builds(ast.Literal, st.sampled_from(VALUES))
member_ops = st.sampled_from(("=", "=", "<", "<=", ">", ">=", "<>"))
rarely = st.sampled_from((False, False, False, True))
SUBQUERY = parse("SELECT a FROM u")


def members(column):
    """Predicates over ``column`` a union may be built from — and the ones
    that disqualify it (``<>``, NOT BETWEEN / NOT IN, NULL literals)."""
    return st.one_of(
        st.builds(ast.BinaryOp, member_ops, column, literals),
        st.builds(ast.BinaryOp, member_ops, literals, column),
        st.builds(ast.BetweenExpr, column, literals, literals, rarely),
        st.builds(
            ast.InExpr, column, st.lists(literals, min_size=1, max_size=4), rarely
        ),
    )


def atoms(column):
    """Every shape the reader answers, and its near misses."""
    operand = st.one_of(column, literals)
    return st.one_of(
        members(column),
        members(column),
        st.builds(ast.BinaryOp, st.sampled_from(COMPARISONS), operand, operand),
        st.builds(ast.BetweenExpr, operand, operand, operand, st.booleans()),
        st.builds(
            ast.InExpr,
            operand,
            st.one_of(st.lists(operand, min_size=1, max_size=3), st.just(SUBQUERY)),
            st.booleans(),
        ),
        st.builds(ast.IsNullExpr, column, st.booleans()),
        st.builds(ast.LikeExpr, column, st.just(ast.Literal("x%"))),
        st.builds(
            ast.UnaryOp,
            st.just("NOT"),
            st.builds(ast.BinaryOp, st.just("="), column, literals),
        ),
    )


def fold(draw, op, parts):
    """``parts`` joined by ``op`` in a drawn association, order kept."""
    parts = list(parts)
    while len(parts) > 1:
        at = draw(st.integers(0, len(parts) - 2))
        parts[at : at + 2] = [ast.BinaryOp(op, parts[at], parts[at + 1])]
    return parts[0]


chain_member = members(st.shared(refs, key="chain column"))
spoilers = st.one_of(
    atoms(refs),
    members(refs),
    st.builds(ast.BinaryOp, st.just("AND"), chain_member, chain_member),
)


@st.composite
def or_chains(draw):
    """Union members over one column — the same one within a test case, so
    several chains compete for it. Half the chains get one disjunct
    swapped for another atom, a member over a drawn column, or a nested
    AND."""
    parts = draw(st.lists(chain_member, min_size=2, max_size=4))
    if draw(st.booleans()):
        parts[draw(st.integers(0, len(parts) - 1))] = draw(spoilers)
    return fold(draw, "OR", parts)


conjuncts = st.one_of(*[atoms(refs)] * 2, or_chains())


@st.composite
def wheres(draw):
    parts = draw(st.lists(conjuncts, max_size=5))
    return fold(draw, "AND", parts) if parts else None


bindings = st.sampled_from(("t", "T"))
source_lists = st.lists(
    st.tuples(
        st.sampled_from(("t", "u", "v")),
        st.one_of(st.none(), st.lists(st.sampled_from(OWN_NAMES), max_size=3)),
    ),
    min_size=1,
    max_size=3,
)


@settings(max_examples=1500, deadline=None)
@given(wheres(), bindings, st.one_of(st.none(), source_lists))
@example(where_of("5 < a AND 9 >= a AND 2 = b"), "t", None)
@example(where_of("a IN (1, 1.0, TRUE, NULL) AND b = 1 OR b <> 2"), "t", None)
@example(where_of("(a = 1 OR a <> 2) AND (b IN (1, 2) OR b = 3)"), "t", None)
def test_harvest_equals_the_three_harvesters(where, binding, sources):
    assert repr(new_harvest(where, binding, sources)) == repr(
        reference_harvest(where, binding, sources)
    )


@settings(max_examples=1500, deadline=None)
@given(
    wheres(),
    bindings,
    st.lists(st.sampled_from(OWN_NAMES), min_size=1, max_size=4),
    source_lists,
)
@example(where_of("t.a BETWEEN 1 AND 2 AND t.a = 3"), "t", ["a"], [("t", ["a"])])
@example(where_of("1 < a AND t.a IN (1) AND a <> 2"), "t", ["a", "b"], [("t", ["a"])])
def test_pushdown_equals_the_pushdown_harvester(where, binding, columns, sources):
    assert repr(PUSHDOWNS["new"](where, binding, columns, sources)) == repr(
        reference_extract_pushdown_filter(where, binding, columns, sources)
    )
