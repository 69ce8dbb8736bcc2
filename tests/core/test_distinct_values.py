"""``MinidbBinding.distinct_values`` ≡ the loop it replaced.

The scan that feeds value retrieval dedupes a column with
``dict.fromkeys``. This pins it to the first-seen loop over a set that it
replaced, on columns mixing the values Python equates across types
(``1`` / ``1.0`` / ``True``, ``0.0`` / ``-0.0``), distinct NaN objects,
NULLs and strings, at every limit from 0 to past the column's length.
"""

from hypothesis import given
from hypothesis import strategies as st

from repro.core import MinidbBinding
from repro.minidb import Database


def first_seen(values, limit):
    """The loop ``distinct_values`` ran before: distinct non-NULL values
    in first-seen order, stopping at ``limit`` (one value at least)."""
    seen, seen_set = [], set()
    for value in values:
        if value is None or value in seen_set:
            continue
        seen_set.add(value)
        seen.append(value)
        if len(seen) >= limit:
            break
    return seen


cells = st.one_of(
    st.none(),
    st.integers(min_value=-2, max_value=2),
    st.sampled_from([0.0, -0.0, 1.0, 2.5, True, False, "1", "a", ""]),
    # a new NaN object per draw: equal to nothing, itself included
    st.builds(float, st.just("nan")),
)


@given(column=st.lists(cells, max_size=20), data=st.data())
def test_distinct_values_keeps_the_first_seen_loop(column, data):
    db = Database(owner="admin")
    session = db.connect("admin")
    session.execute("CREATE TABLE t (id INT PRIMARY KEY, v TEXT)")
    heap = db.heap("t")
    for row_id, value in enumerate(column):
        heap.insert({"id": row_id, "v": value})
    limit = data.draw(st.integers(min_value=0, max_value=len(column) + 2))
    found = MinidbBinding(session).distinct_values("t", "v", limit)
    expected = first_seen(heap.column_values("v"), limit)
    # the very objects the heap holds: 1, 1.0 and True are not the same
    assert len(found) == len(expected)
    assert all(map(lambda a, b: a is b, found, expected)), (found, expected)
