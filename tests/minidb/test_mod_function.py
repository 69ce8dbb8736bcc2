"""``MOD(a, b)`` is ``a % b``: same value, same NULLs, same errors.

At the parent of PR 17 ``MOD`` was Python's floored ``%`` (``MOD(-3, 2)``
gave 1 where ``-3 % 2`` gives -1) and a zero divisor escaped as a raw
``ZeroDivisionError``.
"""

import pytest

from repro.core import BridgeScope, MinidbBinding
from repro.minidb import Database, DivisionByZeroError

VALUES = (-7, -3, -1, 0, 1, 3, 7, -7.5, 2.5)
GRID = [(a, b) for a in VALUES for b in VALUES]


@pytest.fixture(scope="module")
def db():
    database = Database(owner="admin")
    session = database.connect("admin")
    # the select tool is only exposed once there is something to select from
    session.execute("CREATE TABLE m (a INT)")
    session.execute("INSERT INTO m VALUES (1), (-3)")
    return database


@pytest.fixture(scope="module")
def session(db):
    return db.connect("admin")


def _outcome(run, sql):
    """The rows, or the class of the error the statement raised."""
    try:
        return run(sql)
    except Exception as exc:  # noqa: BLE001 - the class is what is compared
        return type(exc)


@pytest.mark.parametrize("a,b", GRID)
def test_mod_equals_percent_in_session(session, a, b):
    run = lambda sql: session.execute(sql).rows  # noqa: E731
    function = _outcome(run, f"SELECT MOD({a}, {b})")
    assert function == _outcome(run, f"SELECT {a} % {b}")
    if b == 0:
        assert function is DivisionByZeroError


@pytest.mark.parametrize("a,b", GRID)
def test_mod_equals_percent_through_select_tool(db, a, b):
    bridge = BridgeScope(MinidbBinding.for_user(db, "admin"))
    function = bridge.invoke("select", sql=f"SELECT MOD({a}, {b})")
    operator = bridge.invoke("select", sql=f"SELECT {a} % {b}")
    assert (function.is_error, function.error_code) == (
        operator.is_error, operator.error_code
    )
    if b == 0:
        assert function.error_code == "DivisionByZeroError"
    else:
        # same value; the header line names the expression, so skip it
        assert function.content.splitlines()[1:] == operator.content.splitlines()[1:]


def test_mod_sign_follows_the_dividend(session):
    assert session.execute(
        "SELECT MOD(-3, 2), MOD(3, -2), MOD(-7.5, 2), MOD(NULL, 2)"
    ).rows == [(-1, 1, -1.5, None)]


def test_mod_over_a_column_raises_sqlstate(session):
    with pytest.raises(DivisionByZeroError):
        session.execute("SELECT MOD(a, 0) FROM m")
    assert session.execute("SELECT MOD(a, 2) FROM m ORDER BY a").rows == [
        (-1,), (1,)
    ]
