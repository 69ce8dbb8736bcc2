"""SQL conformance battery: dozens of query/result pairs on one database.

Modeled after SQLite's logic tests: a fixed dataset and a long parametrized
list of (query, expected) cases covering clause interactions the dedicated
unit tests don't combine.
"""

import pytest

from repro.minidb import Database


@pytest.fixture(scope="module")
def s():
    db = Database(owner="a")
    session = db.connect("a")
    session.execute(
        "CREATE TABLE nums (n INT PRIMARY KEY, parity TEXT, flt FLOAT)"
    )
    for n in range(1, 11):
        session.execute(
            f"INSERT INTO nums VALUES ({n}, "
            f"'{'even' if n % 2 == 0 else 'odd'}', {n * 1.5})"
        )
    session.execute("CREATE TABLE pets (id INT, owner TEXT, kind TEXT)")
    session.execute(
        "INSERT INTO pets VALUES (1, 'ann', 'cat'), (2, 'ann', 'dog'), "
        "(3, 'bob', 'cat'), (4, NULL, 'fish')"
    )
    return session


CASES = [
    # scalar expressions
    ("SELECT 2 + 3 * 4", [(14,)]),
    ("SELECT (2 + 3) * 4", [(20,)]),
    ("SELECT -2 * -3", [(6,)]),
    ("SELECT 10 % 4", [(2,)]),
    # % takes the dividend's sign and integer / is exact (PostgreSQL, sqlite).
    # At the parent of PR 15 every row but the -7 / 2 one fails: % was floored
    # (1, -1, 0.5) and the quotient went through a float (...000)
    ("SELECT -3 % 2", [(-1,)]),
    ("SELECT 3 % -2", [(1,)]),
    ("SELECT -7 / 2, 7 / -2, -7 / -2", [(-3, -3, 3)]),
    ("SELECT 100000000000000001 / 1", [(100000000000000001,)]),
    ("SELECT -7.5 % 2", [(-1.5,)]),
    ("SELECT 1 < 2 AND 2 < 3", [(True,)]),
    ("SELECT NOT FALSE", [(True,)]),
    ("SELECT 'a' || 'b' = 'ab'", [(True,)]),
    ("SELECT CASE 2 WHEN 1 THEN 'one' WHEN 2 THEN 'two' END", [("two",)]),
    # filters
    ("SELECT COUNT(*) FROM nums WHERE n BETWEEN 3 AND 5", [(3,)]),
    ("SELECT COUNT(*) FROM nums WHERE n NOT BETWEEN 3 AND 5", [(7,)]),
    ("SELECT COUNT(*) FROM nums WHERE parity = 'even'", [(5,)]),
    ("SELECT COUNT(*) FROM nums WHERE parity LIKE 'e%'", [(5,)]),
    ("SELECT COUNT(*) FROM nums WHERE n IN (1, 2, 3, 99)", [(3,)]),
    ("SELECT COUNT(*) FROM nums WHERE n NOT IN (1, 2)", [(8,)]),
    ("SELECT n FROM nums WHERE n > 8 ORDER BY n", [(9,), (10,)]),
    ("SELECT n FROM nums WHERE flt = 4.5", [(3,)]),
    # aggregates
    ("SELECT SUM(n) FROM nums", [(55,)]),
    ("SELECT AVG(n) FROM nums", [(5.5,)]),
    ("SELECT MIN(n), MAX(n) FROM nums", [(1, 10)]),
    ("SELECT COUNT(DISTINCT parity) FROM nums", [(2,)]),
    (
        "SELECT parity, SUM(n) FROM nums GROUP BY parity ORDER BY parity",
        [("even", 30), ("odd", 25)],
    ),
    (
        "SELECT parity FROM nums GROUP BY parity HAVING SUM(n) > 27",
        [("even",)],
    ),
    ("SELECT COUNT(*) FROM nums GROUP BY parity HAVING COUNT(*) = 5",
     [(5,), (5,)]),
    # ordering / paging
    ("SELECT n FROM nums ORDER BY n DESC LIMIT 3", [(10,), (9,), (8,)]),
    ("SELECT n FROM nums ORDER BY parity, n LIMIT 2", [(2,), (4,)]),
    ("SELECT n FROM nums ORDER BY 1 DESC LIMIT 1", [(10,)]),
    ("SELECT n * 2 AS d FROM nums ORDER BY d LIMIT 2", [(2,), (4,)]),
    ("SELECT n FROM nums ORDER BY n LIMIT 3 OFFSET 8", [(9,), (10,)]),
    # distinct & set ops
    ("SELECT DISTINCT parity FROM nums ORDER BY parity", [("even",), ("odd",)]),
    (
        "SELECT parity FROM nums UNION SELECT kind FROM pets ORDER BY parity",
        [("cat",), ("dog",), ("even",), ("fish",), ("odd",)],
    ),
    (
        "SELECT n FROM nums WHERE n < 4 INTERSECT SELECT n FROM nums WHERE n > 2",
        [(3,)],
    ),
    (
        "SELECT n FROM nums WHERE n < 4 EXCEPT SELECT n FROM nums WHERE n = 2 "
        "ORDER BY n",
        [(1,), (3,)],
    ),
    ("SELECT COUNT(*) FROM (SELECT parity FROM nums UNION ALL "
     "SELECT parity FROM nums) u", [(20,)]),
    # joins
    (
        "SELECT COUNT(*) FROM pets a JOIN pets b ON a.owner = b.owner",
        [(5,)],  # ann x ann (2x2) + bob x bob (1); NULL owner never matches
    ),
    (
        "SELECT a.kind, b.kind FROM pets a JOIN pets b "
        "ON a.owner = b.owner AND a.id < b.id",
        [("cat", "dog")],
    ),
    (
        "SELECT owner, COUNT(*) FROM pets WHERE owner IS NOT NULL "
        "GROUP BY owner ORDER BY owner",
        [("ann", 2), ("bob", 1)],
    ),
    # subqueries
    ("SELECT COUNT(*) FROM nums WHERE n > (SELECT AVG(n) FROM nums)", [(5,)]),
    (
        "SELECT kind FROM pets WHERE id = (SELECT MAX(id) FROM pets)",
        [("fish",)],
    ),
    (
        "SELECT n FROM nums x WHERE EXISTS "
        "(SELECT 1 FROM pets p WHERE p.id = x.n AND p.kind = 'cat') ORDER BY n",
        [(1,), (3,)],
    ),
    (
        "SELECT (SELECT COUNT(*) FROM pets p WHERE p.id <= x.n) FROM nums x "
        "WHERE x.n = 2",
        [(2,)],
    ),
    # NULL interactions
    ("SELECT COUNT(owner) FROM pets", [(3,)]),
    ("SELECT COUNT(*) FROM pets WHERE owner IS NULL", [(1,)]),
    ("SELECT COALESCE(owner, 'nobody') FROM pets WHERE id = 4", [("nobody",)]),
    ("SELECT kind FROM pets WHERE owner IS NULL OR owner = 'bob' ORDER BY kind",
     [("cat",), ("fish",)]),
    # functions in clauses
    ("SELECT UPPER(parity) FROM nums WHERE n = 1", [("ODD",)]),
    ("SELECT COUNT(*) FROM nums WHERE LENGTH(parity) = 3", [(5,)]),
    ("SELECT SUM(CASE WHEN parity = 'odd' THEN n ELSE 0 END) FROM nums", [(25,)]),
    ("SELECT ROUND(AVG(flt), 2) FROM nums", [(8.25,)]),
    ("SELECT MAX(LENGTH(kind)) FROM pets", [(4,)]),
]

@pytest.mark.parametrize("sql,expected", CASES, ids=[c[0][:48] for c in CASES])
def test_conformance(s, sql, expected):
    assert s.execute(sql).rows == expected
