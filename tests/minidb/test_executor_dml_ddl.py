"""Integration tests for DML, DDL, and constraint enforcement."""

import os

import pytest

from repro.minidb import Database, analyze, parse
from repro.minidb.errors import (
    CheckViolation,
    DuplicateColumnError,
    DuplicateObjectError,
    ExecutionError,
    ForeignKeyViolation,
    NotNullViolation,
    TypeMismatchError,
    UniqueViolation,
    UnknownColumnError,
    UnknownTableError,
)


@pytest.fixture
def db():
    return Database(owner="admin")


@pytest.fixture
def s(db):
    return db.connect("admin")


@pytest.fixture
def store(s):
    s.execute(
        "CREATE TABLE items (id INT PRIMARY KEY, sku TEXT UNIQUE, "
        "price FLOAT NOT NULL CHECK (price >= 0), qty INT DEFAULT 0)"
    )
    s.execute(
        "CREATE TABLE orders (id INT PRIMARY KEY, item_id INT NOT NULL, "
        "n INT CHECK (n > 0), FOREIGN KEY (item_id) REFERENCES items(id))"
    )
    s.execute("INSERT INTO items VALUES (1, 'A-1', 9.5, 3), (2, 'A-2', 5.0, 0)")
    return s


class TestInsert:
    def test_basic_insert(self, store):
        result = store.execute("INSERT INTO items VALUES (3, 'A-3', 1.0, 1)")
        assert result.rowcount == 1
        assert store.scalar("SELECT COUNT(*) FROM items") == 3

    def test_multi_row_insert(self, store):
        result = store.execute(
            "INSERT INTO items VALUES (3, 'A-3', 1.0, 1), (4, 'A-4', 2.0, 2)"
        )
        assert result.rowcount == 2

    def test_insert_with_column_list(self, store):
        store.execute("INSERT INTO items (id, price) VALUES (3, 2.5)")
        row = store.query("SELECT * FROM items WHERE id = 3")[0]
        assert row["sku"] is None
        assert row["qty"] == 0  # default applied

    def test_insert_select(self, store):
        store.execute("CREATE TABLE archive (id INT, price FLOAT)")
        store.execute("INSERT INTO archive SELECT id, price FROM items")
        assert store.scalar("SELECT COUNT(*) FROM archive") == 2

    def test_value_count_mismatch(self, store):
        with pytest.raises(ExecutionError, match="values"):
            store.execute("INSERT INTO items (id, price) VALUES (3)")

    def test_unknown_target_column(self, store):
        with pytest.raises(UnknownColumnError):
            store.execute("INSERT INTO items (id, nope) VALUES (3, 1)")

    def test_type_coercion_string_to_int(self, store):
        store.execute("INSERT INTO items VALUES ('7', 'A-7', '2.5', 1)")
        assert store.scalar("SELECT price FROM items WHERE id = 7") == 2.5

    def test_type_mismatch_rejected(self, store):
        with pytest.raises(TypeMismatchError):
            store.execute("INSERT INTO items VALUES ('x', 'A-9', 1.0, 1)")

    def test_multi_row_insert_is_atomic(self, store):
        # second row violates the PK; first row must not survive
        with pytest.raises(UniqueViolation):
            store.execute("INSERT INTO items VALUES (9, 'A-9', 1.0, 1), (1, 'dup', 1.0, 1)")
        assert store.scalar("SELECT COUNT(*) FROM items WHERE id = 9") == 0


class TestConstraints:
    def test_primary_key_duplicate(self, store):
        with pytest.raises(UniqueViolation):
            store.execute("INSERT INTO items VALUES (1, 'B-1', 2.0, 1)")

    def test_unique_constraint(self, store):
        with pytest.raises(UniqueViolation):
            store.execute("INSERT INTO items VALUES (3, 'A-1', 2.0, 1)")

    def test_unique_allows_multiple_nulls(self, store):
        store.execute("INSERT INTO items (id, price) VALUES (3, 1.0), (4, 1.0)")
        assert store.scalar("SELECT COUNT(*) FROM items") == 4

    def test_not_null_violation(self, store):
        with pytest.raises(NotNullViolation):
            store.execute("INSERT INTO items (id) VALUES (3)")

    def test_primary_key_implies_not_null(self, store):
        with pytest.raises(NotNullViolation):
            store.execute("INSERT INTO items (sku, price) VALUES ('A-3', 1.0)")

    def test_check_violation(self, store):
        with pytest.raises(CheckViolation):
            store.execute("INSERT INTO items VALUES (3, 'A-3', -1.0, 1)")

    def test_check_with_null_passes(self, store):
        store.execute("INSERT INTO orders (id, item_id) VALUES (1, 1)")  # n NULL
        assert store.scalar("SELECT COUNT(*) FROM orders") == 1

    def test_fk_violation_on_insert(self, store):
        with pytest.raises(ForeignKeyViolation):
            store.execute("INSERT INTO orders VALUES (1, 99, 1)")

    def test_fk_satisfied(self, store):
        store.execute("INSERT INTO orders VALUES (1, 2, 5)")
        assert store.scalar("SELECT COUNT(*) FROM orders") == 1

    def test_fk_null_passes(self, store):
        store.execute("CREATE TABLE notes (id INT PRIMARY KEY, item_id INT REFERENCES items(id))")
        store.execute("INSERT INTO notes VALUES (1, NULL)")
        assert store.scalar("SELECT COUNT(*) FROM notes") == 1

    def test_delete_referenced_row_blocked(self, store):
        store.execute("INSERT INTO orders VALUES (1, 1, 2)")
        with pytest.raises(ForeignKeyViolation):
            store.execute("DELETE FROM items WHERE id = 1")

    def test_delete_unreferenced_row_ok(self, store):
        store.execute("INSERT INTO orders VALUES (1, 1, 2)")
        store.execute("DELETE FROM items WHERE id = 2")
        assert store.scalar("SELECT COUNT(*) FROM items") == 1

    def test_update_referenced_key_blocked(self, store):
        store.execute("INSERT INTO orders VALUES (1, 1, 2)")
        with pytest.raises(ForeignKeyViolation):
            store.execute("UPDATE items SET id = 50 WHERE id = 1")

    def test_update_to_violate_fk_blocked(self, store):
        store.execute("INSERT INTO orders VALUES (1, 1, 2)")
        with pytest.raises(ForeignKeyViolation):
            store.execute("UPDATE orders SET item_id = 77 WHERE id = 1")


class TestReferencingCheckCost:
    """A DELETE's or UPDATE's back-reference check reads each referencing
    table once per foreign key — an index probe per row when one covers
    the key, else one pass over the key column — not one scan of the child
    heap per row (330 ms for the DELETE below before)."""

    @pytest.fixture(params=["indexed", "unindexed"])
    def family(self, s, request):
        s.execute("CREATE TABLE p (id INT PRIMARY KEY)")
        s.execute("CREATE TABLE c (id INT PRIMARY KEY, pid INT REFERENCES p(id))")
        parents, children = s.db.heap("p"), s.db.heap("c")
        for i in range(1000):
            parents.insert({"id": i})
        for i in range(10_000):
            children.insert({"id": i, "pid": i % 950})
        if request.param == "indexed":
            s.execute("CREATE INDEX c_pid ON c (pid)")
        return s

    def test_unreferenced_parents_delete_quickly(self, family):
        import time

        started = time.perf_counter()
        result = family.execute("DELETE FROM p WHERE id >= 950")
        elapsed_ms = (time.perf_counter() - started) * 1000
        assert result.rowcount == 50
        assert family.scalar("SELECT COUNT(*) FROM p") == 950
        assert elapsed_ms < 20, f"{elapsed_ms:.1f} ms"

    def test_referenced_parent_still_refused(self, family):
        with pytest.raises(ForeignKeyViolation) as caught:
            family.execute("DELETE FROM p WHERE id >= 949")
        assert str(caught.value) == "23503: row in 'p' is still referenced by table 'c'"
        assert family.scalar("SELECT COUNT(*) FROM p") == 1000
        with pytest.raises(ForeignKeyViolation) as caught:
            family.execute("UPDATE p SET id = 5000 WHERE id = 3")
        assert str(caught.value) == "23503: row in 'p' is still referenced by table 'c'"
        family.execute("UPDATE p SET id = 5000 WHERE id = 990")
        with pytest.raises(ForeignKeyViolation):
            family.execute("INSERT INTO c VALUES (10000, 990)")
        family.execute("INSERT INTO c VALUES (10000, 5000)")

    def test_unreferenced_parent_keys_update_quickly(self, family):
        # the lookups are built once per UPDATE, not once per changed key
        # (one pass over the unindexed child per row: ~50 ms before)
        import time

        started = time.perf_counter()
        result = family.execute("UPDATE p SET id = id + 5000 WHERE id >= 950")
        elapsed_ms = (time.perf_counter() - started) * 1000
        assert result.rowcount == 50
        assert family.scalar("SELECT COUNT(*) FROM p WHERE id >= 5000") == 50
        assert elapsed_ms < 20, f"{elapsed_ms:.1f} ms"


class TestReferencingCheckOrder:
    """UPDATE checks each target in rid order — the row's own constraints,
    then whether its changed key is still referenced — against lookups
    built once per statement, so the first offending row decides the
    error, as a per-row rebuild did."""

    @pytest.fixture
    def family(self, s):
        s.execute("CREATE TABLE p (id INT PRIMARY KEY, v INT CHECK (v < 100))")
        s.execute("CREATE TABLE c (id INT PRIMARY KEY, pid INT REFERENCES p(id))")
        s.execute("CREATE TABLE d (id INT PRIMARY KEY, pid INT REFERENCES p(id))")
        s.execute("INSERT INTO p VALUES (1, 0), (2, 0), (3, 0), (4, 0)")
        s.execute("INSERT INTO c VALUES (1, 4)")  # the later target, first table
        s.execute("INSERT INTO d VALUES (1, 2)")  # the earlier target
        return s

    def test_earliest_referenced_target_is_reported(self, family):
        with pytest.raises(ForeignKeyViolation) as caught:
            family.execute("UPDATE p SET id = id + 10")
        assert str(caught.value) == "23503: row in 'p' is still referenced by table 'd'"

    def test_check_violation_on_an_earlier_row_wins(self, family):
        poisoned = "UPDATE p SET id = id + 10, v = CASE WHEN id = {} THEN 500 ELSE v END"
        with pytest.raises(CheckViolation):
            family.execute(poisoned.format(1))
        with pytest.raises(ForeignKeyViolation):
            family.execute(poisoned.format(3))  # row 2's reference comes first
        assert family.scalar("SELECT SUM(id) FROM p") == 10


class TestUpdateDelete:
    def test_update_rowcount(self, store):
        result = store.execute("UPDATE items SET qty = qty + 1")
        assert result.rowcount == 2

    def test_update_with_where(self, store):
        store.execute("UPDATE items SET price = 99.0 WHERE sku = 'A-1'")
        assert store.scalar("SELECT price FROM items WHERE id = 1") == 99.0

    def test_update_expression_uses_old_values(self, store):
        store.execute("UPDATE items SET price = price * 2, qty = qty + 1 WHERE id = 1")
        row = store.query("SELECT price, qty FROM items WHERE id = 1")[0]
        assert (row["price"], row["qty"]) == (19.0, 4)

    def test_update_check_violation_atomic(self, store):
        with pytest.raises(CheckViolation):
            store.execute("UPDATE items SET price = price - 20")
        # nothing changed (statement-level atomicity)
        assert store.scalar("SELECT MIN(price) FROM items") == 5.0

    def test_delete_with_where(self, store):
        result = store.execute("DELETE FROM items WHERE qty = 0")
        assert result.rowcount == 1

    def test_delete_all(self, store):
        assert store.execute("DELETE FROM items").rowcount == 2

    def test_update_unknown_column(self, store):
        with pytest.raises(UnknownColumnError):
            store.execute("UPDATE items SET ghost = 1")

    def test_update_pk_uniqueness_enforced(self, store):
        with pytest.raises(UniqueViolation):
            store.execute("UPDATE items SET id = 1 WHERE id = 2")


class TestDDL:
    def test_create_and_drop_table(self, s):
        s.execute("CREATE TABLE t (a INT)")
        s.execute("DROP TABLE t")
        with pytest.raises(UnknownTableError):
            s.execute("SELECT * FROM t")

    def test_create_duplicate_rejected(self, s):
        s.execute("CREATE TABLE t (a INT)")
        with pytest.raises(DuplicateObjectError):
            s.execute("CREATE TABLE t (a INT)")

    def test_if_not_exists(self, s):
        s.execute("CREATE TABLE t (a INT)")
        s.execute("CREATE TABLE IF NOT EXISTS t (a INT)")  # no error

    def test_drop_if_exists(self, s):
        s.execute("DROP TABLE IF EXISTS ghost")  # no error

    def test_drop_missing_table_raises(self, s):
        with pytest.raises(UnknownTableError):
            s.execute("DROP TABLE ghost")

    def test_drop_referenced_table_requires_cascade(self, store):
        with pytest.raises(ForeignKeyViolation, match="CASCADE"):
            store.execute("DROP TABLE items")

    def test_drop_cascade_removes_referencing(self, store):
        store.execute("DROP TABLE items CASCADE")
        with pytest.raises(UnknownTableError):
            store.execute("SELECT * FROM orders")

    def test_alter_add_column(self, store):
        store.execute("ALTER TABLE items ADD COLUMN note TEXT DEFAULT 'n/a'")
        assert store.scalar("SELECT note FROM items WHERE id = 1") == "n/a"

    def test_alter_add_not_null_without_default_on_nonempty(self, store):
        with pytest.raises(NotNullViolation):
            store.execute("ALTER TABLE items ADD COLUMN req TEXT NOT NULL")

    def test_alter_drop_column(self, store):
        store.execute("ALTER TABLE items DROP COLUMN qty")
        with pytest.raises(UnknownColumnError):
            store.execute("SELECT qty FROM items")

    def test_alter_drop_pk_column_rejected(self, store):
        with pytest.raises(ExecutionError):
            store.execute("ALTER TABLE items DROP COLUMN id")

    def test_alter_rename_column(self, store):
        store.execute("ALTER TABLE items RENAME COLUMN qty TO quantity")
        assert store.scalar("SELECT quantity FROM items WHERE id = 1") == 3

    def test_case_twin_columns_are_refused(self, s):
        # PostgreSQL folds unquoted names: ``a`` and ``A`` are one column
        with pytest.raises(DuplicateColumnError, match='"A" specified more than once'):
            s.execute("CREATE TABLE tw (a INT, A INT)")
        assert not s.db.catalog.has_table("tw")
        s.execute("CREATE TABLE tw (a INT, b INT)")
        for ddl in ("ALTER TABLE tw ADD COLUMN A TEXT", "ALTER TABLE tw RENAME COLUMN b TO A"):
            with pytest.raises(DuplicateColumnError) as caught:
                s.execute(ddl)
            assert caught.value.code == "42701"
        assert s.db.catalog.table("tw").column_names() == ["a", "b"]

    def test_alter_rename_table(self, store):
        store.execute("ALTER TABLE items RENAME TO products")
        assert store.scalar("SELECT COUNT(*) FROM products") == 2

    def test_create_index_and_unique_enforcement(self, store):
        store.execute("CREATE UNIQUE INDEX ix_price ON items (price)")
        with pytest.raises(UniqueViolation):
            store.execute("INSERT INTO items VALUES (3, 'A-3', 9.5, 1)")

    def test_create_index_on_duplicate_data_fails(self, store):
        store.execute("INSERT INTO items VALUES (3, 'A-3', 9.5, 1)")
        with pytest.raises(UniqueViolation):
            store.execute("CREATE UNIQUE INDEX ix_price ON items (price)")
        # catalog must not keep a half-created index
        assert "ix_price" not in store.db.catalog.indexes

    def test_drop_index(self, store):
        store.execute("CREATE INDEX ix ON items (sku)")
        store.execute("DROP INDEX ix")
        store.execute("DROP INDEX IF EXISTS ix")

    def test_create_view_and_drop(self, store):
        store.execute("CREATE VIEW cheap AS SELECT * FROM items WHERE price < 6")
        assert store.scalar("SELECT COUNT(*) FROM cheap") == 1
        store.execute("DROP VIEW cheap")
        with pytest.raises(UnknownTableError):
            store.execute("SELECT * FROM cheap")

    def test_create_or_replace_view(self, store):
        store.execute("CREATE VIEW v AS SELECT id FROM items")
        store.execute("CREATE OR REPLACE VIEW v AS SELECT sku FROM items")
        assert store.execute("SELECT * FROM v").columns == ["sku"]

    def test_view_name_collision_with_table(self, store):
        with pytest.raises(DuplicateObjectError):
            store.execute("CREATE VIEW items AS SELECT 1")


class TestRenameColumnConstraints:
    """RENAME COLUMN carries every constraint that names the column: a
    constraint left on the old name reads NULL and silently passes (FK) or
    fails every write (CHECK)."""

    SETUP = [
        "CREATE TABLE p (id INT PRIMARY KEY, v INT CHECK (v >= 0), u INT UNIQUE)",
        "CREATE TABLE c (id INT PRIMARY KEY, pid INT REFERENCES p(id))",
        "INSERT INTO p VALUES (1, 5, 7)",
    ]
    RENAMES = [
        "ALTER TABLE p RENAME COLUMN v TO vv",
        "ALTER TABLE p RENAME COLUMN u TO uu",
        "ALTER TABLE c RENAME COLUMN pid TO parent",
        "ALTER TABLE p RENAME COLUMN id TO pk",
    ]

    @staticmethod
    def constraints(db):
        return {
            name: (
                schema.column_names(),
                schema.primary_key,
                schema.uniques,
                schema.check_sources,
                [
                    (fk.columns, fk.ref_table, fk.ref_columns)
                    for fk in schema.foreign_keys
                ],
            )
            for name, schema in db.catalog.tables.items()
        }

    @staticmethod
    def assert_enforced(session):
        session.execute("INSERT INTO p VALUES (2, 0, 8)")  # CHECK still passable
        with pytest.raises(CheckViolation, match="vv >= 0"):
            session.execute("INSERT INTO p VALUES (3, -1, 9)")
        with pytest.raises(UniqueViolation):
            session.execute("INSERT INTO p VALUES (3, 1, 7)")
        with pytest.raises(ForeignKeyViolation):
            session.execute("INSERT INTO c VALUES (1, 99)")  # no parent 99
        session.execute("INSERT INTO c VALUES (1, 1)")
        with pytest.raises(ForeignKeyViolation):
            session.execute("DELETE FROM p WHERE pk = 1")  # still referenced
        with pytest.raises(ForeignKeyViolation):
            session.execute("UPDATE p SET pk = 4 WHERE pk = 1")
        session.execute("DELETE FROM p WHERE pk = 2")

    def test_constraints_follow_the_rename(self, db, s):
        for sql in self.SETUP + self.RENAMES:
            s.execute(sql)
        assert self.constraints(db) == {
            "p": (["pk", "vv", "uu"], ("pk",), [("uu",)], ["(vv >= 0)"], []),
            "c": (["id", "parent"], ("id",), [], [], [(("parent",), "p", ("pk",))]),
        }
        self.assert_enforced(s)

    def test_rollback_restores_every_list(self, db, s):
        for sql in self.SETUP:
            s.execute(sql)
        before = self.constraints(db)
        s.execute("BEGIN")
        for sql in self.RENAMES:
            s.execute(sql)
        assert self.constraints(db) != before
        s.execute("ROLLBACK")
        assert self.constraints(db) == before
        with pytest.raises(CheckViolation, match="v >= 0"):
            s.execute("INSERT INTO p VALUES (3, -1, 9)")
        with pytest.raises(ForeignKeyViolation):
            s.execute("INSERT INTO c VALUES (1, 99)")

    def test_wal_replay_matches_the_live_database(self, tmp_path):
        path = str(tmp_path / "db")
        live = Database.open(path)
        session = live.connect("admin")
        for sql in self.SETUP + self.RENAMES:
            session.execute(sql)
        expected = live.engine._snapshot_payload(live)
        live.close()  # no checkpoint: reopening replays the WAL
        replayed = Database.open(path)
        assert replayed.engine.stats["wal_replayed"] > 0
        assert replayed.engine._snapshot_payload(replayed) == expected
        self.assert_enforced(replayed.connect("admin"))
        replayed.close()


class TestIndexColumnCase:
    """An index names the table's stored columns, whatever case the
    statement spelled them in: rows are keyed by the stored name, so an
    index over ``ABC`` on column ``abc`` used to key every row NULL."""

    def test_index_spelled_in_another_case_finds_the_row(self, s):
        s.execute("CREATE TABLE u (id INT PRIMARY KEY, abc INT)")
        s.execute("INSERT INTO u VALUES (1, 5)")
        s.execute("CREATE INDEX ix_u ON u (ABC)")
        sql = "SELECT id FROM u WHERE abc = 5"
        assert "Index Scan using ix_u" in s.execute("EXPLAIN " + sql).rows[0][0]
        assert s.execute(sql).rows == [(1,)]

    def test_unique_index_spelled_in_another_case_rejects_a_duplicate(self, s):
        s.execute("CREATE TABLE u (id INT PRIMARY KEY, Abc INT)")
        s.execute("CREATE UNIQUE INDEX ux_u ON u (abc)")
        s.execute("INSERT INTO u VALUES (1, 5)")
        with pytest.raises(UniqueViolation):
            s.execute("INSERT INTO u VALUES (2, 5)")

    def test_rename_carries_the_catalog_entry_and_both_index_kinds(self, db, s):
        s.execute("CREATE TABLE t (id INT PRIMARY KEY, a INT, b INT)")
        s.execute("CREATE INDEX ix_a ON t (a)")
        s.execute("CREATE INDEX ix_b ON t USING BTREE (b)")
        s.execute("ALTER TABLE t RENAME COLUMN a TO z")
        s.execute("ALTER TABLE t RENAME COLUMN B TO y")
        assert [ix.describe() for ix in db.catalog.indexes_on("t")] == [
            "INDEX ix_a ON t(z)", "INDEX ix_b ON t USING BTREE(y)",
        ]
        heap = db.heap("t")
        assert [heap.indexes[name].columns for name in ("ix_a", "ix_b")] == [
            ("z",), ("y",),
        ]
        s.execute("INSERT INTO t VALUES (1, 5, 6)")
        assert s.execute("SELECT id FROM t WHERE z = 5 AND y >= 6").rows == [(1,)]

    def test_reopen_keys_by_the_stored_names(self, tmp_path):
        """The WAL replays the statement's spelling, and a snapshot may hold
        it too (written before index columns were resolved): both load
        the index onto the stored column."""
        path = str(tmp_path / "db")
        sql = "SELECT id FROM u WHERE abc = 5"
        live = Database.open(path)
        session = live.connect("admin")
        session.execute("CREATE TABLE u (id INT PRIMARY KEY, abc INT)")
        session.execute("INSERT INTO u VALUES (1, 5)")
        session.execute("CREATE UNIQUE INDEX ux_u ON u USING BTREE (ABC)")
        live.close()  # no checkpoint: reopening replays the WAL
        replayed = Database.open(path)
        assert replayed.connect("admin").execute(sql).rows == [(1,)]
        replayed.checkpoint()
        replayed.close()
        snapshot = os.path.join(path, "snapshot.json")
        with open(snapshot, encoding="utf-8") as fh:
            text = fh.read()
        assert text.count('"columns":["abc"]') == 2  # heap and catalog entry
        with open(snapshot, "w", encoding="utf-8") as fh:
            fh.write(text.replace('"columns":["abc"]', '"columns":["ABC"]'))
        reloaded = Database.open(path)
        session = reloaded.connect("admin")
        assert session.execute(sql).rows == [(1,)]
        with pytest.raises(UniqueViolation):
            session.execute("INSERT INTO u VALUES (2, 5)")
        assert reloaded.catalog.index("ux_u").columns == ("abc",)
        reloaded.close()


class TestRenameTableForeignKeys:
    """RENAME TO carries the foreign keys of other tables that reference
    the renamed one: left on the old name, every child INSERT fails, the
    parent's rows stop being guarded and DROP needs no CASCADE."""

    SETUP = [
        "CREATE TABLE p (id INT PRIMARY KEY)",
        "CREATE TABLE c (id INT PRIMARY KEY, pid INT REFERENCES p(id))",
        "INSERT INTO p VALUES (1)",
        "INSERT INTO c VALUES (1, 1)",
    ]
    RENAME = "ALTER TABLE p RENAME TO parent2"

    @staticmethod
    def references(db):
        return {
            name: [fk.ref_table for fk in schema.foreign_keys]
            for name, schema in db.catalog.tables.items()
        }

    @staticmethod
    def assert_enforced(session, parent):
        session.execute(f"INSERT INTO {parent} VALUES (2)")
        session.execute("INSERT INTO c VALUES (2, 2)")
        with pytest.raises(ForeignKeyViolation):
            session.execute("INSERT INTO c VALUES (3, 99)")  # no parent 99
        with pytest.raises(ForeignKeyViolation):
            session.execute(f"DELETE FROM {parent} WHERE id = 2")  # referenced
        with pytest.raises(ForeignKeyViolation, match="use CASCADE"):
            session.execute(f"DROP TABLE {parent}")

    def test_foreign_keys_follow_the_rename(self, db, s):
        for sql in self.SETUP + [self.RENAME]:
            s.execute(sql)
        assert self.references(db) == {"parent2": [], "c": ["parent2"]}
        self.assert_enforced(s, "parent2")

    def test_rollback_restores_the_old_name_everywhere(self, db, s):
        for sql in self.SETUP:
            s.execute(sql)
        s.execute("BEGIN")
        s.execute(self.RENAME)
        s.execute("ROLLBACK")
        assert self.references(db) == {"p": [], "c": ["p"]}
        self.assert_enforced(s, "p")

    def test_wal_replay_matches_the_live_database(self, tmp_path):
        path = str(tmp_path / "db")
        live = Database.open(path)
        session = live.connect("admin")
        for sql in self.SETUP + [self.RENAME]:
            session.execute(sql)
        expected = live.engine._snapshot_payload(live)
        live.close()  # no checkpoint: reopening replays the WAL
        replayed = Database.open(path)
        assert replayed.engine._snapshot_payload(replayed) == expected
        self.assert_enforced(replayed.connect("admin"), "parent2")
        replayed.close()


class TestDropColumnDependencies:
    """DROP COLUMN refuses a column that an index or constraint names.
    Dropping it left the index with stale entries (a spurious
    UniqueViolation once a column of that name came back) or a CHECK that
    failed every later write. PostgreSQL drops the dependents with the
    column; refusing needs no new WAL op."""

    CASES = {
        "index": (
            ["CREATE TABLE t (id INT PRIMARY KEY, a INT, b TEXT)",
             "CREATE UNIQUE INDEX ux_a ON t (a)"],
            "index 'ux_a'",
        ),
        "unique": (
            ["CREATE TABLE t (id INT PRIMARY KEY, a INT UNIQUE, b TEXT)"],
            "constraint UNIQUE (a)",
        ),
        "foreign key": (
            ["CREATE TABLE p (id INT PRIMARY KEY)",
             "INSERT INTO p VALUES (10), (20)",
             "CREATE TABLE t (id INT PRIMARY KEY, a INT REFERENCES p(id), b TEXT)"],
            "constraint FOREIGN KEY (a) REFERENCES p(id)",
        ),
        "referenced by a foreign key": (
            ["CREATE TABLE t (id INT PRIMARY KEY, a INT, b TEXT)",
             "CREATE TABLE c (id INT PRIMARY KEY, ta INT, FOREIGN KEY (ta) REFERENCES t(a))"],
            "constraint FOREIGN KEY (ta) REFERENCES t(a) of table 'c'",
        ),
        "check": (
            ["CREATE TABLE t (id INT PRIMARY KEY, a INT CHECK (a > 0), b TEXT)"],
            "constraint CHECK ((a > 0))",
        ),
    }

    @pytest.mark.parametrize("case", CASES)
    def test_drop_is_refused_naming_the_dependent(self, s, case):
        setup, dependent = self.CASES[case]
        for sql in setup:
            s.execute(sql)
        s.execute("INSERT INTO t VALUES (1, 10, 'x'), (2, 20, 'y')")
        with pytest.raises(ExecutionError) as caught:
            s.execute("ALTER TABLE t DROP COLUMN a")
        assert type(caught.value) is ExecutionError
        assert str(caught.value) == (
            f"22000: cannot drop column 'a' of table 't': {dependent} depends on it"
        )
        assert s.db.catalog.table("t").column_names() == ["id", "a", "b"]
        s.execute("INSERT INTO t (id, b) VALUES (3, 'z')")  # still writable
        s.execute("ALTER TABLE t DROP COLUMN b")  # nothing depends on b
        assert s.execute("SELECT * FROM t ORDER BY id").rows == [
            (1, 10), (2, 20), (3, None)
        ]


class TestSelfReferencingForeignKey:
    """A table may reference itself (the employee / manager shape): the
    reference resolves against the schema being created, and a row is
    checked once it is in, so it may reference itself — as in PostgreSQL."""

    @pytest.fixture(params=["column", "table"])
    def emp(self, s, request):
        if request.param == "column":
            s.execute("CREATE TABLE emp (id INT PRIMARY KEY, boss INT REFERENCES emp(id))")
        else:
            s.execute(
                "CREATE TABLE emp (id INT PRIMARY KEY, boss INT, "
                "FOREIGN KEY (boss) REFERENCES emp(id))"
            )
        return s

    def test_the_reference_names_the_table_itself(self, emp):
        schema = emp.db.catalog.table("emp")
        assert [(fk.columns, fk.ref_table, fk.ref_columns) for fk in schema.foreign_keys] == [
            (("boss",), "emp", ("id",))
        ]

    def test_null_earlier_and_own_rows_are_accepted(self, emp):
        emp.execute("INSERT INTO emp VALUES (1, NULL)")
        emp.execute("INSERT INTO emp VALUES (2, 1)")
        emp.execute("INSERT INTO emp VALUES (3, 3)")
        emp.execute("UPDATE emp SET boss = id WHERE id = 2")
        assert emp.execute("SELECT * FROM emp ORDER BY id").rows == [
            (1, None), (2, 2), (3, 3)
        ]

    def test_a_dangling_boss_is_rejected(self, emp):
        emp.execute("INSERT INTO emp VALUES (1, NULL)")
        with pytest.raises(ForeignKeyViolation):
            emp.execute("INSERT INTO emp VALUES (2, 99)")
        with pytest.raises(ForeignKeyViolation):
            emp.execute("UPDATE emp SET boss = 99 WHERE id = 1")
        assert emp.execute("SELECT * FROM emp").rows == [(1, None)]

    def test_a_referenced_row_cannot_be_deleted_or_rekeyed(self, emp):
        emp.execute("INSERT INTO emp VALUES (1, NULL), (2, 1), (3, 3)")
        with pytest.raises(ForeignKeyViolation, match="still referenced by table 'emp'"):
            emp.execute("DELETE FROM emp WHERE id = 1")
        with pytest.raises(ForeignKeyViolation):
            emp.execute("UPDATE emp SET id = 10 WHERE id = 1")
        emp.execute("UPDATE emp SET id = 30, boss = 30 WHERE id = 3")  # only itself
        emp.execute("DELETE FROM emp WHERE id = 30")
        emp.execute("DELETE FROM emp")  # rows that reference each other go together
        assert emp.scalar("SELECT COUNT(*) FROM emp") == 0

    def test_creating_needs_no_select_on_the_new_table(self):
        for sql in (
            "CREATE TABLE emp (id INT PRIMARY KEY, boss INT REFERENCES emp(id))",
            "CREATE TABLE emp (id INT PRIMARY KEY, boss INT, "
            "FOREIGN KEY (boss) REFERENCES EMP(id))",
        ):
            accesses = analyze(parse(sql)).accesses
            assert [(a.action, a.obj) for a in accesses] == [("CREATE", "emp")]

    def test_drop_table_needs_no_cascade(self, emp):
        emp.execute("INSERT INTO emp VALUES (1, 1)")
        emp.execute("DROP TABLE emp")
        assert not emp.db.catalog.has_table("emp")

    def test_wal_replay_matches_the_live_database(self, tmp_path):
        path = str(tmp_path / "db")
        live = Database.open(path)
        session = live.connect("admin")
        session.execute("CREATE TABLE emp (id INT PRIMARY KEY, boss INT REFERENCES emp(id))")
        session.execute("INSERT INTO emp VALUES (1, 1), (2, 1)")
        expected = live.engine._snapshot_payload(live)
        live.close()  # no checkpoint: reopening replays the WAL
        replayed = Database.open(path)
        assert replayed.engine._snapshot_payload(replayed) == expected
        with pytest.raises(ForeignKeyViolation):
            replayed.connect("admin").execute("INSERT INTO emp VALUES (3, 99)")
        replayed.close()


class TestKeyColumnSpelling:
    """Key lists may spell a column in any case; CREATE TABLE stores the
    table's own spelling, so the WAL record carries it and every lookup by
    name finds the column. Kept as written, ``PRIMARY KEY (ID)`` made a
    ``REFERENCES p`` column look parents up in a column ``ID`` no row
    holds, and ``FOREIGN KEY (PID)`` read NULL from every row."""

    @pytest.fixture
    def parent(self, s):
        s.execute("CREATE TABLE p (id INT, v INT, PRIMARY KEY (ID))")
        s.execute("INSERT INTO p VALUES (1, 0)")
        return s

    @pytest.fixture
    def child(self, parent):
        parent.execute("CREATE TABLE c (pid INT REFERENCES p, w INT)")
        parent.db.heap("c").insert({"pid": 1, "w": 3})  # references p's row 1
        return parent

    def test_insert_finds_the_parent(self, parent):
        parent.execute("CREATE TABLE c (pid INT REFERENCES p, w INT)")
        parent.execute("INSERT INTO c VALUES (1, 3)")
        assert parent.execute("SELECT * FROM c").rows == [(1, 3)]

    def test_delete_of_a_referenced_parent_is_refused(self, child):
        with pytest.raises(ForeignKeyViolation, match="still referenced"):
            child.execute("DELETE FROM p WHERE id = 1")

    def test_rekeying_a_referenced_parent_is_refused(self, child):
        with pytest.raises(ForeignKeyViolation, match="still referenced"):
            child.execute("UPDATE p SET id = 5 WHERE id = 1")

    def test_table_level_foreign_key_is_enforced(self, parent):
        parent.execute(
            "CREATE TABLE c (pid INT, w INT, FOREIGN KEY (PID) REFERENCES p (ID))"
        )
        parent.execute("INSERT INTO c VALUES (1, 3)")
        with pytest.raises(ForeignKeyViolation):
            parent.execute("INSERT INTO c VALUES (7, 3)")

    def test_the_wal_record_carries_the_stored_names(self, tmp_path):
        path = str(tmp_path / "db")
        live = Database.open(path)
        session = live.connect("admin")
        session.execute("CREATE TABLE p (id INT, abc INT, PRIMARY KEY (ID), UNIQUE (ABC))")
        session.execute("CREATE TABLE c (pid INT, FOREIGN KEY (PID) REFERENCES P (Id))")
        live.close()  # no checkpoint: reopening replays the WAL
        replayed = Database.open(path)
        p, c = replayed.catalog.table("p"), replayed.catalog.table("c")
        assert (p.primary_key, p.uniques) == (("id",), [("abc",)])
        assert [(fk.columns, fk.ref_table, fk.ref_columns) for fk in c.foreign_keys] == [
            (("pid",), "p", ("id",))
        ]
        replayed.close()

    @pytest.mark.parametrize(
        "ddl",
        [
            "CREATE TABLE c (pid INT REFERENCES p (nope))",
            "CREATE TABLE c (pid INT, FOREIGN KEY (nope) REFERENCES p (id))",
            "CREATE TABLE c (pid INT, FOREIGN KEY (pid) REFERENCES p (nope))",
            "CREATE TABLE c (pid INT, PRIMARY KEY (zz))",
        ],
    )
    def test_an_unknown_key_column_is_refused(self, parent, ddl):
        """Fails at the parent for the three foreign-key spellings."""
        with pytest.raises(UnknownColumnError):
            parent.execute(ddl)
        assert not parent.db.catalog.has_table("c")

    def test_a_non_unique_referenced_key_is_accepted(self, parent):
        """Divergence (docs/ARCHITECTURE.md, "Constraints"): PostgreSQL
        refuses a foreign key whose referenced columns are not a primary
        key or UNIQUE constraint (42830); minidb accepts it and checks
        presence, so a parent row holding a duplicated key stays guarded."""
        parent.execute("INSERT INTO p VALUES (2, 0)")
        parent.execute("CREATE TABLE c (pv INT REFERENCES p (V))")
        parent.execute("INSERT INTO c VALUES (0)")
        with pytest.raises(ForeignKeyViolation):
            parent.execute("INSERT INTO c VALUES (9)")
        with pytest.raises(ForeignKeyViolation, match="still referenced"):
            parent.execute("DELETE FROM p WHERE id = 2")


class TestSnapshotHelpers:
    def test_snapshot(self, store):
        snap = store.db.snapshot()
        assert set(snap) == {"items", "orders"}
        assert len(snap["items"]) == 2

    def test_row_count_helper(self, store):
        assert store.db.table_row_count("items") == 2
