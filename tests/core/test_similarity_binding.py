"""Tests for the similarity scorer and the DatabaseBinding abstraction."""

import pytest

from repro.core import MinidbBinding, similarity, top_k
from repro.core.interfaces import (
    AccessFootprint,
    DatabaseBinding,
    Denial,
    ObjectInfo,
    SqlOutcome,
)
from repro.minidb import Database


class TestSimilarity:
    def test_exact_match_scores_one(self):
        assert similarity("women", "women") == 1.0

    def test_case_and_punctuation_insensitive(self):
        assert similarity("West Coast", "west coast") == 1.0

    def test_substring_containment_ranks_high(self):
        assert similarity("women", "women's wear") > 0.5

    def test_synonym_match(self):
        assert similarity("women", "female apparel") > 0.3

    def test_unrelated_scores_low(self):
        assert similarity("women", "quarterly earnings") < 0.2

    def test_misspelling_tolerated(self):
        misspelled = similarity("sportswear", "sportwear")
        unrelated = similarity("sportswear", "balance sheet")
        assert misspelled > 0.25
        assert misspelled > unrelated

    def test_empty_inputs(self):
        assert similarity("", "x") == 0.0
        assert similarity("x", "") == 0.0

    def test_trigram_padding_is_symmetric(self):
        from repro.core.similarity import _trigrams

        # two pad spaces on each side: "ab" -> {"  a", " ab", "ab ", "b  "}
        assert _trigrams("ab") == {"  a", " ab", "ab ", "b  "}

    def test_suffix_matches_not_penalized_in_ranking(self):
        # Regression: asymmetric padding (two leading spaces, one trailing)
        # gave an n-character prefix match n shared trigrams but an
        # n-character suffix match only n-1, so "abcyz" (3-char prefix
        # overlap) outranked "zcde" (3-char suffix overlap in a shorter
        # value). With symmetric padding the suffix match wins.
        suffix_score = similarity("abcde", "zcde")
        prefix_score = similarity("abcde", "abcyz")
        assert suffix_score > prefix_score
        ranked = top_k("abcde", ["abcyz", "zcde"], 2)
        assert [value for value, _ in ranked] == ["zcde", "abcyz"]

    def test_non_string_values(self):
        assert similarity("100", 100) == 1.0

    def test_ordering_women_vs_men(self):
        assert similarity("women", "women's wear") > similarity("women", "men's wear")

    def test_top_k_returns_k(self):
        values = ["a", "b", "c", "d"]
        assert len(top_k("a", values, 2)) == 2

    def test_top_k_best_first(self):
        ranked = top_k("women", ["men's wear", "women's wear", "shoes"], 3)
        assert ranked[0][0] == "women's wear"

    def test_top_k_deterministic_tie_break(self):
        first = top_k("zzz", ["aa", "bb", "cc"], 3)
        second = top_k("zzz", ["cc", "aa", "bb"], 3)
        assert [v for v, _ in first] == [v for v, _ in second]

    def test_custom_synonyms(self):
        table = {"cat": frozenset({"feline"})}
        assert similarity("cat", "feline friend", synonyms=table) > 0.3

    def test_scores_bounded(self):
        for value in ("women", "wom", "women's wear", "x"):
            assert 0.0 <= similarity("women", value) <= 1.0


class ToyBinding(DatabaseBinding):
    """Minimal second binding proving core's database-agnosticism."""

    def __init__(self):
        self.tables = {"t": [{"a": 1}, {"a": 2}]}

    def run_sql(self, sql):
        if "t" not in sql:
            raise ValueError("only knows table t")
        return SqlOutcome(columns=["a"], rows=[(1,), (2,)], rowcount=2, status="SELECT")

    def analyze_sql(self, sql):
        return AccessFootprint(action="SELECT", accesses=[("SELECT", "t", None)])

    def list_objects(self):
        return ["t"]

    def object_info(self, name):
        return ObjectInfo(name="t", kind="table", ddl="CREATE TABLE t (a INT);")

    def distinct_values(self, table, column, limit):
        return [1, 2]

    def authorize(self, footprint):
        # the toy's own rule: SELECT on t, and on column a of c
        for action, obj, columns in footprint.accesses:
            if (action, obj) == ("SELECT", "c"):
                if columns is None or not columns <= {"a"}:
                    return Denial(action, obj, columns, frozenset({"a"}))
            elif (action, obj) != ("SELECT", "t"):
                return Denial(action, obj, columns, frozenset())
        return None

    def user_actions_on(self, obj):
        return {"SELECT"} if obj == "t" else set()

    def user_column_restrictions(self, action, obj):
        return None

    def all_actions(self):
        return ("SELECT", "INSERT", "UPDATE", "DELETE", "CREATE", "DROP", "ALTER")

    def in_transaction(self):
        return False

    @property
    def user(self):
        return "toy"


class TestDatabaseAgnosticism:
    def test_bridgescope_over_toy_binding(self):
        from repro.core import BridgeScope

        bridge = BridgeScope(ToyBinding())
        assert bridge.exposed_sql_actions() == ["SELECT"]
        out = bridge.invoke("get_schema").content
        assert "CREATE TABLE t" in out
        result = bridge.invoke("select", sql="SELECT a FROM t")
        assert not result.is_error

    @pytest.mark.parametrize(
        "access,message",
        [
            (("SELECT", "t", None), None),
            (("SELECT", "c", frozenset({"a"})), None),
            (("SELECT", "u", None), "permission denied: SELECT on u for user 'toy'"),
            (
                ("SELECT", "c", frozenset({"a", "b"})),
                "permission denied: SELECT on c columns (b)",
            ),
            (
                ("SELECT", "c", None),
                "permission denied: whole-object SELECT on c exceeds the "
                "column-level grant",
            ),
        ],
    )
    def test_the_bindings_verdict_drives_the_verifier(self, access, message):
        """The verifier holds no privilege rule: the toy's ``authorize``
        alone decides, and the refusal reads as the tool's message."""
        from repro.core import SecurityPolicy, SecurityViolation, SqlVerifier

        binding = ToyBinding()
        binding.analyze_sql = lambda sql: AccessFootprint("SELECT", [access])
        verifier = SqlVerifier(binding, SecurityPolicy.permissive())
        if message is None:
            verifier.verify("SELECT a FROM t", "SELECT")
            return
        with pytest.raises(SecurityViolation) as refused:
            verifier.verify("SELECT a FROM t", "SELECT")
        assert refused.value.message == message


class TestMinidbBinding:
    @pytest.fixture
    def binding(self, db):
        return MinidbBinding.for_user(db, "manager")

    def test_run_sql(self, binding):
        outcome = binding.run_sql("SELECT COUNT(*) FROM items")
        # a SELECT's rows are passed on column-backed; the wire form is the rows
        assert len(outcome.rows) == 1
        assert outcome.rows.wire() == [(3,)]

    def test_analyze_sql(self, binding):
        footprint = binding.analyze_sql("SELECT item_name FROM items")
        assert footprint.action == "SELECT"
        assert footprint.accesses[0][1] == "items"

    def test_list_objects_sorted(self, binding):
        assert binding.list_objects() == sorted(binding.list_objects())

    def test_object_info_structure(self, binding):
        info = binding.object_info("items")
        assert info.kind == "table"
        assert info.primary_key == ["item_id"]
        assert any(c["name"] == "price" for c in info.columns)

    def test_distinct_values_excludes_nulls(self, db, binding):
        db.connect("admin").execute(
            "INSERT INTO items VALUES (99, NULL, NULL, 1.0)"
        )
        values = binding.distinct_values("items", "category", 100)
        assert None not in values

    def test_distinct_values_limit(self, binding):
        assert len(binding.distinct_values("items", "category", 2)) == 2

    def test_user_actions(self, binding):
        assert binding.user_actions_on("items") == {
            "SELECT", "INSERT", "UPDATE", "DELETE", "CREATE", "DROP", "ALTER",
        }
        assert binding.user_actions_on("salaries") == set()

    def test_in_transaction_tracks_session(self, binding):
        assert not binding.in_transaction()
        binding.run_sql("BEGIN")
        assert binding.in_transaction()
        binding.run_sql("ROLLBACK")

    def test_user_property(self, binding):
        assert binding.user == "manager"
