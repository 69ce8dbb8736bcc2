"""Unit tests for the SQL lexer."""

import pytest

from repro.minidb.errors import SQLSyntaxError
from repro.minidb.lexer import EOF, IDENT, NUMBER, OP, PUNCT, STRING, tokenize


def kinds(sql):
    return [t.kind for t in tokenize(sql)]


def values(sql):
    return [t.value for t in tokenize(sql)[:-1]]


class TestBasicTokens:
    def test_empty_input_yields_only_eof(self):
        tokens = tokenize("")
        assert len(tokens) == 1
        assert tokens[0].kind == EOF

    def test_whitespace_only(self):
        assert kinds("  \n\t ") == [EOF]

    def test_identifier(self):
        tokens = tokenize("employees")
        assert tokens[0].kind == IDENT
        assert tokens[0].value == "employees"

    def test_identifier_with_underscore_and_digits(self):
        assert values("brand_A_sales2") == ["brand_A_sales2"]

    def test_integer_literal(self):
        tokens = tokenize("42")
        assert tokens[0].kind == NUMBER
        assert tokens[0].value == "42"

    def test_float_literal(self):
        assert values("3.14") == ["3.14"]

    def test_scientific_notation(self):
        assert values("1e5 2.5E-3") == ["1e5", "2.5E-3"]

    def test_leading_dot_number(self):
        assert values(".5") == [".5"]

    def test_string_literal(self):
        tokens = tokenize("'hello'")
        assert tokens[0].kind == STRING
        assert tokens[0].value == "hello"

    def test_string_with_escaped_quote(self):
        tokens = tokenize("'it''s'")
        assert tokens[0].value == "it's"

    def test_empty_string_literal(self):
        assert tokenize("''")[0].value == ""

    def test_quoted_identifier(self):
        tokens = tokenize('"My Table"')
        assert tokens[0].kind == IDENT
        assert tokens[0].value == "My Table"


class TestOperators:
    @pytest.mark.parametrize("op", ["<=", ">=", "<>", "!=", "||"])
    def test_two_char_operators(self, op):
        tokens = tokenize(f"a {op} b")
        assert tokens[1].kind == OP
        assert tokens[1].value == op

    @pytest.mark.parametrize("op", list("+-*/%<>="))
    def test_single_char_operators(self, op):
        tokens = tokenize(f"a {op} b")
        assert tokens[1].value == op

    def test_punctuation(self):
        tokens = tokenize("(a, b);")
        assert [t.value for t in tokens if t.kind == PUNCT] == ["(", ",", ")", ";"]

    def test_adjacent_operators_not_merged(self):
        # "a<-1" is "<" then unary "-"
        assert values("a<-1") == ["a", "<", "-", "1"]


class TestComments:
    def test_line_comment_skipped(self):
        assert values("SELECT -- comment\n 1") == ["SELECT", "1"]

    def test_line_comment_at_end(self):
        assert values("SELECT 1 -- trailing") == ["SELECT", "1"]

    def test_block_comment_skipped(self):
        assert values("SELECT /* stuff \n more */ 1") == ["SELECT", "1"]

    def test_unterminated_block_comment_raises(self):
        with pytest.raises(SQLSyntaxError):
            tokenize("SELECT /* oops")


class TestErrors:
    def test_unterminated_string(self):
        with pytest.raises(SQLSyntaxError, match="unterminated string"):
            tokenize("'abc")

    def test_unterminated_quoted_identifier(self):
        with pytest.raises(SQLSyntaxError):
            tokenize('"abc')

    def test_illegal_character(self):
        with pytest.raises(SQLSyntaxError, match="illegal character"):
            tokenize("SELECT #")

    def test_keyword_matching_is_case_insensitive(self):
        token = tokenize("select")[0]
        assert token.matches_keyword("SELECT")
        assert token.matches_keyword("select")

    def test_positions_recorded(self):
        tokens = tokenize("ab cd")
        assert tokens[0].pos == 0
        assert tokens[1].pos == 3

    def test_every_kind_records_its_start_offset(self):
        # fails at the parent of PR 15: NUMBER, STRING and quoted IDENT
        # recorded the offset *after* their last character
        sql = """a 12.5e3 'it''s' "My Col" <= ( ? -- c\n /* c */ b"""
        tokens = tokenize(sql)
        assert [(t.value, t.pos) for t in tokens] == [
            ("a", 0), ("12.5e3", 2), ("it's", 9), ("My Col", 17), ("<=", 26),
            ("(", 29), ("?", 31), ("b", 47), ("", len(sql)),
        ]  # fmt: skip
        assert [sql[t.pos] for t in tokens[:-1]] == ["a", "1", "'", '"', "<", "(", "?", "b"]

    def test_identifiers_carry_their_upper_cased_form(self):
        tokens = tokenize("""select "from" 'WHERE' 12 =""")
        assert [t.word for t in tokens] == ["SELECT", "FROM", "", "", "", ""]
