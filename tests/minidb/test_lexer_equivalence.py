"""The single-regex lexer against the scanner it replaced (PR 15).

``reference_lexer.tokenize`` is the parent commit's character-walking scanner.
For any text the new ``tokenize`` must give the same ``(kind, value)``
sequence, or fail with the same message. One deliberate difference: an
alphanumeric that is neither a letter nor a decimal digit (``²``, ``½``,
``Ⅷ``) may continue an identifier but no longer starts a token — the old
scanner lexed ``²`` as a NUMBER, which then crashed the parser with a bare
``ValueError`` from ``int()``.

New in PR 15 (the reference does not exist at the parent; pointed at the
parent's ``tokenize`` the properties hold trivially, the position property
does not).
"""

import pytest
import reference_lexer
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.minidb.errors import SQLSyntaxError
from repro.minidb.lexer import IDENT, NUMBER, STRING, tokenize
from repro.minidb.parser import parse

FRAGMENTS = [
    # statement text
    "SELECT", "select", "FROM", "WHERE", "t", "a_1", "_x", "x9", "AND", "NOT",
    # quotes and escapes
    "'", "''", "'ab'", "'it''s'", '"', '""', '"My Col"', "'--'", "'/*'",
    # comments
    "--", "-- c\n", "/*", "*/", "/* c */", "/**/", "\n",
    # numbers
    "0", "1", "42", ".", ".5", "1.", "1e5", "1e", "2.5E-3", "e", "E", "e+", "1.2.3",
    # operators and punctuation
    "<=", ">=", "<>", "!=", "||", "|", "!", "<", ">", "=", "+", "-", "*", "/", "%",
    "(", ")", ",", ";", "?",
    # whitespace, Unicode letters and digits, junk
    " ", "  ", "\t", "\r\n", "\x0b", "\x1c", " ", " ",
    "é", "名前", "ß", "Ω", "ǅ", "٣", "१२", "²", "½", "Ⅷ", "x²", "a½",
    "#", "@", "$", "\\", "`", "~", "^", "&", ":", "[", "]", "{", "}", "\x00", "\x7f",
]  # fmt: skip

sql_texts = st.lists(
    st.one_of(st.sampled_from(FRAGMENTS), st.text(max_size=3)), max_size=14
).map("".join)


def outcome(scan, sql):
    try:
        return [(t[0], t[1]) for t in scan(sql)]
    except SQLSyntaxError as exc:
        return str(exc)


def is_odd_numeric(ch):
    return ch.isalnum() and not ch.isalpha() and not ch.isdecimal()


@settings(max_examples=2500, deadline=None)
@given(sql_texts)
@example("'a''b''c")  # unterminated after doubled quotes: one error, at offset 0
@example("1.e5 .e5 1e+ 1..2")
@example("a/**/b/*")
@example("x -- trailing")
@example("٣.٥e١")
def test_same_tokens_or_same_error_as_the_reference_scanner(sql):
    old = outcome(reference_lexer.tokenize, sql)
    new = outcome(tokenize, sql)
    if not any(is_odd_numeric(ch) for ch in sql):
        assert new == old
        return
    # the one deliberate difference (module docstring)
    if isinstance(old, str) or any(
        kind == NUMBER and any(is_odd_numeric(ch) for ch in value)
        for kind, value in old
    ):
        assert isinstance(new, str)
    else:
        assert new == old


@settings(max_examples=500, deadline=None)
@given(sql_texts)
def test_every_token_starts_where_it_says(sql):
    """Fails at the parent: NUMBER, STRING and quoted IDENT recorded their end."""
    try:
        tokens = tokenize(sql)
    except SQLSyntaxError:
        return
    previous = 0
    for token in tokens[:-1]:
        assert token.pos >= previous
        previous = token.pos
        if token.kind == STRING:
            assert sql[token.pos] == "'"
        elif token.kind == IDENT and not sql.startswith(token.value, token.pos):
            assert sql.startswith('"' + token.value + '"', token.pos)
        else:
            assert sql.startswith(token.value, token.pos)
    assert tokens[-1].pos == len(sql)


@pytest.mark.parametrize("sql", ["SELECT ²", "SELECT 1² FROM t", "SELECT ½", "SELECT x FROM t LIMIT ²"])
def test_odd_numerics_are_a_syntax_error_not_a_crash(sql):
    """Fails at the parent for the first two (``ValueError`` out of ``int()``)."""
    with pytest.raises(SQLSyntaxError, match="illegal character"):
        parse(sql)


def test_odd_numerics_still_continue_an_identifier():
    assert [t.value for t in tokenize("x² a½")[:-1]] == ["x²", "a½"]
