"""The single-regex lexer against the scanner it replaced (PR 15).

``reference_lexer.tokenize`` is the parent commit's character-walking scanner.
For any text the new ``tokenize`` must give the same ``(kind, value)``
sequence, or fail with the same message. Two deliberate differences, one
rule: an alphanumeric that is neither a letter nor an ASCII digit may
continue an identifier but no longer starts or continues a number.

* ``²``, ``½``, ``Ⅷ`` (neither letters nor decimal digits). The old
  scanner lexed ``²`` as a NUMBER, which then crashed the parser with a
  bare ``ValueError`` from ``int()``.
* The other decimal digits (``٣``, ``१२``), since templates are keyed by
  the literal skeleton. The old scanner lexed them as a NUMBER that
  ``int()`` accepts, so ``SELECT ٣`` answered 3, ``LIMIT ٢`` returned two
  rows; PostgreSQL accepts neither, and the skeleton regex reads ASCII
  digits only.

Such a NUMBER is now an error, or, when the odd digit opens its exponent,
two tokens: an exponent needs ASCII digits, so ``1e²`` is the NUMBER ``1``
and the IDENT ``e²``, exactly what the old scanner gives for ``1 e²``.

Below the reference: :func:`lexer.skeleton`, the parser's template key,
against ``tokenize``. On every text ``tokenize`` accepts, the skeleton's
literals are its NUMBER / STRING tokens (kind, value, offset) and the
skeleton is the text with each of them replaced by its kind's marker.

New in PR 15 (the reference does not exist at the parent; pointed at the
parent's ``tokenize`` the properties hold trivially, the position property
does not).
"""

import pytest
import reference_lexer
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.minidb.errors import SQLSyntaxError
from repro.minidb.lexer import (
    IDENT,
    NUMBER,
    SKELETON_MARKERS,
    STRING,
    literal_tokens,
    skeleton,
    tokenize,
)
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
    """An alphanumeric that starts no token: neither a letter nor an ASCII
    digit."""
    return ch.isalnum() and not ch.isalpha() and ch not in "0123456789"


@settings(max_examples=2500, deadline=None)
@given(sql_texts)
@example("'a''b''c")  # unterminated after doubled quotes: one error, at offset 0
@example("1.e5 .e5 1e+ 1..2")
@example("a/**/b/*")
@example("x -- trailing")
@example("٣.٥e١")
@example("1e²")  # the reference lexes one NUMBER, the lexer 1 + IDENT e²
@example("2.5E¹")
def test_same_tokens_or_same_error_as_the_reference_scanner(sql):
    old = outcome(reference_lexer.tokenize, sql)
    new = outcome(tokenize, sql)
    if not any(is_odd_numeric(ch) for ch in sql):
        assert new == old
        return
    # the one deliberate difference (module docstring)
    if isinstance(old, str):
        assert isinstance(new, str)
    elif any(
        kind == NUMBER and any(is_odd_numeric(ch) for ch in value)
        for kind, value in old
    ):
        if not isinstance(new, str):
            assert new == outcome(reference_lexer.tokenize, split_odd_exponents(sql))
    else:
        assert new == old


def split_odd_exponents(sql):
    """``sql`` with a space wherever the lexer ended a NUMBER right before
    an ``e`` whose next character is an odd numeric (``1e²`` → ``1 e²``)."""
    tokens = tokenize(sql)
    for number, ident in reversed(list(zip(tokens, tokens[1:]))):
        end = number.pos + len(number.value)
        if (
            number.kind == NUMBER
            and ident.pos == end
            and ident.value[:1] in ("e", "E")
            and is_odd_numeric(ident.value[1:2])
        ):
            sql = sql[:end] + " " + sql[end:]
    return sql


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


@pytest.mark.parametrize(
    "sql",
    [
        "SELECT ²", "SELECT 1² FROM t", "SELECT ½", "SELECT x FROM t LIMIT ²",
        "SELECT ٣", "SELECT x FROM t WHERE a = ١٠", "SELECT x FROM t LIMIT ٢", "SELECT 1٣",
    ],
)  # fmt: skip
def test_odd_numerics_are_a_syntax_error_not_a_crash(sql):
    """The first two crashed the old scanner (``ValueError`` out of
    ``int()``); the last four parsed until numbers became ASCII-only
    (``SELECT ٣`` answered 3)."""
    with pytest.raises(SQLSyntaxError, match="illegal character"):
        parse(sql)


def test_odd_numerics_still_continue_an_identifier():
    assert [t.value for t in tokenize("x² a½")[:-1]] == ["x²", "a½"]


# --------------------------------------------------------------------------
# the skeleton regex against the lexer
# --------------------------------------------------------------------------


def marked(sql, tokens):
    """``sql`` with each NUMBER / STRING token's text replaced by its
    kind's marker: what the skeleton must be."""
    parts, last = [], 0
    for token in tokens:
        if token.kind == NUMBER:
            end = token.pos + len(token.value)
        elif token.kind == STRING:
            end = token.pos + 2 + len(token.value) + token.value.count("'")
        else:
            continue
        parts += [sql[last : token.pos], SKELETON_MARKERS[token.kind]]
        last = end
    parts.append(sql[last:])
    return "".join(parts)


@given(sql_texts)
@example("t.5")
@example("x1.5")
@example("1.2.3")
@example("1..5")
@example("1e")
@example("1.e5")
@example("名前12.5E-3")
@example("'it''s'")
@example("'--'")
@example('"a\'1"')
@example("-- '1\n")
@example("/* 'a */")
@example("'a")
@example("/*")
def test_skeleton_reads_the_literals_tokenize_reads(sql):
    key, values = skeleton(sql)
    found = literal_tokens(sql)
    assert values == [value for _, value, _ in found]
    try:
        tokens = tokenize(sql)
    except SQLSyntaxError:
        return  # defined, and never the key of an accepted text's literal count
    assert found == [(t.kind, t.value, t.pos) for t in tokens if t.kind in (NUMBER, STRING)]
    assert key == marked(sql, tokens)


def test_skeleton_witnesses():
    """What the pinned examples read, spelled out."""
    assert skeleton("SELECT t.5, x1.5, 1.2.3, 1..5, 1e, 1.e5") == (
        "SELECT t#, x1#, ##, ##, #e, #",
        [".5", ".5", "1.2", ".3", "1.", ".5", "1", "1.e5"],
    )
    assert skeleton("名前12.5E-3") == ("名前12#", [".5E-3"])
    assert skeleton("""'it''s' '--' "a'1" -- '1\n/* 'a */""") == (
        """$ $ "a'1" -- '1\n/* 'a */""",
        ["it's", "--"],
    )
    # rejected texts still have a skeleton: nothing after an unterminated
    # quote is a string, and an unterminated comment hides nothing
    assert skeleton("'a 1") == ("'a #", ["1"])
    assert skeleton("/* 'b' 2") == ("/* $ #", ["b", "2"])
    # an empty marker would make these one key
    assert skeleton("SELECT 1,.5")[0] != skeleton("SELECT 1.5.5,")[0]
