"""SQL lexer for minidb: one compiled master regex, one match per token.

:func:`tokenize` turns a statement into the flat :class:`Token` list the
recursive-descent parser consumes. The token language (stated once, in
"The SQL front end" of ``docs/ARCHITECTURE.md``):

* whitespace, ``-- …`` line comments and ``/* … */`` block comments separate
  tokens and produce none (an unterminated block comment is an error);
* ``IDENT`` — a letter or ``_`` followed by letters, digits and ``_`` (Unicode
  aware), or any text between double quotes;
* ``NUMBER`` — ``12``, ``1.``, ``.5``, ``1.5e-3``, in ASCII digits only (as
  in PostgreSQL: ``٣`` is an illegal character, not the number 3); an
  exponent needs its digits, so ``1e`` is the number ``1`` followed by the
  identifier ``e``;
* ``STRING`` — single-quoted, a quote inside is doubled (``'it''s'``);
* ``OP`` — ``<= >= <> != ||`` and ``+ - * / % < > =``; ``PUNCT`` — ``( ) , . ;``;
  ``PARAM`` — ``?``; and a closing ``EOF``.

Keywords are not a token kind: every ``IDENT`` carries its upper-cased form
in ``word`` and the parser compares that with constant keyword strings, so
column names may shadow non-reserved words. Every token records the offset
of its *first* character for error messages.

:func:`skeleton` is the parser's template key, read without a lexer pass:
the text with each NUMBER / STRING literal replaced by a one-character
marker of its kind, and the literals' values. It comes from one more
compiled regex, built from the same STRING and NUMBER patterns, which reads
literals where :func:`tokenize` does on every text ``tokenize`` accepts
(``tests/minidb/test_lexer_equivalence.py``); :func:`literal_tokens` is the
same regex's answer with positions, for checking that.
"""

from __future__ import annotations

import re
from typing import NamedTuple

from .errors import SQLSyntaxError

# token kinds
IDENT = "IDENT"
NUMBER = "NUMBER"
STRING = "STRING"
OP = "OP"
PUNCT = "PUNCT"
PARAM = "PARAM"
EOF = "EOF"


class Token(NamedTuple):
    """A single lexical token with its source position (for error messages)."""

    kind: str
    value: str
    #: offset of the token's first character in the source text
    pos: int
    #: upper-cased ``value`` of an IDENT — what keywords are compared with;
    #: empty for every other kind, so a string literal never reads as one
    word: str = ""


# Token(...) runs a Python-level __new__; this is the same construction
# without that frame (about a sixth of the lexer's time on a short SELECT)
_new_token = tuple.__new__

# The literal patterns, stated once: the token regex and the skeleton regex
# read the same text as a literal. A number's digits are ASCII; other
# decimal digits (``٣``) may continue an identifier but start no token.
_STRING = r"' [^']* (?: ''[^']* )* ' (?!')"
_NUMBER = r"(?: [0-9]+ (?: \.[0-9]* )? | \.[0-9]+ ) (?: [eE][+-]?[0-9]+ )?"

# One alternative per token kind behind a prefix that swallows whitespace and
# comments, so finditer yields exactly one match per token. The EOF and BAD
# alternatives make the pattern match at every offset: finditer never skips
# text silently and never backtracks into the prefix.
_QUOTED = "QUOTED"
_BAD = "BAD"
_TOKEN = re.compile(
    rf"""
    (?: \s+ | --[^\n]* | /\*.*?\*/ )*
    (?: (?P<IDENT>  [^\W\d]\w* )
      | (?P<NUMBER> {_NUMBER} )
      | (?P<STRING> {_STRING} )
      | (?P<QUOTED> "[^"]*" )
      | (?P<OP>     <= | >= | <> | != | \|\| | [-+*%<>=] | /(?!\*) )
      | (?P<PUNCT>  [(),.;] )
      | (?P<PARAM>  \? )
      | (?P<EOF>    \Z )
      | (?P<BAD>    . )
    )
    """,
    re.VERBOSE | re.DOTALL,
)

#: the marker standing for each literal kind in a skeleton: characters the
#: lexer rejects outside a string, comment or quoted identifier, so in a
#: text it accepts every marker outside those is a literal
SKELETON_MARKERS = {NUMBER: "#", STRING: "$"}

# One match per literal: the run of text before it, then the literal (or the
# end). The run swallows comments and quoted identifiers whole and every
# character that cannot start a literal. Digits after a word character
# continue an identifier (the run's lookbehind), so a digit-started number
# has none before it; a ``.``-started one needs nothing (``t.5`` and
# ``x1.5`` end in the number ``.5``). The run stops only where a literal or
# the end matches, so nothing backtracks.
_SKELETON = re.compile(
    rf"""
    ( (?: [^-/"'.0-9]+
        | --[^\n]* | /\*.*?\*/ | "[^"]*"
        | (?<=\w)[0-9]+
        | [-/"] | \.(?![0-9]) | (?!{_STRING})'
      )* )
    (?: (?P<STRING> {_STRING} ) | (?P<NUMBER> {_NUMBER} ) | \Z )
    """,
    re.VERBOSE | re.DOTALL,
)


def tokenize(sql: str) -> list[Token]:
    """Tokenize ``sql`` into a list ending with an EOF token.

    Raises :class:`SQLSyntaxError` on unterminated strings, quoted
    identifiers or block comments, and on illegal characters.
    """
    tokens: list[Token] = []
    append = tokens.append
    # ``[^\W\d]`` also admits the few alphanumerics that are neither letters
    # nor decimal digits (², ½, Ⅷ); they may continue an identifier but not
    # start one. Pure-ASCII text has none, so it skips the per-token check.
    check_start = not sql.isascii()
    for match in _TOKEN.finditer(sql):
        kind = match.lastgroup
        text = match.group(kind)
        pos = match.start(kind)
        if kind == IDENT:
            if check_start and not (text[0].isalpha() or text[0] == "_"):
                raise _illegal(sql, pos)
            append(_new_token(Token, (IDENT, text, pos, text.upper())))
        elif kind == STRING:
            append(_new_token(Token, (STRING, text[1:-1].replace("''", "'"), pos, "")))
        elif kind == _QUOTED:
            name = text[1:-1]
            append(_new_token(Token, (IDENT, name, pos, name.upper())))
        elif kind == _BAD:
            raise _illegal(sql, pos)
        else:
            append(_new_token(Token, (kind, text, pos, "")))
            if kind == EOF:
                break
    return tokens


def _illegal(sql: str, pos: int) -> SQLSyntaxError:
    """The error for text no token alternative matches at ``pos``."""
    ch = sql[pos]
    if ch == "'":
        return SQLSyntaxError(f"unterminated string literal at position {pos}")
    if ch == '"':
        return SQLSyntaxError(f"unterminated quoted identifier at position {pos}")
    if sql.startswith("/*", pos):
        return SQLSyntaxError(f"unterminated comment at position {pos}")
    return SQLSyntaxError(f"illegal character {ch!r} at position {pos}")


def skeleton(sql: str) -> tuple[str, list[str]]:
    """``sql``'s literal skeleton and the value of each of its literals, in
    order (a STRING's with its quotes undone, as :func:`tokenize` gives it).

    Two texts with one skeleton differ only in their literals. The
    skeleton of a text :func:`tokenize` rejects is still defined; it may
    coincide with an accepted text's, but never with the same literal count.
    """
    parts: list[str] = []
    values: list[str] = []
    for run, string, number in _SKELETON.findall(sql):
        parts.append(run)
        if string:
            parts.append(SKELETON_MARKERS[STRING])
            values.append(string[1:-1].replace("''", "'"))
        elif number:
            parts.append(SKELETON_MARKERS[NUMBER])
            values.append(number)
    return "".join(parts), values


def literal_tokens(sql: str) -> list[tuple[str, str, int]]:
    """``(kind, value, offset)`` of each literal the skeleton regex reads in
    ``sql``: on a text :func:`tokenize` accepts, its NUMBER and STRING
    tokens."""
    found = []
    for match in _SKELETON.finditer(sql):
        kind = match.lastgroup
        if kind is not None:
            text = match.group(kind)
            if kind == STRING:
                text = text[1:-1].replace("''", "'")
            found.append((kind, text, match.start(kind)))
    return found
