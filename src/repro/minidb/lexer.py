"""SQL lexer for minidb: one compiled master regex, one match per token.

:func:`tokenize` turns a statement into the flat :class:`Token` list the
recursive-descent parser consumes. The token language (stated once, in
"The SQL front end" of ``docs/ARCHITECTURE.md``):

* whitespace, ``-- …`` line comments and ``/* … */`` block comments separate
  tokens and produce none (an unterminated block comment is an error);
* ``IDENT`` — a letter or ``_`` followed by letters, digits and ``_`` (Unicode
  aware), or any text between double quotes;
* ``NUMBER`` — ``12``, ``1.``, ``.5``, ``1.5e-3``; an exponent needs its
  digits, so ``1e`` is the number ``1`` followed by the identifier ``e``;
* ``STRING`` — single-quoted, a quote inside is doubled (``'it''s'``);
* ``OP`` — ``<= >= <> != ||`` and ``+ - * / % < > =``; ``PUNCT`` — ``( ) , . ;``;
  ``PARAM`` — ``?``; and a closing ``EOF``.

Keywords are not a token kind: every ``IDENT`` carries its upper-cased form
in ``word`` and the parser compares that with constant keyword strings, so
column names may shadow non-reserved words. Every token records the offset
of its *first* character for error messages.
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

    def matches_keyword(self, word: str) -> bool:
        return self.word == word.upper()


# Token(...) runs a Python-level __new__; this is the same construction
# without that frame (about a sixth of the lexer's time on a short SELECT)
_new_token = tuple.__new__

# One alternative per token kind behind a prefix that swallows whitespace and
# comments, so finditer yields exactly one match per token. The EOF and BAD
# alternatives make the pattern match at every offset: finditer never skips
# text silently and never backtracks into the prefix.
_QUOTED = "QUOTED"
_BAD = "BAD"
_TOKEN = re.compile(
    r"""
    (?: \s+ | --[^\n]* | /\*.*?\*/ )*
    (?: (?P<IDENT>  [^\W\d]\w* )
      | (?P<NUMBER> (?: \d+ (?:\.\d*)? | \.\d+ ) (?: [eE][+-]?\d+ )? )
      | (?P<STRING> '[^']* (?: ''[^']* )* ' (?!') )
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
