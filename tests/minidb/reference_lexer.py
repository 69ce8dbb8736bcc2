"""The character-walking SQL scanner ``repro.minidb.lexer`` had before PR 15.

Kept, unchanged in what it accepts and what it says, as the reference the
single-regex lexer is compared with (``test_lexer_equivalence.py``): the
``(kind, value)`` sequence and every error message must match. It is the
parent commit's ``lexer.py`` minus its ``Token`` class — positions are not
compared, because this scanner records the *end* offset of NUMBER, STRING
and quoted-IDENT tokens (the defect PR 15 fixes).
"""

from repro.minidb.errors import SQLSyntaxError
from repro.minidb.lexer import EOF, IDENT, NUMBER, OP, PARAM, PUNCT, STRING

_TWO_CHAR_OPS = ("<=", ">=", "<>", "!=", "||")
_ONE_CHAR_OPS = "+-*/%<>="
_PUNCT = "(),.;"


def tokenize(sql: str) -> list[tuple[str, str]]:
    """``sql`` as ``(kind, value)`` pairs ending with ``(EOF, "")``."""
    tokens: list[tuple[str, str]] = []
    i = 0
    n = len(sql)
    while i < n:
        ch = sql[i]
        if ch.isspace():
            i += 1
            continue
        if sql.startswith("--", i):
            newline = sql.find("\n", i)
            i = n if newline < 0 else newline + 1
            continue
        if sql.startswith("/*", i):
            end = sql.find("*/", i + 2)
            if end < 0:
                raise SQLSyntaxError(f"unterminated comment at position {i}")
            i = end + 2
            continue
        if ch == "'":
            value, i = _read_string(sql, i)
            tokens.append((STRING, value))
            continue
        if ch == '"':
            value, i = _read_quoted_identifier(sql, i)
            tokens.append((IDENT, value))
            continue
        if ch.isdigit() or (ch == "." and i + 1 < n and sql[i + 1].isdigit()):
            value, i = _read_number(sql, i)
            tokens.append((NUMBER, value))
            continue
        if ch.isalpha() or ch == "_":
            start = i
            while i < n and (sql[i].isalnum() or sql[i] == "_"):
                i += 1
            tokens.append((IDENT, sql[start:i]))
            continue
        if sql[i : i + 2] in _TWO_CHAR_OPS:
            tokens.append((OP, sql[i : i + 2]))
            i += 2
            continue
        if ch in _ONE_CHAR_OPS:
            tokens.append((OP, ch))
            i += 1
            continue
        if ch in _PUNCT:
            tokens.append((PUNCT, ch))
            i += 1
            continue
        if ch == "?":
            tokens.append((PARAM, "?"))
            i += 1
            continue
        raise SQLSyntaxError(f"illegal character {ch!r} at position {i}")
    tokens.append((EOF, ""))
    return tokens


def _read_string(sql: str, start: int) -> tuple[str, int]:
    """Read a single-quoted string literal starting at ``start``.

    SQL escapes a quote by doubling it: ``'it''s'`` → ``it's``.
    """
    parts: list[str] = []
    i = start + 1
    n = len(sql)
    while i < n:
        ch = sql[i]
        if ch == "'":
            if i + 1 < n and sql[i + 1] == "'":
                parts.append("'")
                i += 2
                continue
            return "".join(parts), i + 1
        parts.append(ch)
        i += 1
    raise SQLSyntaxError(f"unterminated string literal at position {start}")


def _read_quoted_identifier(sql: str, start: int) -> tuple[str, int]:
    end = sql.find('"', start + 1)
    if end < 0:
        raise SQLSyntaxError(f"unterminated quoted identifier at position {start}")
    return sql[start + 1 : end], end + 1


def _read_number(sql: str, start: int) -> tuple[str, int]:
    i = start
    n = len(sql)
    seen_dot = False
    seen_exp = False
    while i < n:
        ch = sql[i]
        if ch.isdigit():
            i += 1
        elif ch == "." and not seen_dot and not seen_exp:
            seen_dot = True
            i += 1
        elif ch in "eE" and not seen_exp and i > start:
            # exponent must be followed by optional sign + digits
            j = i + 1
            if j < n and sql[j] in "+-":
                j += 1
            if j < n and sql[j].isdigit():
                seen_exp = True
                i = j
            else:
                break
        else:
            break
    return sql[start:i], i
