"""Statement normalization and parameter binding for prepared statements.

The plan cache keys on *normalized* statement text, so the same logical
statement hits the cache regardless of whitespace, comments, keyword case
or identifier quoting style.  Normalization is collision-free: identifiers
are always rendered double-quoted (an embedded ``"`` doubled) and strings
single-quoted (an embedded ``'`` doubled), so a quoted identifier can never
collide with a keyword and a string literal can never collide with
surrounding syntax.

Placeholders: both ``?`` (DB-API qmark) and ``%s`` (psycopg2 style) lex to
the same positional :class:`~repro.sqldb.ast_nodes.Parameter`; values are
bound at execution time via ``ExecContext.params`` rather than being
spliced into SQL text.
"""

from __future__ import annotations

from typing import Any, Optional, Sequence

from repro.errors import SQLError
from repro.sqldb.lexer import Token, TokenKind, tokenize

__all__ = ["bind_parameters", "normalize_sql", "normalize_tokens"]

# read once per token below; an enum member lookup costs more than a global
_IDENT, _STRING, _PARAM, _EOF = (
    TokenKind.IDENT, TokenKind.STRING, TokenKind.PARAM, TokenKind.EOF
)


def normalize_sql(sql: str) -> tuple[str, int]:
    """Canonical text of *sql* plus its placeholder count.

    Raises :class:`~repro.errors.SQLSyntaxError` on malformed input (same
    lexer the parser uses, so anything that normalizes also tokenizes).
    """
    return normalize_tokens(tokenize(sql))


def normalize_tokens(tokens: Sequence[Token]) -> tuple[str, int]:
    """:func:`normalize_sql` of an already tokenized statement, so that a
    caller that goes on to parse the statement lexes it only once."""
    parts: list[str] = []
    n_params = 0
    for kind, value, _position in tokens:
        if kind is _IDENT:
            parts.append('"' + value.replace('"', '""') + '"')
        elif kind is _STRING:
            parts.append("'" + value.replace("'", "''") + "'")
        elif kind is _PARAM:
            parts.append("?")
            n_params += 1
        elif kind is _EOF:
            break
        else:
            parts.append(value)
    return " ".join(parts), n_params


def bind_parameters(
    params: Optional[Sequence[Any]], n_params: Optional[int]
) -> tuple:
    """Validate a parameter sequence against a placeholder count.

    ``n_params`` is None when the statement was not normalized (cache
    disabled and no parameters supplied); validation is then deferred to
    execution, which raises on any unbound placeholder.
    """
    bound = tuple(params) if params is not None else ()
    if n_params is not None and len(bound) != n_params:
        raise SQLError(
            f"statement expects {n_params} parameter"
            f"{'s' if n_params != 1 else ''}, {len(bound)} given"
        )
    return bound
