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
spliced into SQL text.  :func:`bind_parameters` is the one parameter rule,
applied in-process and by the network client before it sends: what the
wire (JSON) and the WAL can carry, and nothing else.
"""

from __future__ import annotations

from typing import Any, Optional, Sequence

import numpy as np

from repro.errors import SQLBindError, SQLExecutionError
from repro.sqldb.lexer import Token, TokenKind, tokenize
from repro.sqldb.vector import to_python

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


#: parameter types bound as they are
_PLAIN = frozenset((type(None), bool, int, float, str))


def _bind_value(value: Any) -> Any:
    if type(value) in _PLAIN:
        return value
    if isinstance(value, (list, tuple)):
        # an array parameter; a tuple is read as a list, as JSON does
        return list(map(_bind_value, value))
    if isinstance(value, np.generic):
        value = to_python(value)
    for kind in (bool, int, float, str):  # bool first: it subclasses int
        if isinstance(value, kind):
            return kind(value)
    raise SQLExecutionError(
        f"cannot bind a parameter of type {type(value).__name__}",
        sqlstate="22023",  # invalid_parameter_value
    )


def bind_parameters(
    params: Optional[Sequence[Any]], n_params: Optional[int]
) -> tuple:
    """Normalise a parameter sequence and check it against a placeholder
    count.

    ``None``, ``bool``, ``int``, ``float`` and ``str`` bind as they are,
    numpy scalars as :func:`~repro.sqldb.vector.to_python` makes them,
    and a list or tuple of those (arrays nest) as a list; anything else
    raises 22023 before the statement runs.  A count other than the
    statement's placeholder count *n_params* raises 42P02; ``None`` (the
    network client, which binds before the server has parsed anything)
    skips the count.
    """
    bound = tuple(params) if params is not None else ()
    if not _PLAIN.issuperset(map(type, bound)):
        bound = tuple(map(_bind_value, bound))
    if n_params is not None and len(bound) != n_params:
        raise SQLBindError(
            f"statement expects {n_params} parameter"
            f"{'s' if n_params != 1 else ''}, {len(bound)} given",
            sqlstate="42P02",  # undefined_parameter
        )
    return bound
