"""SQL tokenizer.

Produces a flat token stream with PostgreSQL conventions: unquoted
identifiers are folded to lower case, double-quoted identifiers preserve
case (``""`` inside one is an embedded ``"``), single-quoted strings use
``''`` for an embedded quote, and both ``--`` line comments and ``/* */``
block comments are skipped.

The whole lexer is one compiled master regex with a named group per token
class, matched at successive offsets: the regex engine skips whitespace and
comments and finds the token's extent, and Python only builds the token.
"""

from __future__ import annotations

import re
from enum import Enum, auto
from functools import lru_cache
from typing import NamedTuple

from repro.errors import SQLSyntaxError

__all__ = ["Token", "TokenKind", "tokenize", "KEYWORDS"]


class TokenKind(Enum):
    KEYWORD = auto()
    IDENT = auto()
    NUMBER = auto()
    STRING = auto()
    OPERATOR = auto()
    PUNCT = auto()
    PARAM = auto()  # positional placeholder: ``?`` or psycopg2-style ``%s``
    EOF = auto()


KEYWORDS = {
    "all", "analyze", "and", "as", "asc", "begin", "between", "by", "case",
    "cast", "checkpoint", "commit", "copy", "create", "cross", "csv",
    "delete", "delimiter", "desc", "distinct", "drop", "else", "end",
    "exists", "false",
    "format", "from", "full", "group", "having", "header", "if", "in",
    "inner", "insert", "into", "is", "join", "left", "like", "limit",
    "materialized", "not", "null", "offset", "on", "or", "order", "outer",
    "over", "partition", "recursive", "release", "right", "rollback",
    "savepoint", "select", "set", "table", "then", "true", "union",
    "update", "values", "view", "when", "where", "with",
}


class Token(NamedTuple):
    kind: TokenKind
    value: str
    position: int

    def matches_keyword(self, word: str) -> bool:
        return self.kind is TokenKind.KEYWORD and self.value == word


_MASTER_TEMPLATE = r"""
    (?:\s+|--[^\n]*|/\*.*?\*/)*                 # skipped: whitespace, comments
    (?:
        (?P<word>{word_start}\w*)               # keyword or identifier
      | (?P<punct>[(),;\[\]]|\.(?![{digits}]))
      | (?P<operator><>|!=|<=|>=|::|\|\||[=<>+\-*]|/(?!\*)|%(?!s(?!\w)))
      | (?P<number>(?:[{digits}]+(?:\.[{digits}]*)?|\.[{digits}]+)
                   (?:[eE][+\-{digits}][{digits}]*)?)
      | (?P<string>'[^']*(?:''[^']*)*'(?!'))    # '' is a quote
      | (?P<quoted>"[^"]*(?:""[^"]*)*"(?!"))    # identifier; "" is a quote
      | (?P<param>\?|%s)
      | (?P<end>\Z)
      | (?P<open_string>')                      # unterminated
      | (?P<open_quoted>")
      | (?P<open_comment>/\*)
      | (?P<other>.)                            # unexpected character
    )
"""


@lru_cache(maxsize=64)
def _master(odd_digits: str = "", not_word_start: str = "") -> re.Pattern:
    """The master regex; the arguments widen its character classes so that
    they agree with ``str.isdigit`` / ``str.isalpha`` on characters where
    the regex classes ``\\d`` and ``\\w`` do not (see :func:`_pattern_for`)."""
    digits = r"\d" + re.escape(odd_digits)
    word_start = rf"[^\W\d{re.escape(not_word_start)}]"
    return re.compile(
        _MASTER_TEMPLATE.format(digits=digits, word_start=word_start),
        re.VERBOSE | re.DOTALL,
    )


def _pattern_for(sql: str) -> re.Pattern:
    """A token starts a number on ``str.isdigit`` and a word on
    ``str.isalpha`` or ``_``.  On ASCII that is exactly ``\\d`` and
    ``[^\\W\\d]``; a few non-ASCII characters (superscripts, circled and
    Roman numerals, fractions) are word characters (``\\w``) that are not
    decimal (``\\d``) yet are digits or not letters, so a statement holding
    one gets a master regex that names them."""
    if sql.isascii():
        return _master()
    odd = [c for c in set(sql) if c.isalnum() and not (c.isalpha() or c.isdecimal())]
    if not odd:
        return _master()
    odd.sort()
    return _master(
        "".join(c for c in odd if c.isdigit()), "".join(odd)
    )


# enum attribute lookups are slow next to a global's; the loop below reads
# each kind once per token
_IDENT = TokenKind.IDENT
_PUNCT = TokenKind.PUNCT
_OPERATOR = TokenKind.OPERATOR
_NUMBER = TokenKind.NUMBER
_WORD_KINDS = dict.fromkeys(KEYWORDS, TokenKind.KEYWORD)
_UNTERMINATED = {
    "open_string": "unterminated string literal",
    "open_quoted": "unterminated quoted identifier",
    "open_comment": "unterminated block comment",
}


def tokenize(sql: str) -> list[Token]:
    """Tokenize *sql*; raises :class:`SQLSyntaxError` on malformed input."""
    tokens: list[Token] = []
    append = tokens.append
    n_params = 0
    # the pattern matches at every offset (``other`` takes any character
    # and ``end`` the end of input), so the matches tile the statement
    for m in _pattern_for(sql).finditer(sql):
        group = m.lastgroup
        start, end = m.span(group)
        if group == "word":
            word = sql[start:end].lower()
            append(Token(_WORD_KINDS.get(word, _IDENT), word, start))
        elif group == "punct":
            append(Token(_PUNCT, sql[start], start))
        elif group == "operator":
            op = sql[start:end]
            append(Token(_OPERATOR, "<>" if op == "!=" else op, start))
        elif group == "number":
            append(Token(_NUMBER, sql[start:end], start))
        elif group == "string":
            text = sql[start + 1 : end - 1].replace("''", "'")
            append(Token(TokenKind.STRING, text, start))
        elif group == "quoted":
            append(Token(_IDENT, sql[start + 1 : end - 1].replace('""', '"'), start))
        elif group == "param":
            append(Token(TokenKind.PARAM, str(n_params), start))
            n_params += 1
        elif group == "end":
            break
        elif group == "other":
            raise SQLSyntaxError(f"unexpected character {sql[start]!r} at offset {start}")
        else:
            raise SQLSyntaxError(f"{_UNTERMINATED[group]} at offset {start}")
    append(Token(TokenKind.EOF, "", len(sql)))
    return tokens
