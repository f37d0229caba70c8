"""Recursive-descent parser for the supported SQL dialect.

Covers everything the paper's transpiler generates (Listings 1-19) plus a
superset useful for testing: WITH (optionally ``NOT MATERIALIZED``) CTEs,
joins (inner/left/right/full/cross), grouping/having, ordering/limit,
``UNION ALL``, scalar subqueries, ``CASE``, ``CAST``/``::``, ``IN``,
``BETWEEN``, ``IS [NOT] NULL``, ``LIKE``, and the DDL/DML statements
``CREATE TABLE``, ``CREATE [MATERIALIZED] VIEW``, ``INSERT``, ``COPY`` and
``DROP``.

Statements are parsed by recursive descent; expressions by one
precedence-climbing loop over a table of binding powers
(:meth:`_Parser._parse_expr`).
"""

from __future__ import annotations

from dataclasses import replace as _dc_replace
from typing import Optional

from repro.errors import SQLSyntaxError
from repro.sqldb import ast_nodes as ast
from repro.sqldb.lexer import Token, TokenKind, tokenize
from repro.sqldb.vector import STORAGE_CLASSES

__all__ = ["parse_statement", "parse_script", "parse_expression"]

_LITERAL_WORDS = {"true": True, "false": False, "null": None}
# the keyword that opens a join -> its kind (``JOIN`` alone is inner)
_JOIN_KINDS = {
    "cross": "cross", "inner": "inner", "left": "left", "right": "right",
    "full": "full", "join": "inner",
}
# the words type names are made of ("double precision" is two)
_TYPE_WORDS = {word for name in STORAGE_CLASSES for word in name.split()}


# token kinds as globals: an enum member lookup costs several times more
_KEYWORD = TokenKind.KEYWORD
_IDENT = TokenKind.IDENT
_NUMBER = TokenKind.NUMBER
_STRING = TokenKind.STRING
_OPERATOR = TokenKind.OPERATOR
_PUNCT = TokenKind.PUNCT
_PARAM = TokenKind.PARAM
_EOF = TokenKind.EOF

# Binding powers for precedence climbing, loosest first: an operator of
# power p takes its right operand from the operators of power p + 1 and up
# (all of them are left-associative).  Prefix NOT sits between AND and the
# comparisons; prefix minus/plus and the postfix ``::`` cast bind tighter
# than every infix operator.
_OR, _AND, _NOT, _COMPARE, _ADD, _MUL, _UNARY = range(1, 8)
_OPERATOR_POWER = {
    "=": _COMPARE, "<>": _COMPARE, "<": _COMPARE, "<=": _COMPARE,
    ">": _COMPARE, ">=": _COMPARE,
    "+": _ADD, "-": _ADD, "||": _ADD,
    "*": _MUL, "/": _MUL, "%": _MUL,
}
_KEYWORD_POWER = {
    "or": _OR, "and": _AND,
    # comparison-level keywords; NOT only as NOT IN / NOT BETWEEN / NOT LIKE
    "is": _COMPARE, "like": _COMPARE, "in": _COMPARE, "between": _COMPARE,
    "not": _COMPARE,
}


class _Parser:
    def __init__(self, sql: str, tokens: Optional[list[Token]] = None) -> None:
        self._sql = sql
        self._tokens = tokenize(sql) if tokens is None else tokens
        self._pos = 0

    # -- token helpers ------------------------------------------------------
    #
    # The token list ends with EOF and the position never moves past it, so
    # ``self._tokens[self._pos]`` is always a token; a lookahead beyond it is
    # only taken after the current token was seen not to be EOF.

    def _peek(self, offset: int = 0) -> Token:
        return self._tokens[self._pos + offset]

    def _advance(self) -> Token:
        token = self._tokens[self._pos]
        if token.kind is not _EOF:
            self._pos += 1
        return token

    def _error(self, message: str) -> SQLSyntaxError:
        token = self._tokens[self._pos]
        return SQLSyntaxError(f"{message} (near {token.value!r} at offset {token.position})")

    def _accept_keyword(self, *words: str) -> bool:
        token = self._tokens[self._pos]
        if token.kind is _KEYWORD and token.value in words:
            self._pos += 1
            return True
        return False

    def _expect_keyword(self, word: str) -> None:
        if not self._accept_keyword(word):
            raise self._error(f"expected {word.upper()}")

    def _accept_word(self, *words: str) -> Optional[str]:
        """Accept a non-reserved word appearing as KEYWORD or IDENT.

        Words like ``nulls``, ``first``, ``last`` and ``filter`` are not
        reserved in PostgreSQL, so the lexer emits them as identifiers;
        clause parsing must still recognise them positionally.
        """
        token = self._tokens[self._pos]
        if (token.kind is _KEYWORD or token.kind is _IDENT) and token.value in words:
            self._pos += 1
            return token.value
        return None

    def _accept_punct(self, value: str) -> bool:
        token = self._tokens[self._pos]
        if token.kind is _PUNCT and token.value == value:
            self._pos += 1
            return True
        return False

    def _expect_punct(self, value: str) -> None:
        if not self._accept_punct(value):
            raise self._error(f"expected {value!r}")

    def _accept_operator(self, *values: str) -> Optional[str]:
        token = self._tokens[self._pos]
        if token.kind is _OPERATOR and token.value in values:
            self._pos += 1
            return token.value
        return None

    def _expect_identifier(self, what: str = "identifier") -> str:
        token = self._tokens[self._pos]
        if token.kind is _IDENT:
            self._pos += 1
            return token.value
        # allow non-reserved keywords in identifier position (e.g. a column
        # named "view" would arrive quoted, but COPY options use keywords)
        raise self._error(f"expected {what}")

    # -- statements ------------------------------------------------------------

    def parse_script(self) -> list[ast.Statement]:
        statements: list[ast.Statement] = []
        while self._peek().kind is not _EOF:
            statements.append(self.parse_statement())
            while self._accept_punct(";"):
                pass
        return statements

    def parse_statement(self) -> ast.Statement:
        token = self._peek()
        if token.kind is not _KEYWORD:
            # TRAIN and EXPLAIN are not reserved words (columns named
            # "train" or "explain" keep working), so the lexer emits them
            # as identifiers; dispatch on them positionally like the other
            # non-reserved clauses.
            if token.kind is _IDENT and token.value == "train":
                return self._parse_train()
            if token.kind is _IDENT and token.value == "explain":
                self._advance()
                analyze = self._accept_keyword("analyze")
                return ast.Explain(self.parse_select(), analyze)
            raise self._error("expected a statement keyword")
        if token.value in ("select", "with"):
            return self.parse_select()
        if token.value == "create":
            return self._parse_create()
        if token.value == "insert":
            return self._parse_insert()
        if token.value == "update":
            return self._parse_update()
        if token.value == "delete":
            return self._parse_delete()
        if token.value == "copy":
            return self._parse_copy()
        if token.value == "drop":
            return self._parse_drop()
        if token.value == "analyze":
            return self._parse_analyze()
        if token.value == "begin":
            self._advance()
            self._accept_word("transaction", "work")
            return ast.Begin()
        if token.value == "commit":
            self._advance()
            self._accept_word("transaction", "work")
            return ast.Commit()
        if token.value == "rollback":
            return self._parse_rollback()
        if token.value == "savepoint":
            self._advance()
            return ast.Savepoint(self._expect_identifier("savepoint name"))
        if token.value == "release":
            self._advance()
            self._accept_keyword("savepoint")
            return ast.ReleaseSavepoint(
                self._expect_identifier("savepoint name")
            )
        if token.value == "checkpoint":
            self._advance()
            return ast.Checkpoint()
        raise self._error(f"unsupported statement {token.value!r}")

    def _parse_rollback(self) -> ast.Statement:
        self._expect_keyword("rollback")
        if self._accept_word("to"):
            self._accept_keyword("savepoint")
            return ast.RollbackTo(self._expect_identifier("savepoint name"))
        self._accept_word("transaction", "work")
        return ast.Rollback()

    def _parse_analyze(self) -> ast.Analyze:
        self._expect_keyword("analyze")
        if self._peek().kind is _IDENT:
            return ast.Analyze(self._advance().value)
        return ast.Analyze()

    def _parse_create(self) -> ast.Statement:
        self._expect_keyword("create")
        if self._accept_keyword("table"):
            name = self._expect_identifier("table name")
            self._expect_punct("(")
            columns: list[ast.ColumnDef] = []
            while True:
                col = self._expect_identifier("column name")
                columns.append(ast.ColumnDef(col, self._parse_type_name()))
                if not self._accept_punct(","):
                    break
            self._expect_punct(")")
            return ast.CreateTable(name, columns)
        unique = self._accept_word("unique") is not None
        if unique or self._peek().value == "index":
            if self._accept_word("index") is None:
                raise self._error("expected INDEX")
            return self._parse_create_index(unique)
        materialized = self._accept_keyword("materialized")
        self._expect_keyword("view")
        name = self._expect_identifier("view name")
        self._expect_keyword("as")
        start = self._peek().position
        query = self.parse_select()
        text = self._sql[start : self._peek().position].strip()
        return ast.CreateView(name, query, materialized, text)

    def _parse_create_index(self, unique: bool) -> ast.CreateIndex:
        name = self._expect_identifier("index name")
        self._expect_keyword("on")
        table = self._expect_identifier("table name")
        method: Optional[str] = None
        if self._accept_word("using"):
            method = self._expect_identifier("index method").lower()
        self._expect_punct("(")
        columns: list[str] = []
        while True:
            columns.append(self._expect_identifier("column name"))
            if not self._accept_punct(","):
                break
        self._expect_punct(")")
        return ast.CreateIndex(name, table, columns, unique=unique, method=method)

    def _parse_type_name(self) -> str:
        words = []
        while (
            self._peek().kind in (_IDENT, _KEYWORD)
            and self._peek().value in _TYPE_WORDS
        ):
            words.append(self._advance().value)
        if not words:
            raise self._error("expected a type name")
        if self._accept_punct("("):  # a type modifier, e.g. varchar(10): ignored
            while not self._accept_punct(")"):
                if self._advance().kind is _EOF:
                    raise self._error("expected ')'")
        type_name = " ".join(words)
        if self._accept_punct("["):
            self._expect_punct("]")
            type_name += "[]"
        return type_name

    def _parse_insert(self) -> ast.Insert:
        self._expect_keyword("insert")
        self._expect_keyword("into")
        table = self._expect_identifier("table name")
        columns: list[str] = []
        wrapped = False
        if self._accept_punct("("):
            if self._peek().matches_keyword("values"):
                wrapped = True  # INSERT INTO t (VALUES ...) from Listing 1
            else:
                while True:
                    columns.append(self._expect_identifier("column name"))
                    if not self._accept_punct(","):
                        break
                self._expect_punct(")")
        self._expect_keyword("values")
        rows: list[list[ast.Expr]] = []
        while True:
            self._expect_punct("(")
            row: list[ast.Expr] = []
            while True:
                row.append(self.parse_expression())
                if not self._accept_punct(","):
                    break
            self._expect_punct(")")
            rows.append(row)
            if not self._accept_punct(","):
                break
        if wrapped:
            self._expect_punct(")")
        return ast.Insert(table, columns, rows)

    def _parse_copy(self) -> ast.Copy:
        self._expect_keyword("copy")
        table = self._expect_identifier("table name")
        columns: list[str] = []
        if self._accept_punct("("):
            while True:
                columns.append(self._expect_identifier("column name"))
                if not self._accept_punct(","):
                    break
            self._expect_punct(")")
        self._expect_keyword("from")
        path_token = self._advance()
        if path_token.kind is not _STRING:
            raise self._error("expected a file path string after FROM")
        statement = ast.Copy(table, columns, path_token.value)
        if self._accept_keyword("with"):
            self._expect_punct("(")
            while True:
                option = self._advance()
                if option.matches_keyword("delimiter"):
                    statement.delimiter = self._expect_string()
                elif option.matches_keyword("null"):
                    statement.null_text = self._expect_string()
                elif option.matches_keyword("format"):
                    self._expect_keyword("csv")
                elif option.matches_keyword("header"):
                    statement.header = self._accept_keyword("true") or not self._accept_keyword("false")
                else:
                    raise self._error(f"unknown COPY option {option.value!r}")
                if not self._accept_punct(","):
                    break
            self._expect_punct(")")
        return statement

    def _expect_string(self) -> str:
        token = self._advance()
        if token.kind is not _STRING:
            raise self._error("expected a string literal")
        return token.value

    def _parse_train(self) -> ast.Train:
        """``TRAIN name USING ( select ) [WITH ( key = value, ... )]``."""
        if self._accept_word("train") is None:
            raise self._error("expected TRAIN")
        name = self._expect_identifier("model name")
        if self._accept_word("using") is None:
            raise self._error("expected USING after the model name")
        self._expect_punct("(")
        query = self.parse_select()
        self._expect_punct(")")
        options: list[tuple[str, ast.Expr]] = []
        if self._accept_keyword("with"):
            self._expect_punct("(")
            while True:
                key = self._accept_word_or_keyword("option name")
                if self._accept_operator("=") is None:
                    raise self._error("expected = in TRAIN option")
                options.append((key, self.parse_expression()))
                if not self._accept_punct(","):
                    break
            self._expect_punct(")")
        return ast.Train(name, query, options)

    def _accept_word_or_keyword(self, what: str) -> str:
        """An identifier-position word, accepting non-reserved keywords
        too (TRAIN options like ``table`` would otherwise need quoting)."""
        token = self._peek()
        if token.kind in (_IDENT, _KEYWORD):
            return self._advance().value
        raise self._error(f"expected {what}")

    def _parse_drop(self) -> ast.Statement:
        self._expect_keyword("drop")
        if self._accept_word("index"):
            if_exists = False
            if self._accept_keyword("if"):
                self._expect_keyword("exists")
                if_exists = True
            return ast.DropIndex(self._expect_identifier("index name"), if_exists)
        if self._accept_word("model"):
            if_exists = False
            if self._accept_keyword("if"):
                self._expect_keyword("exists")
                if_exists = True
            return ast.DropModel(self._expect_identifier("model name"), if_exists)
        if self._accept_keyword("table"):
            kind = "table"
        elif self._accept_keyword("materialized"):
            self._expect_keyword("view")
            kind = "view"
        elif self._accept_keyword("view"):
            kind = "view"
        else:
            raise self._error("expected TABLE, VIEW, INDEX or MODEL after DROP")
        if_exists = False
        if self._accept_keyword("if"):
            self._expect_keyword("exists")
            if_exists = True
        return ast.Drop(kind, self._expect_identifier("object name"), if_exists)

    def _parse_update(self) -> ast.Update:
        self._expect_keyword("update")
        table = self._expect_identifier("table name")
        self._expect_keyword("set")
        assignments: list[tuple[str, ast.Expr]] = []
        while True:
            column = self._expect_identifier("column name")
            if self._accept_operator("=") is None:
                raise self._error("expected = in SET assignment")
            assignments.append((column, self.parse_expression()))
            if not self._accept_punct(","):
                break
        where = self.parse_expression() if self._accept_keyword("where") else None
        return ast.Update(table, assignments, where)

    def _parse_delete(self) -> ast.Delete:
        self._expect_keyword("delete")
        self._expect_keyword("from")
        table = self._expect_identifier("table name")
        where = self.parse_expression() if self._accept_keyword("where") else None
        return ast.Delete(table, where)

    # -- SELECT -------------------------------------------------------------------

    def parse_select(self) -> ast.Select:
        ctes: list[ast.Cte] = []
        if self._accept_keyword("with"):
            self._accept_keyword("recursive")
            while True:
                name = self._expect_identifier("CTE name")
                self._expect_keyword("as")
                materialized: Optional[bool] = None
                if self._accept_keyword("not"):
                    self._expect_keyword("materialized")
                    materialized = False
                elif self._accept_keyword("materialized"):
                    materialized = True
                self._expect_punct("(")
                query = self.parse_select()
                self._expect_punct(")")
                ctes.append(ast.Cte(name, query, materialized))
                if not self._accept_punct(","):
                    break
        select = self._parse_select_core()
        select.ctes = ctes
        return select

    def _parse_select_core(self) -> ast.Select:
        select = self._parse_select_arm()
        # a chain is parsed in a loop, not by recursion, so its length is
        # not bounded by the interpreter's stack
        while self._accept_keyword("union"):
            self._expect_keyword("all")
            select.union_all.append(self._parse_select_arm())
        if self._accept_keyword("order"):
            self._expect_keyword("by")
            while True:
                expr = self.parse_expression()
                ascending = True
                if self._accept_keyword("desc"):
                    ascending = False
                else:
                    self._accept_keyword("asc")
                nulls_first = self._parse_nulls_placement()
                select.order_by.append(
                    ast.OrderItem(expr, ascending, nulls_first)
                )
                if not self._accept_punct(","):
                    break
        if self._accept_keyword("limit"):
            select.limit = self._expect_int()
        if self._accept_keyword("offset"):
            select.offset = self._expect_int()
        return select

    def _parse_select_arm(self) -> ast.Select:
        """``SELECT ... [HAVING ...]``: one arm of a ``UNION ALL`` chain."""
        self._expect_keyword("select")
        select = ast.Select()
        select.distinct = bool(self._accept_keyword("distinct"))
        while True:
            select.items.append(self._parse_select_item())
            if not self._accept_punct(","):
                break
        if self._accept_keyword("from"):
            while True:
                select.sources.append(self._parse_table_source())
                if not self._accept_punct(","):
                    break
        if self._accept_keyword("where"):
            select.where = self.parse_expression()
        if self._accept_keyword("group"):
            self._expect_keyword("by")
            while True:
                select.group_by.append(self.parse_expression())
                if not self._accept_punct(","):
                    break
        if self._accept_keyword("having"):
            select.having = self.parse_expression()
        return select

    def _parse_nulls_placement(self) -> Optional[bool]:
        """Parse an optional ``NULLS FIRST`` / ``NULLS LAST`` suffix."""
        if not self._accept_word("nulls"):
            return None
        word = self._accept_word("first", "last")
        if word is None:
            raise self._error("expected FIRST or LAST after NULLS")
        return word == "first"

    def _expect_int(self) -> int:
        token = self._advance()
        if token.kind is not _NUMBER:
            raise self._error("expected an integer")
        return int(float(token.value))

    def _parse_select_item(self) -> ast.SelectItem:
        tokens = self._tokens
        token = tokens[self._pos]
        if token.kind is _OPERATOR and token.value == "*":
            self._pos += 1
            return ast.SelectItem(ast.Star())
        if token.kind is _IDENT:  # alias.*  (IDENT . *)
            following = tokens[self._pos + 1]
            if following.kind is _PUNCT and following.value == ".":
                star = tokens[self._pos + 2]
                if star.kind is _OPERATOR and star.value == "*":
                    self._pos += 3
                    return ast.SelectItem(ast.Star(table=token.value))
        expr = self.parse_expression()
        token = tokens[self._pos]
        if token.kind is _IDENT:
            self._pos += 1
            return ast.SelectItem(expr, token.value)
        if token.kind is _KEYWORD and token.value == "as":
            self._pos += 1
            return ast.SelectItem(expr, self._expect_identifier("alias"))
        return ast.SelectItem(expr)

    def _parse_table_source(self) -> ast.TableSource:
        source = self._parse_table_primary()
        while True:
            token = self._tokens[self._pos]
            if token.kind is not _KEYWORD or token.value not in _JOIN_KINDS:
                return source
            self._pos += 1
            kind = _JOIN_KINDS[token.value]
            if token.value != "join":
                if kind in ("left", "right", "full"):
                    self._accept_keyword("outer")
                self._expect_keyword("join")
            right = self._parse_table_primary()
            condition = None
            if kind != "cross":
                self._expect_keyword("on")
                condition = self.parse_expression()
            source = ast.JoinSource(source, right, kind, condition)

    def _parse_table_primary(self) -> ast.TableSource:
        if self._accept_punct("("):
            query = self.parse_select()
            self._expect_punct(")")
            self._accept_keyword("as")
            alias = self._expect_identifier("subquery alias")
            return ast.SubquerySource(query, alias)
        name = self._expect_identifier("table name")
        token = self._tokens[self._pos]
        if token.kind is _IDENT:
            self._pos += 1
            return ast.NamedTable(name, token.value)
        if token.kind is _KEYWORD and token.value == "as":
            self._pos += 1
            return ast.NamedTable(name, self._expect_identifier("alias"))
        return ast.NamedTable(name)

    # -- expressions -----------------------------------------------------------

    def parse_expression(self) -> ast.Expr:
        return self._parse_expr(_OR)

    def _parse_expr(self, min_power: int) -> ast.Expr:
        """Precedence climbing: one operand, then every infix operator that
        binds at least *min_power*, each taking its right operand from the
        levels above its own.

        The powers of the operators applied here never rise: a binary
        operator's right operand swallows every tighter operator after it,
        and after a postfix one (``IS NULL``, ``IN (...)``) or a ``NOT``
        operand a tighter operator ends the expression, as it did in the
        level-per-function grammar this loop replaced.
        """
        tokens = self._tokens
        ceiling = _UNARY
        token = tokens[self._pos]
        if token.kind is _OPERATOR and token.value in ("-", "+"):
            self._pos += 1
            expr = self._parse_expr(_UNARY)
            if token.value == "-":
                expr = ast.UnaryOp("-", expr)
        elif min_power <= _NOT and token.kind is _KEYWORD and token.value == "not":
            self._pos += 1
            expr = ast.UnaryOp("not", self._parse_expr(_NOT))
            ceiling = _AND  # only AND / OR may follow a NOT operand
        else:
            expr = self._parse_primary()
            while self._accept_operator("::"):
                expr = ast.Cast(expr, self._parse_type_name())
        while True:
            token = tokens[self._pos]
            if token.kind is _OPERATOR:
                power = _OPERATOR_POWER.get(token.value)
            elif token.kind is _KEYWORD:
                power = _KEYWORD_POWER.get(token.value)
            else:
                return expr
            if power is None or not min_power <= power <= ceiling:
                return expr
            ceiling = power
            op = token.value
            if power != _COMPARE or token.kind is _OPERATOR:
                self._pos += 1
                expr = ast.BinaryOp(op, expr, self._parse_expr(power + 1))
                continue
            negated = op == "not"
            if negated:  # NOT IN / NOT BETWEEN / NOT LIKE; other NOTs end it
                following = tokens[self._pos + 1]
                op = following.value
                if following.kind is not _KEYWORD or op not in ("in", "between", "like"):
                    return expr
                self._pos += 1
            self._pos += 1
            if op == "is":
                negated = self._accept_keyword("not")
                self._expect_keyword("null")
                expr = ast.IsNull(expr, negated)
            elif op == "like":
                expr = ast.BinaryOp("like", expr, self._parse_expr(_ADD))
                if negated:
                    expr = ast.UnaryOp("not", expr)
            elif op == "in":
                self._expect_punct("(")
                items: list[ast.Expr] = []
                while True:
                    items.append(self.parse_expression())
                    if not self._accept_punct(","):
                        break
                self._expect_punct(")")
                expr = ast.InList(expr, tuple(items), negated)
            else:  # between
                low = self._parse_expr(_ADD)
                self._expect_keyword("and")
                expr = ast.Between(expr, low, self._parse_expr(_ADD), negated)

    def _parse_primary(self) -> ast.Expr:
        token = self._tokens[self._pos]
        kind = token.kind
        if kind is _IDENT:
            following = self._tokens[self._pos + 1]
            self._pos += 1
            if following.kind is not _PUNCT:
                return ast.ColumnRef(token.value)
            if following.value == ".":
                self._pos += 1
                column = self._expect_identifier("column name")
                return ast.ColumnRef(column, table=token.value)
            if following.value == "(":
                self._pos += 1
                return self._parse_call(token.value)
            return ast.ColumnRef(token.value)
        if kind is _NUMBER:
            self._pos += 1
            text = token.value
            if "." in text or "e" in text or "E" in text:
                return ast.Literal(float(text))
            return ast.Literal(int(text))
        if kind is _STRING:
            self._pos += 1
            return ast.Literal(token.value)
        if kind is _PARAM:
            self._pos += 1
            return ast.Parameter(int(token.value))
        if kind is _KEYWORD:
            word = token.value
            if word in _LITERAL_WORDS:
                self._pos += 1
                return ast.Literal(_LITERAL_WORDS[word])
            if word == "case":
                return self._parse_case()
            if word == "cast":
                self._pos += 1
                self._expect_punct("(")
                operand = self.parse_expression()
                self._expect_keyword("as")
                type_name = self._parse_type_name()
                self._expect_punct(")")
                return ast.Cast(operand, type_name)
        if self._accept_punct("("):
            token = self._tokens[self._pos]
            if token.kind is _KEYWORD and token.value in ("select", "with"):
                query = self.parse_select()
                self._expect_punct(")")
                return ast.ScalarSubquery(query)
            expr = self.parse_expression()
            self._expect_punct(")")
            return expr
        raise self._error("expected an expression")

    def _parse_call(self, name: str) -> ast.Expr:
        """A function call's arguments (after ``name(``), then its optional
        FILTER and OVER clauses."""
        if self._accept_operator("*"):
            self._expect_punct(")")
            call = ast.FuncCall(name, star=True)
        elif self._accept_punct(")"):
            call = ast.FuncCall(name)
        else:
            distinct = bool(self._accept_keyword("distinct"))
            args: list[ast.Expr] = []
            while True:
                args.append(self.parse_expression())
                if not self._accept_punct(","):
                    break
            self._expect_punct(")")
            call = ast.FuncCall(name, tuple(args), distinct=distinct)
        return self._maybe_window(self._maybe_filter(call))

    def _maybe_filter(self, call: ast.FuncCall) -> ast.FuncCall:
        """Attach an aggregate ``FILTER (WHERE ...)`` clause if present.

        ``filter`` is not reserved, so require the following ``(`` before
        consuming; ``SELECT count(*) filter`` keeps working as an alias.
        """
        token = self._peek()
        if not (
            token.kind in (_KEYWORD, _IDENT)
            and token.value == "filter"
            and self._peek(1).kind is _PUNCT
            and self._peek(1).value == "("
        ):
            return call
        self._advance()  # filter
        self._expect_punct("(")
        self._expect_keyword("where")
        condition = self.parse_expression()
        self._expect_punct(")")
        return _dc_replace(call, filter_where=condition)

    def _maybe_window(self, call: ast.FuncCall) -> ast.Expr:
        """Attach an OVER clause, turning the call into a window function."""
        if not self._accept_keyword("over"):
            return call
        if call.args or call.star or call.distinct:
            raise self._error(
                "only argument-less window functions are supported"
            )
        self._expect_punct("(")
        partition: list[ast.Expr] = []
        order: list[tuple[ast.Expr, bool]] = []
        if self._accept_keyword("partition"):
            self._expect_keyword("by")
            while True:
                partition.append(self.parse_expression())
                if not self._accept_punct(","):
                    break
        if self._accept_keyword("order"):
            self._expect_keyword("by")
            while True:
                expr = self.parse_expression()
                ascending = True
                if self._accept_keyword("desc"):
                    ascending = False
                else:
                    self._accept_keyword("asc")
                order.append((expr, ascending))
                if not self._accept_punct(","):
                    break
        self._expect_punct(")")
        return ast.WindowCall(call.name, tuple(partition), tuple(order))

    def _parse_case(self) -> ast.Expr:
        self._expect_keyword("case")
        whens: list[tuple[ast.Expr, ast.Expr]] = []
        while self._accept_keyword("when"):
            condition = self.parse_expression()
            self._expect_keyword("then")
            whens.append((condition, self.parse_expression()))
        else_ = None
        if self._accept_keyword("else"):
            else_ = self.parse_expression()
        self._expect_keyword("end")
        if not whens:
            raise self._error("CASE requires at least one WHEN")
        return ast.Case(tuple(whens), else_)


def parse_statement(sql: str) -> ast.Statement:
    """Parse a single SQL statement."""
    parser = _Parser(sql)
    statement = parser.parse_statement()
    while parser._accept_punct(";"):
        pass
    if parser._peek().kind is not _EOF:
        raise parser._error("unexpected trailing input")
    return statement


def parse_script(
    sql: str, tokens: Optional[list[Token]] = None
) -> list[ast.Statement]:
    """Parse a ``;``-separated sequence of statements.

    *tokens* is ``tokenize(sql)`` when the caller already has it (the engine
    lexes a statement once for its plan-cache key and its parse); without
    it the parser lexes *sql* itself.
    """
    return _Parser(sql, tokens).parse_script()


def parse_expression(sql: str) -> ast.Expr:
    """Parse a standalone scalar expression (testing helper)."""
    parser = _Parser(sql)
    expr = parser.parse_expression()
    if parser._peek().kind is not _EOF:
        raise parser._error("unexpected trailing input")
    return expr
