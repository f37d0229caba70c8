"""Unit tests for the SQL lexer and parser."""

import pytest

from repro.errors import SQLError, SQLSyntaxError
from repro.sqldb import Database
from repro.sqldb import ast_nodes as ast
from repro.sqldb.lexer import TokenKind, tokenize
from repro.sqldb.parser import parse_expression, parse_script, parse_statement
from repro.sqldb.prepared import normalize_sql


class TestLexer:
    def test_keywords_case_insensitive(self):
        tokens = tokenize("SELECT select SeLeCt")
        assert all(t.kind is TokenKind.KEYWORD for t in tokens[:3])

    def test_unquoted_identifiers_lowercased(self):
        assert tokenize("MyTable")[0].value == "mytable"

    def test_quoted_identifier_preserves_case(self):
        token = tokenize('"Age_Group"')[0]
        assert token.kind is TokenKind.IDENT
        assert token.value == "Age_Group"

    def test_string_with_escaped_quote(self):
        assert tokenize("'it''s'")[0].value == "it's"

    def test_numbers(self):
        values = [t.value for t in tokenize("1 2.5 1e3 .5")[:-1]]
        assert values == ["1", "2.5", "1e3", ".5"]

    def test_line_comment_skipped(self):
        tokens = tokenize("SELECT -- comment\n 1")
        assert [t.value for t in tokens[:-1]] == ["select", "1"]

    def test_block_comment_skipped(self):
        tokens = tokenize("SELECT /* x */ 1")
        assert len(tokens) == 3

    def test_operators(self):
        ops = [t.value for t in tokenize("<> != <= >= :: ||")[:-1]]
        assert ops == ["<>", "<>", "<=", ">=", "::", "||"]

    def test_unterminated_string(self):
        with pytest.raises(SQLSyntaxError):
            tokenize("'oops")

    def test_unexpected_character(self):
        with pytest.raises(SQLSyntaxError):
            tokenize("SELECT @")

    def test_doubled_quote_inside_quoted_identifier(self):
        tokens = tokenize('SELECT "a""b", """", "x"""')
        idents = [t.value for t in tokens if t.kind is TokenKind.IDENT]
        assert idents == ['a"b', '"', 'x"']

    def test_odd_quote_run_leaves_identifier_open(self):
        with pytest.raises(SQLSyntaxError, match="quoted identifier at offset 7"):
            tokenize('SELECT """ FROM t')

    def test_token_is_a_tuple(self):
        token = tokenize("x")[0]
        assert token == (TokenKind.IDENT, "x", 0)
        assert token.matches_keyword("x") is False


class TestUnclosedTypeModifier:
    """An unclosed type modifier is a syntax error; the parser used to
    skip tokens looking for its ``)`` and spin forever at the end."""

    @pytest.mark.parametrize(
        "sql",
        [
            "SELECT a::varchar(10",
            "SELECT CAST(a AS numeric(10, 2",
            "CREATE TABLE t (a varchar(10",
        ],
    )
    def test_rejected(self, sql):
        with pytest.raises(SQLSyntaxError, match="expected '\\)'"):
            parse_script(sql)

    def test_closed_modifier_still_ignored(self):
        statement = parse_statement("CREATE TABLE t (a varchar(10), b numeric(4, 1))")
        assert [c.type_name for c in statement.columns] == ["varchar", "numeric"]


class TestQuotedIdentifierQuotes:
    """``""`` inside a quoted identifier is one ``"`` (PostgreSQL's rule),
    not the end of one identifier and the start of the next."""

    @pytest.fixture
    def db(self):
        db = Database()
        db.run_script(
            'CREATE TABLE u (a int, b int, "a""b" int, "a"" ""b" int);'
            "INSERT INTO u VALUES (1, 2, 3, 4)"
        )
        return db

    def test_select_reads_the_quoted_column(self, db):
        result = db.execute('SELECT "a""b" FROM u')
        assert result.columns == ['a"b']
        assert result.rows == [(3,)]

    def test_missing_quoted_column_is_an_error(self):
        db = Database()
        db.execute("CREATE TABLE u (a int, b int)")
        with pytest.raises(SQLError, match='a"b'):
            db.execute('SELECT "a""b" FROM u')

    def test_quote_in_identifier_keeps_plan_cache_keys_apart(self, db):
        spaced, aliased = 'SELECT "a"" ""b" FROM u', 'SELECT "a" "b" FROM u'
        assert normalize_sql(spaced) != normalize_sql(aliased)
        assert db.execute(spaced).rows == [(4,)]
        result = db.execute(aliased)
        assert (result.columns, result.rows) == (["b"], [(1,)])


class TestExpressionParsing:
    def test_precedence_mul_before_add(self):
        expr = parse_expression("1 + 2 * 3")
        assert isinstance(expr, ast.BinaryOp)
        assert expr.op == "+"
        assert isinstance(expr.right, ast.BinaryOp)
        assert expr.right.op == "*"

    def test_and_binds_tighter_than_or(self):
        expr = parse_expression("a or b and c")
        assert expr.op == "or"

    def test_comparison_chain(self):
        expr = parse_expression("a > 1.2 * b")
        assert expr.op == ">"

    def test_in_list(self):
        expr = parse_expression("county IN ('c2', 'c3')")
        assert isinstance(expr, ast.InList)
        assert len(expr.items) == 2

    def test_not_in(self):
        expr = parse_expression("x NOT IN (1)")
        assert isinstance(expr, ast.InList)
        assert expr.negated

    def test_is_null_and_is_not_null(self):
        assert isinstance(parse_expression("x IS NULL"), ast.IsNull)
        expr = parse_expression("x IS NOT NULL")
        assert expr.negated

    def test_between(self):
        expr = parse_expression("x BETWEEN 1 AND 2")
        assert isinstance(expr, ast.Between)

    def test_case_when(self):
        expr = parse_expression("CASE WHEN x >= 50 THEN 1 ELSE 0 END")
        assert isinstance(expr, ast.Case)
        assert len(expr.whens) == 1

    def test_cast_double_colon(self):
        expr = parse_expression("x::int")
        assert isinstance(expr, ast.Cast)
        assert expr.type_name == "int"

    def test_cast_function_form(self):
        expr = parse_expression("CAST(x AS double precision)")
        assert expr.type_name == "double precision"

    def test_function_call_star(self):
        expr = parse_expression("count(*)")
        assert expr.star

    def test_function_call_distinct(self):
        expr = parse_expression("count(DISTINCT s)")
        assert expr.distinct

    def test_qualified_column(self):
        expr = parse_expression("tb1.ssn")
        assert expr.table == "tb1"

    def test_quoted_qualified_column(self):
        expr = parse_expression('tb_orig."age_group"')
        assert expr.name == "age_group"

    def test_unary_minus(self):
        expr = parse_expression("-x")
        assert isinstance(expr, ast.UnaryOp)

    def test_scalar_subquery(self):
        expr = parse_expression("(SELECT count(*) FROM t)")
        assert isinstance(expr, ast.ScalarSubquery)


class TestStatementParsing:
    def test_simple_select(self):
        stmt = parse_statement("SELECT a, b FROM t WHERE a > 1")
        assert isinstance(stmt, ast.Select)
        assert len(stmt.items) == 2
        assert stmt.where is not None

    def test_select_star_and_alias_star(self):
        stmt = parse_statement("SELECT *, t.* FROM t")
        assert isinstance(stmt.items[0].expr, ast.Star)
        assert stmt.items[1].expr.table == "t"

    def test_with_cte_chain(self):
        stmt = parse_statement(
            "WITH a AS (SELECT 1), b AS (SELECT 2) SELECT * FROM b"
        )
        assert [c.name for c in stmt.ctes] == ["a", "b"]

    def test_not_materialized_cte(self):
        stmt = parse_statement(
            "WITH a AS NOT MATERIALIZED (SELECT 1) SELECT * FROM a"
        )
        assert stmt.ctes[0].materialized is False

    def test_join_kinds(self):
        stmt = parse_statement(
            "SELECT * FROM a INNER JOIN b ON a.x = b.x "
            "RIGHT OUTER JOIN c ON b.y = c.y"
        )
        join = stmt.sources[0]
        assert join.kind == "right"
        assert join.left.kind == "inner"

    def test_cross_join_no_condition(self):
        stmt = parse_statement("SELECT * FROM a CROSS JOIN b")
        assert stmt.sources[0].condition is None

    def test_comma_sources(self):
        stmt = parse_statement("SELECT * FROM a, b")
        assert len(stmt.sources) == 2

    def test_group_by_having_order_limit(self):
        stmt = parse_statement(
            "SELECT s, count(*) FROM t GROUP BY s HAVING count(*) > 1 "
            "ORDER BY s DESC LIMIT 5 OFFSET 2"
        )
        assert len(stmt.group_by) == 1
        assert stmt.having is not None
        assert not stmt.order_by[0].ascending
        assert stmt.limit == 5
        assert stmt.offset == 2

    def test_union_all(self):
        stmt = parse_statement("SELECT 1 UNION ALL SELECT 2 UNION ALL SELECT 3")
        assert len(stmt.union_all) == 2
        assert not any(arm.union_all for arm in stmt.union_all)

    def test_subquery_source(self):
        stmt = parse_statement("SELECT * FROM (SELECT 1 AS x) sub")
        assert isinstance(stmt.sources[0], ast.SubquerySource)
        assert stmt.sources[0].alias == "sub"

    def test_create_table(self):
        stmt = parse_statement('CREATE TABLE t ("a" int, b text, c serial)')
        assert isinstance(stmt, ast.CreateTable)
        assert [c.name for c in stmt.columns] == ["a", "b", "c"]

    def test_create_table_array_type(self):
        stmt = parse_statement("CREATE TABLE t (ids int[])")
        assert stmt.columns[0].type_name == "int[]"

    def test_create_view(self):
        stmt = parse_statement("CREATE VIEW v AS SELECT 1")
        assert isinstance(stmt, ast.CreateView)
        assert not stmt.materialized

    def test_create_materialized_view(self):
        stmt = parse_statement("CREATE MATERIALIZED VIEW v AS SELECT 1")
        assert stmt.materialized

    def test_insert_plain(self):
        stmt = parse_statement("INSERT INTO t (a, b) VALUES (1, 'x'), (2, 'y')")
        assert isinstance(stmt, ast.Insert)
        assert len(stmt.rows) == 2

    def test_insert_paper_listing1_form(self):
        # Listing 1 wraps VALUES in parentheses
        stmt = parse_statement("INSERT INTO data (values (1,1), (1,2))")
        assert len(stmt.rows) == 2
        assert stmt.columns == []

    def test_copy_with_options(self):
        stmt = parse_statement(
            "COPY t (\"a\", \"b\") FROM 'x.csv' WITH "
            "(DELIMITER ',', NULL '', FORMAT CSV, HEADER TRUE)"
        )
        assert isinstance(stmt, ast.Copy)
        assert stmt.columns == ["a", "b"]
        assert stmt.header

    def test_drop_table_if_exists(self):
        stmt = parse_statement("DROP TABLE IF EXISTS t")
        assert stmt.if_exists

    def test_drop_view(self):
        stmt = parse_statement("DROP VIEW v")
        assert stmt.kind == "view"

    def test_script_splits_statements(self):
        script = parse_script("SELECT 1; SELECT 2; ")
        assert len(script) == 2

    def test_trailing_garbage_rejected(self):
        with pytest.raises(SQLSyntaxError):
            parse_statement("SELECT 1 garbage extra !")

    def test_listing5_shape_parses(self):
        # abridged version of the paper's generated query (Listing 5)
        sql = """
        WITH patients_ctid AS (
            SELECT *, ctid AS patients_51_mlinid0_ctid FROM patients
        ), block_mlinid3_54 AS (
            SELECT array_agg(tb1.patients_51_mlinid0_ctid) AS
                patients_51_mlinid0_ctid, "age_group",
                AVG("complications") AS "mean_complications"
            FROM patients_ctid tb1 GROUP BY "age_group"
        )
        SELECT tb_orig."age_group", count(*)
        FROM block_mlinid3_54 tb_curr JOIN patients_ctid tb_orig
            ON tb_curr.patients_51_mlinid0_ctid = tb_orig.patients_51_mlinid0_ctid
        GROUP BY tb_orig."age_group"
        """
        stmt = parse_statement(sql)
        assert len(stmt.ctes) == 2

    def test_explain_is_a_statement(self):
        plain = parse_statement("EXPLAIN SELECT a FROM t")
        assert isinstance(plain, ast.Explain) and not plain.analyze
        assert plain.query == parse_statement("SELECT a FROM t")
        analyzed = parse_statement("explain analyze WITH s AS (SELECT 1) SELECT * FROM s")
        assert isinstance(analyzed, ast.Explain) and analyzed.analyze
        assert [cte.name for cte in analyzed.query.ctes] == ["s"]
        with pytest.raises(SQLSyntaxError):
            parse_statement("EXPLAIN INSERT INTO t VALUES (1)")

    def test_explain_stays_a_column_name(self):
        # EXPLAIN is not reserved: it is dispatched on only in statement
        # position, like TRAIN
        db = Database()
        db.execute("CREATE TABLE t (explain int)")
        db.execute("INSERT INTO t VALUES (4)")
        assert db.execute("SELECT explain FROM t WHERE explain > 1").rows == [(4,)]
        (line,) = db.execute("EXPLAIN SELECT explain FROM t").column("QUERY PLAN")[:1]
        assert line.startswith("Project(explain)")
