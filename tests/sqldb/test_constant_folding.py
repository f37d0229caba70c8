"""Constant folding through the planner's compiler, over every position.

``fold_select`` compiles each constant subtree with ``Planner.compile_expr``
and runs it on one row, in items, WHERE, ON, GROUP BY, HAVING, ORDER BY,
window specs and nested queries alike.  The property test pins the one
evaluator: a constant expression written with literals (folded) answers
as the same expression written with parameters (never folded, computed
at run time), as a select item and as a WHERE predicate.
"""

import sqlite3

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SQLExecutionError
from repro.sqldb import Database
from repro.sqldb import ast_nodes as ast
from repro.sqldb.optimizer import fold_select
from repro.sqldb.parser import parse_statement
from repro.sqldb.planner import Planner
from tests.sqldb.plans import explain

GROUP_HAVING = [
    "SELECT -1 + g AS k, count(*) AS c FROM t GROUP BY -1 + g "
    "HAVING -1 + g > 0",
    "SELECT g + (2 - 1) AS k, count(*) AS c FROM t GROUP BY g + (2 - 1) "
    "HAVING g + (2 - 1) > 2",
]
ROWS = [(1, 1), (2, 5), (3, 5), (3, 7), (None, 2), (4, -1)]


@pytest.fixture(params=["postgres", "umbra"])
def db(request):
    database = Database(request.param)
    database.execute("CREATE TABLE t (g int, k int)")
    database.execute(
        "INSERT INTO t VALUES "
        + ", ".join(
            f"({'NULL' if g is None else g}, {k})" for g, k in ROWS
        )
    )
    yield database
    database.close()


def _fold(db, sql):
    planner = Planner(db.catalog, db.profile)
    return fold_select(parse_statement(sql), planner)


@pytest.mark.parametrize("sql", GROUP_HAVING)
def test_group_by_having_over_a_folded_key_answers_as_sqlite(db, sql):
    oracle = sqlite3.connect(":memory:")
    oracle.execute("CREATE TABLE t (g INTEGER, k INTEGER)")
    oracle.executemany("INSERT INTO t VALUES (?, ?)", ROWS)
    expected = sorted(oracle.execute(sql).fetchall())
    assert sorted(db.execute(sql).rows) == expected
    assert expected  # the HAVING keeps some groups


@pytest.mark.parametrize(
    "predicate", ["k = abs(-5)", "k = CAST('5' AS int)", "k IN (-1, 2 + 3)"]
)
def test_a_computed_constant_probes_the_index(db, predicate):
    sql = f"SELECT g, k FROM t WHERE {predicate}"
    scanned = sorted(db.execute(sql).rows, key=repr)
    db.execute("CREATE INDEX t_k ON t (k)")
    plan = explain(db, sql)
    assert "IndexScan(t using t_k" in plan and "Filter" not in plan
    assert sorted(db.execute(sql).rows, key=repr) == scanned
    assert {k for _, k in scanned} <= {5, -1}
    assert scanned


def test_a_plain_view_body_folds_like_a_subquery(db):
    db.execute("CREATE INDEX t_k ON t (k)")
    body = "SELECT g, k FROM t WHERE k = abs(-5)"
    db.execute(f"CREATE VIEW v AS {body}")
    through_view = explain(db, "SELECT g FROM v")
    through_subquery = explain(db, f"SELECT g FROM ({body}) s")
    for plan in (through_view, through_subquery):
        assert "IndexScan(t using t_k, eq)" in plan and "Filter" not in plan
    expected = sorted(db.execute(f"SELECT g FROM ({body}) s").rows, key=repr)
    assert sorted(db.execute("SELECT g FROM v").rows, key=repr) == expected
    assert expected == [(2,), (3,)]


def test_every_position_folds_and_items_keep_their_names(db):
    sql = (
        "WITH c AS (SELECT g, k * (1 + 1) AS kk FROM t WHERE k > 2 - 2) "
        "SELECT abs(-3), 2 * 3 AS six, upper('a') || 'b', c.g + (1 - 1), "
        "(SELECT max(k) + (1 + 1) FROM t), "
        "rank() OVER (PARTITION BY c.g + (1 - 1) ORDER BY kk * (2 - 1)) AS r "
        "FROM c JOIN t ON c.g = t.g + (3 - 3) "
        "ORDER BY c.g + (5 - 5), r"
    )
    folded, changed = _fold(db, sql)
    assert changed
    leftover = [
        node
        for node in ast.walk(folded)
        if isinstance(node, ast.BinaryOp)
        and all(isinstance(part, ast.Literal) for part in ast.children(node))
    ]
    assert not leftover
    result = db.execute(sql)
    assert result.columns == ["abs", "six", "?column?", "?column?",
                              "?column?", "r"]
    assert {row[:3] for row in result.rows} == {(3, 6, "Ab")}


def test_folding_neither_mutates_nor_copies_needlessly(db):
    statement = parse_statement(
        "SELECT g FROM t WHERE k > 1 + 1 UNION ALL SELECT g FROM t"
    )
    before = repr(statement)
    planner = Planner(db.catalog, db.profile)
    folded, changed = fold_select(statement, planner)
    assert changed and repr(statement) == before
    assert folded.union_all[0] is statement.union_all[0]  # untouched arm
    again, changed = fold_select(folded, planner)
    assert again is folded and not changed


@pytest.mark.parametrize(
    "sql",
    [
        "SELECT CAST(NULL AS text) FROM t",  # a typed NULL: text, not float
        "SELECT 1 = NULL FROM t",  # a boolean NULL
        "SELECT array_fill(1, 2) FROM t",  # an array
        "SELECT 'a' + 1 FROM t",  # raises: runs (and raises) at run time
        "SELECT unnest(array_fill(1, 2)) FROM t",  # not a row expression
    ],
)
def test_unfoldable_constants_stay_as_written(db, sql):
    folded, changed = _fold(db, sql)
    assert not changed
    assert not isinstance(folded.items[0].expr, ast.Literal)


def test_a_raising_constant_raises_only_when_a_row_computes_it(db):
    db.execute("CREATE TABLE empty (a int)")
    assert db.execute("SELECT a FROM empty WHERE 'a' + 1 = 1").rows == []
    with pytest.raises(SQLExecutionError):
        db.execute("SELECT g FROM t WHERE 'a' + 1 = 1")


def test_short_circuits_drop_the_other_operand(db):
    for sql, expected in [
        ("SELECT g FROM t WHERE g > 1 AND 1 = 2", "Literal(value=False)"),
        ("SELECT g FROM t WHERE g > 1 OR 1 = 1", "Literal(value=True)"),
    ]:
        folded, changed = _fold(db, sql)
        assert changed and repr(folded.where) == expected


def test_map_children_keeps_identity_and_rebuilds_only_the_path():
    statement = parse_statement(
        "SELECT a, CASE WHEN b THEN 1 ELSE 2 END FROM t "
        "WHERE a IN (1, 2) ORDER BY a"
    )
    assert ast.map_children(statement, lambda node: node) is statement
    one = ast.Literal(1)

    def swap(node):
        if node == ast.Literal(2):
            return one
        return ast.map_children(node, swap)

    swapped = swap(statement)
    assert swapped is not statement and swapped.items[0] is statement.items[0]
    assert swapped.order_by is statement.order_by
    assert swapped.where.items == (one, one)
    assert swapped.items[1].expr.else_ is one


# -- the property: folded equals computed -------------------------------------

_LEAVES = st.one_of(
    st.integers(-6, 6),
    st.sampled_from([0.5, -2.25, 7.75, "a", "b", "", None, True, False]),
)


def _leaf(value):
    if value is None:
        sql = "NULL"
    elif isinstance(value, bool):
        sql = "TRUE" if value else "FALSE"
    elif isinstance(value, str):
        sql = f"'{value}'"
    else:
        sql = str(value)
    return sql, "?", (value,)


def _join(template, *parts):
    """Render *template* over *parts* in both spellings: literals, and
    parameters (whose values follow the text order of the marks)."""
    literal = template.format(*(part[0] for part in parts))
    marked = template.format(*(part[1] for part in parts))
    params = sum((part[2] for part in parts), ())
    return literal, marked, params


def _extend(children):
    e = children  # every operand is another constant expression
    return st.one_of(
        st.builds(
            lambda op, a, b: _join("({} " + op + " {})", a, b),
            st.sampled_from(
                ["+", "-", "*", "/", "||", "=", "<>", "<", ">=", "AND", "OR"]
            ),
            e,
            e,
        ),
        st.builds(lambda a: _join("(NOT {})", a), e),
        st.builds(lambda a: _join("(- {})", a), e),
        st.builds(lambda a: _join("({} IS NULL)", a), e),
        st.builds(lambda a, b, c: _join("({} IN ({}, {}))", a, b, c),
                  e, e, e),
        st.builds(lambda a, b: _join("({} NOT IN ({}, NULL))", a, b),
                  e, e),
        st.builds(lambda a, b, c: _join("({} BETWEEN {} AND {})", a, b, c),
                  e, e, e),
        st.builds(
            lambda a, b, c: _join("CASE WHEN {} THEN {} ELSE {} END", a, b, c),
            e, e, e,
        ),
        st.builds(
            lambda t, a: _join("CAST({} AS " + t + ")", a),
            st.sampled_from(["int", "text", "double precision"]),
            e,
        ),
        st.builds(
            lambda f, a: _join(f + "({})", a),
            st.sampled_from(["abs", "upper", "length", "round"]),
            e,
        ),
        st.builds(
            lambda f, a, b: _join(f + "({}, {})", a, b),
            st.sampled_from(["coalesce", "nullif", "greatest", "least"]),
            e,
            e,
        ),
    )


constant_expressions = st.recursive(
    _LEAVES.map(_leaf), _extend, max_leaves=8
)


def _outcome(db, sql, params=()):
    try:
        result = db.execute(sql, params)
    except Exception as exc:  # noqa: BLE001 - compared, not hidden
        return type(exc).__name__
    return result.columns, result.rows


@pytest.fixture(scope="module")
def one_row():
    database = Database("postgres")
    database.execute("CREATE TABLE one (x int)")
    database.execute("INSERT INTO one VALUES (1)")
    yield database
    database.close()


@settings(max_examples=300, deadline=None)
@given(expression=constant_expressions)
def test_a_folded_constant_answers_as_the_computed_one(one_row, expression):
    literal, marked, params = expression
    computed = _outcome(one_row, f"SELECT {marked}", params)
    if isinstance(computed, str):
        # execution raised; folding may have short-circuited the raising
        # operand away (``x AND FALSE``), so there is no value to compare
        return
    assert _outcome(one_row, f"SELECT {literal}") == computed
    ((value,),) = computed[1]
    if value is None or isinstance(value, bool):
        where = f"SELECT x FROM one WHERE ({literal})"
        kept = _outcome(one_row, where)
        unknown = _outcome(one_row, f"{where} IS NULL")
        assert kept == (["x"], [(1,)] if value is True else [])
        assert unknown == (["x"], [(1,)] if value is None else [])
