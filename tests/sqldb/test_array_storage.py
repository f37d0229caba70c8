"""Array columns: int64 end offsets over one typed element vector.

Targeted answers beside the oracle suite (``test_array_columns_oracle``):
the stored shape of the arrays the pipelines build, PostgreSQL's array
literal in the ``array`` assignment rule (INSERT, COPY, CAST), and
``least``/``greatest`` over values of two types.
"""

import warnings

import numpy as np
import pytest

from repro.errors import SQLError
from repro.sqldb import Database, dbapi


@pytest.fixture
def db():
    database = Database()
    database.run_script(
        "CREATE TABLE t (x int, s text);"
        "INSERT INTO t VALUES (1, 'a'), (2, 'b'), (3, 'a'), (NULL, NULL)"
    )
    return database


def _elements(vector):
    while vector.is_array:
        vector = vector.elements
    return vector


@pytest.mark.parametrize(
    "sql, dtype",
    [
        ("SELECT array_fill(0, 1) || 1 || array_fill(0, 2) AS v FROM t", "float64"),
        ("SELECT s, array_agg(ctid) AS v FROM t GROUP BY s", "float64"),
        ("SELECT array_agg(s) AS v FROM t", "int32"),
        ("SELECT array_agg(x > 1) AS v FROM t", "bool"),
        ("SELECT array_agg(v) AS v FROM (SELECT array_fill(x, 2) AS v FROM t) q",
         "float64"),
    ],
)
def test_arrays_are_offsets_over_typed_elements(db, sql, dtype):
    result = db.execute(sql)
    column = result.vectors[-1]
    assert column.is_array and column.values.dtype == np.int64
    assert _elements(column).values.dtype == dtype
    assert all(type(cell) is list for cell in column.tolist())


def test_one_hot_arrays_reshape_to_a_matrix(db):
    from repro.core.sql_backend import _columns_to_matrix

    result = db.execute(
        "SELECT array_fill(0, x - 1) || 1 || array_fill(0, 3 - x) AS v "
        "FROM t WHERE x IS NOT NULL"
    )
    matrix = _columns_to_matrix(result.vectors, result.rowcount)
    assert matrix.tolist() == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]


def test_an_array_literal_is_stored_as_its_array():
    db = Database()
    db.execute("CREATE TABLE u (b int[], t text[])")
    db.execute(
        "INSERT INTO u VALUES ('{1,2}', '{a,\"b,c\",NULL}'), ('{}', NULL)"
    )
    assert db.execute("SELECT b, t, array_length(b, 1) FROM u").rows == [
        ([1, 2], ["a", "b,c", None], 2), ([], None, 0)
    ]
    assert db.execute("SELECT CAST('{{1},{2}}' AS int[]) AS n").rows == [
        ([[1], [2]],)
    ]


def test_copy_parses_array_literals(tmp_path):
    path = tmp_path / "arrays.csv"
    path.write_text('"{1,2}",x\n,y\n"{3}",z\n')
    db = Database()
    db.execute("CREATE TABLE u (b int[], s text)")
    db.execute(f"COPY u FROM '{path}' WITH (FORMAT CSV)")
    assert db.execute("SELECT b, s FROM u").rows == [
        ([1, 2], "x"), (None, "y"), ([3], "z")
    ]


@pytest.mark.parametrize("literal", ["abc", "{1,2", "{1,,2}", "{{1},2}", "1}"])
def test_a_malformed_array_literal_is_22p02(literal):
    cursor = dbapi.connect("postgres").cursor()
    cursor.execute("CREATE TABLE u (b int[])")
    with pytest.raises(dbapi.DataError) as raised:
        cursor.execute("INSERT INTO u VALUES (%s)", (literal,))
    assert raised.value.sqlstate == "22P02"
    assert "malformed array literal" in str(raised.value)


@pytest.mark.parametrize("name", ["least", "greatest"])
def test_extremum_of_a_number_and_text_is_42804(db, name):
    for sql in (f"SELECT {name}(1, 'a')", f"SELECT {name}(x, s) FROM t"):
        with pytest.raises(SQLError) as raised:
            db.execute(sql)
        assert raised.value.sqlstate == "42804"
        assert "cannot be matched" in str(raised.value)


def test_extremum_over_null_rows_warns_nothing(db):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rows = db.execute("SELECT least(x, NULL) AS l, greatest(NULL, x) AS g FROM t")
    assert rows.rows == [(1, 1), (2, 2), (3, 3), (None, None)]
