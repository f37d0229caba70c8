"""One assignment rule: every path that turns a value into a column's
storage class answers alike.

For each (cell, storage class) these paths must store the same value or
raise the same SQLSTATE: INSERT of the cell as a literal, INSERT of it as
a parameter, UPDATE to the literal, COPY of the cell's text (text cells
and NULL: COPY reads text, so a number's COPY is the case of its text
form) and ``CAST`` of the literal.  The expected answers are
PostgreSQL's, apart from the divergences the float64 number model keeps
(DESIGN.md, "Storage classes"): a ``.5`` tie rounds to even, ``7.0``
renders as ``'7'``, a number assigned to a boolean is true when nonzero
and a boolean assigned to a number is 1 or 0.
"""

from __future__ import annotations

import pytest

from repro.errors import SQLError
from repro.sqldb import Database, dbapi
from repro.sqldb.planner import Planner

#: a cell the rule cannot convert: invalid_text_representation
BAD = ("error", "22P02")
#: a number no integer holds: numeric_value_out_of_range
RANGE = ("error", "22003")

SPELLINGS = {
    "t": True, "true": True, "y": True, "yes": True, "on": True, "1": True,
    "f": False, "false": False, "n": False, "no": False, "off": False,
    "0": False, " Yes ": True, "OFF": False, "TRUE": True, "No": False,
}


def _spelling(text: str, value: bool) -> dict:
    number = {"1": 1, "0": 0}.get(text, BAD)
    return {"int": number, "float": number, "bool": value, "text": text}


#: (cell, {storage class: expected stored value or BAD})
MATRIX = [
    (7, {"int": 7, "float": 7, "bool": True, "text": "7"}),
    (0, {"int": 0, "float": 0, "bool": False, "text": "0"}),
    (2.7, {"int": 3, "float": 2.7, "bool": True, "text": "2.7"}),
    (3.6, {"int": 4, "float": 3.6, "bool": True, "text": "3.6"}),
    (-2.7, {"int": -3, "float": -2.7, "bool": True, "text": "-2.7"}),
    # ties round half to even (np.rint; PostgreSQL's float8 -> int4)
    (2.5, {"int": 2, "float": 2.5, "bool": True, "text": "2.5"}),
    (3.5, {"int": 4, "float": 3.5, "bool": True, "text": "3.5"}),
    (-2.5, {"int": -2, "float": -2.5, "bool": True, "text": "-2.5"}),
    # an integral float renders as an integer
    (7.0, {"int": 7, "float": 7, "bool": True, "text": "7"}),
    ("7", {"int": 7, "float": 7, "bool": BAD, "text": "7"}),
    (" 7 ", {"int": 7, "float": 7, "bool": BAD, "text": " 7 "}),
    ("-0", {"int": 0, "float": 0, "bool": BAD, "text": "-0"}),
    ("2.7", {"int": BAD, "float": 2.7, "bool": BAD, "text": "2.7"}),
    ("2.5", {"int": BAD, "float": 2.5, "bool": BAD, "text": "2.5"}),
    # (into float: a stored NaN reads as NULL, see the test below)
    ("nan", {"int": BAD, "bool": BAD, "text": "nan"}),
    ("inf", {"int": BAD, "float": float("inf"), "bool": BAD, "text": "inf"}),
    ("x", {"int": BAD, "float": BAD, "bool": BAD, "text": "x"}),
    # a non-finite number (PostgreSQL: "integer out of range")
    (float("inf"), {"int": RANGE}),
    (float("-inf"), {"int": RANGE}),
    (float("nan"), {"int": RANGE}),
    ("1.2.3", {"int": BAD, "float": BAD, "bool": BAD, "text": "1.2.3"}),
    (True, {"int": 1, "float": 1, "bool": True, "text": "true"}),
    (False, {"int": 0, "float": 0, "bool": False, "text": "false"}),
    (None, {"int": None, "float": None, "bool": None, "text": None}),
    *((text, _spelling(text, value)) for text, value in SPELLINGS.items()),
]

DECLARED = {"int": "int", "float": "float", "bool": "boolean", "text": "text"}

CASES = [
    pytest.param(cell, storage, expected, id=f"{cell!r}-{storage}")
    for cell, answers in MATRIX
    for storage, expected in answers.items()
]


def _literal(cell) -> str:
    if cell is None:
        return "NULL"
    if isinstance(cell, bool):
        return "TRUE" if cell else "FALSE"
    if isinstance(cell, str):
        return "'" + cell.replace("'", "''") + "'"
    if cell != cell or cell in (float("inf"), float("-inf")):
        return f"CAST('{cell}' AS float)"
    return repr(cell)


def _outcome(run):
    try:
        return run()
    except SQLError as exc:
        return ("error", exc.sqlstate)


def _stored(db):
    (row,) = db.execute("SELECT c FROM t").rows
    return row[0]


def _table(storage: str) -> Database:
    db = Database()
    db.execute(f"CREATE TABLE t (id int, c {DECLARED[storage]})")
    return db


def _insert_literal(cell, storage, tmp_path):
    db = _table(storage)
    db.execute(f"INSERT INTO t (id, c) VALUES (1, {_literal(cell)})")
    return _stored(db)


def _insert_parameter(cell, storage, tmp_path):
    db = _table(storage)
    db.execute("INSERT INTO t (id, c) VALUES (1, ?)", (cell,))
    return _stored(db)


def _update(cell, storage, tmp_path):
    db = _table(storage)
    db.execute("INSERT INTO t (id) VALUES (1)")
    db.execute(f"UPDATE t SET c = {_literal(cell)} WHERE id = 1")
    return _stored(db)


def _copy(cell, storage, tmp_path):
    path = tmp_path / "cell.csv"
    field = "" if cell is None else '"' + cell.replace('"', '""') + '"'
    path.write_text(f"id,c\n1,{field}\n")
    db = _table(storage)
    db.execute(f"COPY t FROM '{path}' WITH (FORMAT CSV, HEADER TRUE)")
    return _stored(db)


def _cast(cell, storage, tmp_path):
    (row,) = Database().execute(
        f"SELECT CAST({_literal(cell)} AS {DECLARED[storage]}) AS c"
    ).rows
    return row[0]


PATHS = [_insert_literal, _insert_parameter, _update, _cast]


def _same(got, expected) -> bool:
    # True == 1 in Python: a stored value must also be of the right kind
    return got == expected and (
        isinstance(got, bool) == isinstance(expected, bool)
        and isinstance(got, str) == isinstance(expected, str)
    )


@pytest.mark.parametrize("cell, storage, expected", CASES)
def test_every_path_stores_the_same_value(cell, storage, expected, tmp_path):
    paths = PATHS + ([_copy] if cell is None or isinstance(cell, str) else [])
    answers = {
        run.__name__: _outcome(lambda: run(cell, storage, tmp_path))
        for run in paths
    }
    wrong = {
        name: got for name, got in answers.items() if not _same(got, expected)
    }
    assert not wrong, (expected, wrong)


# -- PostgreSQL's answers, pinned (each wrong before the one rule) -------------


def test_a_number_into_an_int_column_rounds():
    db = _table("int")
    db.execute("INSERT INTO t VALUES (1, 2.7)")
    assert _stored(db) == 3
    db.execute("UPDATE t SET c = 3.6")
    assert _stored(db) == 4


def test_copy_of_a_non_integral_number_into_an_int_column_is_22p02(tmp_path):
    with pytest.raises(SQLError) as raised:
        _copy("2.7", "int", tmp_path)
    assert raised.value.sqlstate == "22P02"
    assert str(raised.value) == "column 'c': cannot interpret '2.7' as an integer"


@pytest.mark.parametrize("cell", ["inf", "-inf", "nan"])
@pytest.mark.parametrize(
    "setup, sql, params",
    [
        ("", "INSERT INTO t VALUES (%s)", "number"),
        ("INSERT INTO t VALUES (1)", "UPDATE t SET c = CAST(%s AS float)",
         "text"),
        ("", "SELECT CAST(CAST(%s AS float) AS int)", "text"),
    ],
    ids=["insert-parameter", "update", "cast"],
)
def test_a_non_finite_number_into_int_is_a_data_error_through_dbapi(
    cell, setup, sql, params
):
    cursor = dbapi.connect("postgres").cursor()
    cursor.execute("CREATE TABLE t (c int)")
    if setup:
        cursor.execute(setup)
    value = float(cell) if params == "number" else cell
    with pytest.raises(dbapi.DataError) as raised:
        cursor.execute(sql, (value,))
    assert raised.value.sqlstate == "22003"


@pytest.mark.parametrize("target", ["int", "bool"])
def test_cast_of_garbage_is_a_data_error_through_dbapi(target):
    cursor = dbapi.connect("postgres").cursor()
    with pytest.raises(dbapi.DataError) as raised:
        cursor.execute(f"SELECT CAST('x' AS {target})")
    assert raised.value.sqlstate == "22P02"


def test_yes_is_true_and_garbage_is_22p02_in_a_bool_column():
    db = _table("bool")
    db.execute("INSERT INTO t VALUES (1, 'yes')")
    assert _stored(db) is True
    with pytest.raises(SQLError) as raised:
        db.execute("INSERT INTO t VALUES (2, 'x')")
    assert raised.value.sqlstate == "22P02"


def test_a_stored_nan_reads_as_null(tmp_path):
    for run in PATHS[:-1] + [_copy]:
        assert run("nan", "float", tmp_path) is None, run.__name__
    (value,) = Database().execute("SELECT CAST('nan' AS float) AS c").rows[0]
    assert value != value  # a computed NaN stays a NaN


def test_an_unknown_cast_target_raises_when_planned():
    db = _table("int")
    with pytest.raises(SQLError) as raised:
        db.execute("SELECT CAST(c AS precision) FROM t")  # no row computes it
    assert raised.value.sqlstate == "42704"


def test_an_array_cell_is_the_tables_own_copy():
    db = Database()
    db.execute("CREATE TABLE t (a int[])")
    cell = [1, 2]
    db.execute("INSERT INTO t VALUES (?)", (cell,))
    cell.append(3)
    assert db.execute("SELECT a FROM t").rows == [([1, 2],)]
    with pytest.raises(SQLError) as raised:
        db.execute("INSERT INTO t VALUES (5)")
    assert raised.value.sqlstate == "22P02"


# -- VALUES cells go through the planner's compiler ----------------------------


def test_values_cells_are_any_constant_or_parameter_expression():
    db = _table("int")
    db.execute("INSERT INTO t VALUES (abs(-5), 1 + 1), (?, -?), (2 * ?, ?)",
               (3, 4, 5, 6.5))
    assert db.execute("SELECT id, c FROM t").rows == [
        (5, 2), (3, -4), (10, 6),
    ]


def test_a_cached_insert_compiles_once_and_binds_each_execution(monkeypatch):
    db = _table("text")
    compiled = []
    real = Planner.compile_expr

    def counting(self, expr, *args, **kwargs):
        compiled.append(expr)
        return real(self, expr, *args, **kwargs)

    monkeypatch.setattr(Planner, "compile_expr", counting)
    sql = "INSERT INTO t VALUES (?, upper('a') || ?)"
    db.execute(sql, (0, "x"))
    first = len(compiled)
    for i, suffix in enumerate(["y", "z"], start=1):
        db.execute(sql, (i, suffix))
    assert first and len(compiled) == first  # the cached cells ran again
    assert db.execute("SELECT id, c FROM t").rows == [
        (0, "Ax"), (1, "Ay"), (2, "Az"),
    ]


def test_a_values_cell_may_read_a_scalar_subquery():
    db = _table("int")
    db.execute("INSERT INTO t VALUES (1, 10), (2, 20)")
    db.execute("INSERT INTO t VALUES (3, (SELECT max(c) FROM t) + 1)")
    assert db.execute("SELECT c FROM t WHERE id = 3").rows == [(21,)]


def test_train_options_are_evaluated_expressions():
    db = Database()
    db.execute("CREATE TABLE d (f0 float, label int)")
    db.execute(
        "INSERT INTO d VALUES (0, 0), (1, 0), (2, 1), (3, 1), (0.5, 0), (2.5, 1)"
    )
    db.execute(
        "TRAIN m USING (SELECT f0, label FROM d) WITH "
        "(estimator = 'logistic_regression', max_iter = 2 * 5, lr = 1 / 2)"
    )
    assert db.model("m").n_iter == 10
