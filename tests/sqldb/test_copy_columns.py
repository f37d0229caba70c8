"""Chunked, columnar COPY against the row loop it replaced.

COPY reads its CSV file in chunks of rows, transposes each chunk and types
every column chunk with C-level passes
(:class:`repro.sqldb.catalog.CsvColumn`).
The oracle below is the loop COPY used to be — the whole file read into a
list of rows, NULL text mapped cell by cell, then ``_coerce_column`` per
column — kept verbatim apart from the statement plumbing.  One deliberate
change: the old loop numbered a malformed row by its position among the
non-blank rows (``enumerate(raw_rows, start=2)``), which was off by one
without ``HEADER`` and by one more per skipped blank line; COPY now names
the physical line (csv's ``line_num``).  The comparison therefore masks
the line number of a field-count error, and the targeted tests at the end
pin the new numbers.  ``array`` columns now parse PostgreSQL's array
literals (the loop kept each cell's text): the oracle maps the literals
it draws through a table of their arrays and raises 22P02 ``malformed
array literal`` for any other text, and the columns compare by cells.

COPY now types its cells by the one assignment rule
(``repro.sqldb.vector.CELL_RULES``), which deliberately changes three
answers the loop gave, so the comparison is narrowed for exactly those:
an ``int``/``serial`` column draws only integral, finite numbers
(``3.5``, ``nan`` and ``inf`` now fail with 22P02 where the loop stored
them), ``yes`` is no longer drawn as a bad boolean (it now reads as
true), and a typing error is compared by the cell it names and SQLSTATE
22P02 (the loop said 22000, in two wordings).  The targeted tests at the
end pin the new answers.

The hypothesis depth follows ``--fuzz-rounds`` at ten examples per round:
30 in tier-1 (three rounds), 250 in CI's smoke lane (``--fuzz-rounds 25``).
"""

from __future__ import annotations

import csv
import re
from typing import Any

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SQLExecutionError
from repro.sqldb import Database
from repro.sqldb.engine import _COPY_CHUNK_ROWS as CHUNK
from repro.sqldb.vector import Vector, normalise_type

from tests.sqldb.old_write_path import coerce_to_type

pytestmark = pytest.mark.fuzz


# -- the row loop COPY replaced (reference oracle) ----------------------------


def old_coerce_column(raw: list[Any], storage: str, name: str) -> Vector:
    n = len(raw)
    if storage in ("int", "serial", "float"):
        try:
            values = np.fromiter(
                (np.nan if v is None else float(v) for v in raw),
                dtype=np.float64,
                count=n,
            )
        except (TypeError, ValueError) as exc:
            raise SQLExecutionError(
                f"column {name!r}: cannot interpret a value as a number "
                f"({exc})"
            ) from None
        return Vector(values, np.isnan(values))
    nulls = np.fromiter((v is None for v in raw), dtype=bool, count=n)
    if storage == "bool":
        values = np.fromiter(
            (coerce_to_type(v, storage) or False for v in raw),
            dtype=bool,
            count=n,
        )
        return Vector(values, nulls)
    values = np.empty(n, dtype=object)
    if storage == "array":
        # PostgreSQL's array literals (the old loop kept the text)
        for i, v in enumerate(raw):
            if v is not None and v not in ARRAY_LITERALS:
                raise SQLExecutionError(
                    f"column {name!r}: malformed array literal: {v!r}",
                    sqlstate="22P02",
                )
            values[i] = None if v is None else ARRAY_LITERALS[v]
    else:
        distinct: dict[Any, Any] = {}
        values[:] = [distinct.setdefault(v, v) for v in raw]
    return Vector(values, nulls)


def old_copy(path, table_columns, table_types, columns, delimiter, null_text,
             header):
    """Typed vectors of the COPYed columns (in table order) and the row
    count, or the error — ``_execute_copy`` and the typing half of
    ``Table.append_columns`` as they were."""
    with open(path, newline="") as handle:
        reader = csv.reader(handle, delimiter=delimiter)
        raw_rows = list(reader)
    if header and raw_rows:
        raw_rows = raw_rows[1:]
    raw_rows = [row for row in raw_rows if row]
    for line_no, raw in enumerate(raw_rows, start=2):
        if len(raw) != len(columns):
            raise SQLExecutionError(
                f"{path}: line {line_no} has {len(raw)} fields, "
                f"expected {len(columns)}"
            )
    data: dict[str, list[Any]] = {}
    for j, name in enumerate(columns):
        data[name] = [
            None if row[j] == null_text or row[j] == "" else row[j]
            for row in raw_rows
        ]
    typed = {}
    for name, storage in zip(table_columns, table_types):
        if name in data:
            typed[name] = old_coerce_column(data[name], storage, name)
    return typed, len(raw_rows)


# -- running both ------------------------------------------------------------


def _copy_sql(path, columns, delimiter, null_text, header):
    null = null_text.replace("'", "''")
    return (
        f"COPY t ({', '.join(columns)}) FROM '{path}' WITH (DELIMITER "
        f"'{delimiter}', NULL '{null}', FORMAT CSV, HEADER "
        f"{'TRUE' if header else 'FALSE'})"
    )


def new_copy(path, table_columns, declared, columns, delimiter, null_text,
             header):
    db = Database()
    db.execute(
        "CREATE TABLE t ("
        + ", ".join(f"{n} {d}" for n, d in zip(table_columns, declared))
        + ")"
    )
    result = db.execute(_copy_sql(path, columns, delimiter, null_text, header))
    table = db.catalog.table("t")
    assert table.n_rows == result.rowcount
    return (
        {n: table.columns[n] for n in table_columns if n in columns},
        table.n_rows,
    )


def _outcome(run, *args):
    try:
        return run(*args)
    except SQLExecutionError as exc:
        return exc


def _masked(message: str) -> str:
    return re.sub(r"line \d+ has", "line N has", message)


#: the cell a typing error names: the loop's number and boolean wordings,
#: and the assignment rule's
_BAD_CELL = re.compile(
    r"could not convert string to float: (.*)\)$"
    r"|cannot interpret (.*) as (?:an? )?\w+$"
    r"|malformed array literal: (.*)$"
)


def _bad_cell(message: str):
    found = _BAD_CELL.search(message)
    return found and (found.group(1) or found.group(2) or found.group(3))


def _assert_same(new, old, storages):
    if isinstance(old, SQLExecutionError):
        assert isinstance(new, SQLExecutionError), new
        assert type(new) is type(old)
        cell = _bad_cell(str(old))
        if cell is None:  # a field-count error
            assert new.sqlstate == old.sqlstate
            assert _masked(str(new)) == _masked(str(old))
        else:
            assert new.sqlstate == "22P02", new
            assert _bad_cell(str(new)) == cell, (str(new), str(old))
        return
    assert not isinstance(new, SQLExecutionError), new
    (new_cols, new_n), (old_cols, old_n) = new, old
    assert new_n == old_n
    assert list(new_cols) == list(old_cols)
    for name, old_vec in old_cols.items():
        new_vec = new_cols[name]
        if storages[name] == "text":
            # text is stored coded: equal cells, one dictionary entry per
            # distinct string where the old column held one object
            assert new_vec.values.dtype == np.int32, name
            assert np.array_equal(new_vec.nulls, old_vec.nulls), name
            assert new_vec.tolist() == old_vec.tolist(), name
            present = {id(v) for v in old_vec.values if v is not None}
            assert len(new_vec.dictionary) == len(present), name
            assert len(set(new_vec.dictionary.tolist())) == len(present), name
            continue
        if storages[name] == "array":
            assert new_vec.is_array, name
            assert np.array_equal(new_vec.nulls, old_vec.nulls), name
            assert new_vec.tolist() == old_vec.values.tolist(), name
            continue
        assert new_vec.values.dtype == old_vec.values.dtype, name
        assert new_vec.nulls.dtype == old_vec.nulls.dtype == np.bool_
        assert np.array_equal(new_vec.nulls, old_vec.nulls), name
        if old_vec.values.dtype == np.float64:
            # bitwise: signed zeros, infinities and NaN payloads
            assert np.array_equal(
                new_vec.values.view(np.uint64), old_vec.values.view(np.uint64)
            ), name
        else:
            assert new_vec.values.tolist() == old_vec.values.tolist(), name
        if storages[name] == "text":
            def objects(vec):
                return len({id(v) for v in vec.values if v is not None})

            assert objects(new_vec) == objects(old_vec), name


# -- adversarial CSVs --------------------------------------------------------

DECLARED = ["int", "float", "serial", "text", "boolean", "int[]"]
NUMBER_OK = [
    "0", "-0", "1", "42", "3.5", "-2.25", "nan", "-nan", "inf", "-Infinity",
    "1_000", " 7 ", "1e400", "-1e400", "5e-324", "007", "١",
]
#: the numbers the loop and the rule both store in an ``int`` column
INT_OK = ["0", "-0", "1", "42", "1_000", " 7 ", "007", "١"]
NUMBER_BAD = ["abc", "1__0", "0x10", "1.2.3", "_1", "--1", "1e", "t"]
BOOL_OK = ["t", "f", "true", "FALSE", "1", "0", " True ", "T"]
BOOL_BAD = ["2", "tru", "-0"]
#: array literals and the cells they store
ARRAY_LITERALS = {
    "{1,2}": [1, 2], "{}": [], "{NULL,3.5}": [None, 3.5], " { -0 } ": [0],
    "{a,b}": ["a", "b"], '{"x,y",z}': ["x,y", "z"], "{{1},{2,3}}": [[1], [2, 3]],
    '{"a\\"b"}': ['a"b'],
}
NULL_TEXTS = ["", "NULL", "\\N", "7", "t", "na'x"]
TEXT = st.text(alphabet=",|\t\"'\n\r abéN", max_size=5)


def _cell(storage: str, bad: bool) -> st.SearchStrategy[str]:
    nullish = st.sampled_from(NULL_TEXTS)
    if storage in ("int", "serial", "float"):
        ok = st.sampled_from(NUMBER_OK if storage == "float" else INT_OK)
        wrong = st.sampled_from(NUMBER_BAD)
    elif storage == "bool":
        ok = st.sampled_from(BOOL_OK)
        wrong = st.sampled_from(BOOL_BAD)
    elif storage == "array":
        ok = st.sampled_from(sorted(ARRAY_LITERALS))
        wrong = TEXT  # no brace: never a literal
    else:
        ok = wrong = TEXT
    return (nullish | ok | wrong) if bad else (nullish | ok)


@st.composite
def copy_cases(draw):
    declared = draw(
        st.lists(st.sampled_from(DECLARED), min_size=1, max_size=4)
    )
    names = [f"c{i}" for i in range(len(declared))]
    storages = dict(zip(names, map(normalise_type, declared)))
    columns = draw(st.permutations(names))
    n = draw(st.sampled_from(
        [0, 1, 2, 7, CHUNK - 1, CHUNK, CHUNK + 1, 3 * CHUNK,
         1023, 1024, 1025, 3 * 1024]
    ))
    pool = draw(st.lists(
        st.tuples(*[_cell(storages[c], bad=False) for c in columns]),
        min_size=1, max_size=6,
    ))
    rows: list[list[str]] = [list(pool[i % len(pool)]) for i in range(n)]
    if n:
        # a few rows anywhere (a later chunk too) that may not parse, or
        # may have the wrong number of fields
        for _ in range(draw(st.integers(0, 3))):
            at = draw(st.integers(0, n - 1))
            width = draw(st.sampled_from([len(columns)] * 4 + [0, 1, 5]))
            rows[at] = [
                draw(_cell(storages[columns[k % len(columns)]], bad=True))
                for k in range(width)
            ]
    blanks = draw(st.lists(st.integers(0, n), max_size=3))
    return {
        "names": names,
        "declared": declared,
        "storages": storages,
        "columns": columns,
        "rows": rows,
        "blanks": sorted(blanks),
        "delimiter": draw(st.sampled_from([",", "|", "\t"])),
        "null_text": draw(st.sampled_from(NULL_TEXTS)),
        "header": draw(st.booleans()),
        "terminator": draw(st.sampled_from(["\n", "\r\n"])),
    }


def _write(path, case) -> None:
    with open(path, "w", newline="") as handle:
        writer = csv.writer(
            handle, delimiter=case["delimiter"],
            lineterminator=case["terminator"],
        )
        if case["header"]:
            writer.writerow(case["columns"])
        blanks = list(case["blanks"])
        for i, row in enumerate(case["rows"]):
            while blanks and blanks[0] == i:
                handle.write(case["terminator"])
                blanks.pop(0)
            writer.writerow(row)  # a row of no fields is a blank line
        for _ in blanks:
            handle.write(case["terminator"])


def _examples(request) -> int:
    rounds = request.config.getoption("--fuzz-rounds")
    return 10 * (rounds if rounds is not None else 3)


def test_copy_matches_the_row_loop(request, tmp_path):
    path = str(tmp_path / "data.csv")

    @settings(max_examples=_examples(request), deadline=None)
    @given(case=copy_cases())
    def check(case):
        _write(path, case)
        args = (
            path, case["names"], case["declared"], case["columns"],
            case["delimiter"], case["null_text"], case["header"],
        )
        new = _outcome(new_copy, *args)
        old = _outcome(
            old_copy, path, case["names"],
            [case["storages"][c] for c in case["names"]],
            *args[3:],
        )
        _assert_same(new, old, case["storages"])

    check()


# -- targeted cases ----------------------------------------------------------


def _copy_file(tmp_path, text, header=True, table="a int, b text"):
    path = tmp_path / "rows.csv"
    path.write_text(text)
    db = Database()
    db.execute(f"CREATE TABLE t ({table})")
    sql = _copy_sql(str(path), ["a", "b"], ",", "", header)
    return db, sql, str(path)


def test_malformed_row_names_its_physical_line_without_header(tmp_path):
    db, sql, path = _copy_file(tmp_path, "1,x\n2,y\n3\n", header=False)
    with pytest.raises(SQLExecutionError) as raised:
        db.execute(sql)
    assert str(raised.value) == f"{path}: line 3 has 1 fields, expected 2"


def test_malformed_row_line_counts_skipped_blank_lines(tmp_path):
    text = "a,b\n1,x\n\n\n2,y\n3,z,extra\n"
    db, sql, path = _copy_file(tmp_path, text)
    with pytest.raises(SQLExecutionError) as raised:
        db.execute(sql)
    assert str(raised.value) == f"{path}: line 6 has 3 fields, expected 2"
    assert db.catalog.table("t").n_rows == 0


def test_malformed_row_line_counts_quoted_newlines(tmp_path):
    text = 'a,b\n1,"two\nlines"\n2\n'
    db, sql, path = _copy_file(tmp_path, text)
    with pytest.raises(SQLExecutionError, match="line 4 has 1 fields"):
        db.execute(sql)


def test_malformed_row_in_a_later_chunk(tmp_path):
    rows = [f"{i},v{i % 3}" for i in range(3 * CHUNK)]
    rows[2 * CHUNK + 5] = "oops"
    db, sql, path = _copy_file(tmp_path, "a,b\n" + "\n".join(rows) + "\n")
    with pytest.raises(SQLExecutionError) as raised:
        db.execute(sql)
    line = 2 * CHUNK + 5 + 2  # the header is line 1
    assert str(raised.value) == f"{path}: line {line} has 1 fields, expected 2"
    assert db.catalog.table("t").n_rows == 0


def test_bad_value_in_a_later_chunk_loads_nothing(tmp_path):
    rows = [f"{i},v" for i in range(2 * CHUNK)]
    rows[CHUNK + 3] = "x1,v"
    db, sql, _ = _copy_file(tmp_path, "a,b\n" + "\n".join(rows) + "\n")
    with pytest.raises(SQLExecutionError, match=r"column 'a'.*'x1'"):
        db.execute(sql)
    assert db.catalog.table("t").n_rows == 0


def test_text_column_stores_one_object_per_distinct_value(tmp_path):
    rows = [f"{i},{'abc'[i % 3]}" for i in range(3 * CHUNK + 7)] + ["0,"]
    db, sql, _ = _copy_file(tmp_path, "a,b\n" + "\n".join(rows) + "\n")
    db.execute(sql)
    column = db.catalog.table("t").columns["b"]
    assert column.dictionary.tolist() == ["a", "b", "c"]
    assert column.tolist()[:4] == ["a", "b", "c", "a"]
    assert column.nulls.tolist() == [False] * (3 * CHUNK + 7) + [True]


def test_rule_rejects_non_integral_text_in_an_int_column(tmp_path):
    for cell in ("3.5", "nan", "inf", "-Infinity", "1e400", "5e-324"):
        db, sql, _ = _copy_file(tmp_path, f"a,b\n1,x\n{cell},y\n")
        with pytest.raises(SQLExecutionError) as raised:
            db.execute(sql)
        assert raised.value.sqlstate == "22P02"
        assert str(raised.value) == (
            f"column 'a': cannot interpret {cell!r} as an integer"
        )
        assert db.catalog.table("t").n_rows == 0


def test_rule_reads_every_postgres_boolean_spelling(tmp_path):
    spellings = ["yes", "Y", " on ", "no", "N", "OFF", "t", "false", "1", "0"]
    text = "a,b\n" + "".join(f"{i},{s}\n" for i, s in enumerate(spellings))
    db, sql, _ = _copy_file(tmp_path, text, table="a int, b bool")
    db.execute(sql)
    assert db.execute("SELECT b FROM t ORDER BY a").column("b") == [
        True, True, True, False, False, False, True, False, True, False,
    ]
