"""Tests for scalar SQL functions and expression semantics."""

import numpy as np
import pytest

from repro.errors import SQLBindError, SQLExecutionError
from repro.sqldb import Database
from repro.sqldb.executor import _expand_unnest
from repro.sqldb.functions import compute_aggregate
from repro.sqldb.vector import from_values, to_python


@pytest.fixture
def db():
    database = Database("umbra")
    database.run_script(
        "CREATE TABLE t (x float, s text);"
        "INSERT INTO t VALUES (1.0,'Low'), (2.0,'Medium'), (NULL,'High'), (4.5,NULL)"
    )
    return database


class TestScalarFunctions:
    def test_coalesce_chain(self, db):
        out = db.execute("SELECT coalesce(x, 0.0) AS v FROM t ORDER BY ctid")
        assert out.column("v") == [1.0, 2.0, 0.0, 4.5]

    def test_coalesce_type_widening(self, db):
        out = db.execute("SELECT coalesce(s, 'none') AS v FROM t ORDER BY ctid")
        assert out.column("v")[-1] == "none"

    def test_regexp_replace_anchored(self, db):
        out = db.execute(
            "SELECT regexp_replace(s, '^Medium$', 'Low') AS v FROM t "
            "WHERE s IS NOT NULL ORDER BY ctid"
        )
        assert out.column("v") == ["Low", "Low", "High"]

    def test_regexp_replace_leaves_substrings(self, db):
        db.execute("INSERT INTO t VALUES (9.0, 'MediumWell')")
        out = db.execute(
            "SELECT regexp_replace(s, '^Medium$', 'Low') AS v FROM t "
            "WHERE x = 9.0"
        )
        assert out.column("v") == ["MediumWell"]

    def test_least_greatest(self, db):
        out = db.execute("SELECT least(3, 1, 2) AS lo, greatest(3, 1, 2) AS hi")
        assert out.rows == [(1, 3)]

    def test_least_skips_nulls(self, db):
        assert db.execute("SELECT least(NULL, 5) AS v").scalar() == 5

    def test_floor_ceil_abs_round(self, db):
        out = db.execute(
            "SELECT floor(1.7) AS f, ceil(1.2) AS c, abs(-3) AS a, "
            "round(2.567, 1) AS r"
        )
        assert out.rows == [(1, 2, 3, 2.6)]

    def test_nullif(self, db):
        assert db.execute("SELECT nullif(5, 5) AS v").rows == [(None,)]
        assert db.execute("SELECT nullif(5, 4) AS v").scalar() == 5

    def test_upper_lower_trim_length(self, db):
        out = db.execute(
            "SELECT upper('ab') AS u, lower('AB') AS l, "
            "trim('  x ') AS t, length('abc') AS n"
        )
        assert out.rows == [("AB", "ab", "x", 3)]

    def test_array_fill_concat(self, db):
        out = db.execute("SELECT array_fill(0, 2) || 1 || array_fill(0, 1) AS v")
        assert out.scalar() == [0, 0, 1, 0]

    def test_array_length_and_position(self, db):
        out = db.execute(
            "WITH g AS (SELECT array_agg(ctid) AS ids FROM t) "
            "SELECT array_length(ids) AS n, array_position(ids, 2) AS p FROM g"
        )
        assert out.rows == [(4, 3)]

    def test_sqrt_of_negative_is_null(self, db):
        assert db.execute("SELECT sqrt(-1.0) AS v").rows == [(None,)]

    def test_unknown_function_rejected(self, db):
        with pytest.raises(SQLBindError):
            db.execute("SELECT frobnicate(x) FROM t")


class TestExpressionSemantics:
    def test_division_by_zero_yields_null(self, db):
        assert db.execute("SELECT 1 / 0 AS v").rows == [(None,)]

    def test_cast_text_to_int_rounds(self, db):
        assert db.execute("SELECT '2'::int + 1 AS v").scalar() == 3

    def test_cast_float_to_text(self, db):
        assert db.execute("SELECT 2.5::text AS v").scalar() == "2.5"

    def test_cast_bool(self, db):
        assert db.execute("SELECT 'true'::boolean AS v").scalar() is True

    def test_string_concat_operator(self, db):
        assert db.execute("SELECT 'a' || 'b' AS v").scalar() == "ab"

    def test_three_valued_and(self, db):
        # null AND false = false; null AND true = null
        out = db.execute(
            "SELECT (x > 0 AND s = 'Low') AS v FROM t WHERE s = 'High'"
        )
        assert out.rows == [(False,)]

    def test_three_valued_or(self, db):
        out = db.execute(
            "SELECT (x > 0 OR s = 'zzz') AS v FROM t WHERE s = 'High'"
        )
        assert out.rows == [(None,)]

    def test_not_null_is_null(self, db):
        out = db.execute("SELECT count(*) FROM t WHERE NOT (x > 0)")
        assert out.scalar() == 0  # null rows don't satisfy NOT either

    def test_case_without_else_yields_null(self, db):
        out = db.execute(
            "SELECT (CASE WHEN x > 3 THEN 1 END) AS v FROM t ORDER BY ctid"
        )
        assert out.column("v") == [None, None, None, 1]

    def test_in_list_with_null_operand(self, db):
        out = db.execute("SELECT count(*) FROM t WHERE x IN (1.0, 4.5)")
        assert out.scalar() == 2

    def test_between_inclusive(self, db):
        out = db.execute("SELECT count(*) FROM t WHERE x BETWEEN 1 AND 2")
        assert out.scalar() == 2

    def test_not_between(self, db):
        out = db.execute("SELECT count(*) FROM t WHERE x NOT BETWEEN 1 AND 2")
        assert out.scalar() == 1

    def test_like_patterns(self, db):
        out = db.execute("SELECT count(*) FROM t WHERE s LIKE 'M_dium'")
        assert out.scalar() == 1
        out = db.execute("SELECT count(*) FROM t WHERE s LIKE '%ig%'")
        assert out.scalar() == 1

    def test_not_like(self, db):
        out = db.execute(
            "SELECT count(*) FROM t WHERE s NOT LIKE '%o%' AND s IS NOT NULL"
        )
        assert out.scalar() == 2

    def test_unary_minus(self, db):
        assert db.execute("SELECT -x AS v FROM t WHERE x = 1.0").scalar() == -1

    def test_modulo(self, db):
        assert db.execute("SELECT 7 % 3 AS v").scalar() == 1


class TestAggregateEdgeCases:
    def test_sum_of_empty_is_null(self, db):
        assert db.execute("SELECT sum(x) FROM t WHERE x > 100").rows == [(None,)]

    def test_stddev_samp_single_row_null(self, db):
        out = db.execute("SELECT stddev_samp(x) FROM t WHERE x = 1.0")
        assert out.rows == [(None,)]

    def test_var_pop(self, db):
        out = db.execute("SELECT var_pop(x) FROM t WHERE x IS NOT NULL")
        assert out.scalar() == pytest.approx(2.1666666, rel=1e-5)

    def test_group_by_null_is_a_group(self, db):
        out = db.execute("SELECT s, count(*) FROM t GROUP BY s")
        groups = dict(out.rows)
        assert groups[None] == 1

    def test_aggregate_in_where_rejected(self, db):
        with pytest.raises(SQLBindError):
            db.execute("SELECT x FROM t WHERE count(*) > 1")

    def test_nested_aggregate_rejected(self, db):
        with pytest.raises(SQLBindError):
            db.execute("SELECT sum(count(*)) FROM t")

    @pytest.mark.parametrize(
        "items",
        [
            [1.5, 2.0, 3.25, 4.0],
            [True, False, True, True],
            ["a", "b", "c", "d"],
        ],
        ids=["float", "boolean", "text"],
    )
    def test_array_agg_elements_are_python_scalars(self, items):
        """With or without NULLs in the argument, ``array_agg`` elements
        are Python values — never numpy scalars, which compare and print
        differently and which ``json.dumps`` rejects — and follow
        ``to_python``: an integral float is an ``int``, as a fetched
        scalar cell is."""
        codes = np.array([0, 1, 0, 1], dtype=np.int64)
        for column in (items, [None] + items[1:]):
            out = compute_aggregate("array_agg", from_values(column), codes, 2)
            assert out.tolist() == [column[0::2], column[1::2]]
            expected = [
                None if v is None else type(to_python(np.float64(v)))
                if type(v) is float else type(v)
                for v in column
            ]
            types = [
                None if e is None else type(e)
                for bucket in out.tolist() for e in bucket
            ]
            assert types == expected[0::2] + expected[1::2]


class TestVectorisedUnnest:
    def test_unnest_basic_expansion(self):
        db = Database("umbra")
        db.execute("CREATE TABLE s (g text)")
        db.execute("INSERT INTO s VALUES ('a'), ('b'), ('a')")
        result = db.execute(
            "SELECT u.val FROM (SELECT unnest(array_agg(g)) AS val FROM s) u"
        )
        assert [r[0] for r in result.rows] == ["a", "b", "a"]

    def test_unnest_empty_arrays(self):
        db = Database("umbra")
        db.execute("CREATE TABLE s (g text, k int)")
        db.execute("INSERT INTO s VALUES ('a', 1), ('b', 2)")
        # array_agg FILTER produces an empty list for every group: zero rows out
        result = db.execute(
            "SELECT unnest(array_agg(g) FILTER (WHERE k > 5)) AS v, k FROM s "
            "GROUP BY k"
        )
        assert result.rows == []

    def test_unnest_all_null_lead(self):
        columns = {
            "u": from_values([None, None]),
            "k": from_values([1, 2]),
        }
        batch = _expand_unnest(2, columns, ["u"])
        assert batch.length == 0

    def test_unnest_mismatched_lengths(self):
        columns = {
            "a": from_values([[1, 2], [3]]),
            "b": from_values([[1], [2]]),
        }
        with pytest.raises(SQLExecutionError, match="mismatched"):
            _expand_unnest(2, columns, ["a", "b"])

    def test_unnest_non_array_argument(self):
        columns = {"a": from_values(["not-a-list", [1]])}
        with pytest.raises(SQLExecutionError, match="not an array"):
            _expand_unnest(2, columns, ["a"])


_ARRAY_PRODUCERS = {
    "array_fill": "SELECT array_fill(x, 2) AS a FROM t",
    "array || number": "SELECT array_fill(0, 1) || x AS a FROM t",
    "number || array": "SELECT x || array_fill(0, 1) AS a FROM t",
    "one-hot": "SELECT array_fill(0, 1) || 1 || array_fill(0, 2) AS a FROM t",
    "array || text": "SELECT array_fill('p', 1) || s AS a FROM t",
    "array_agg numbers": "SELECT array_agg(x) AS a FROM t",
    "array_agg text": "SELECT array_agg(s) AS a FROM t",
    "array_agg bools": "SELECT array_agg(x > 1) AS a FROM t",
    "array_agg || text": "SELECT array_agg(s) || 'z' AS a FROM t",
}


@pytest.mark.parametrize("producer", sorted(_ARRAY_PRODUCERS))
def test_array_elements_are_python_values(db, producer):
    """Every array producer's elements are what ``to_python`` gives —
    ``int``, ``float``, ``str``, ``bool`` or None, integral floats as
    ``int`` — in the engine's cells and in fetched rows, so the two
    execution modes (in-process, over the wire) cannot disagree."""
    result = db.execute(_ARRAY_PRODUCERS[producer])
    stored = [c for c in result.vectors[0].tolist() if c is not None]
    fetched = [row[0] for row in result.rows if row[0] is not None]
    assert stored and len(stored) == len(fetched)
    for cell in stored + fetched:
        assert type(cell) is list
        for element in cell:
            assert type(element) in (int, float, str, bool, type(None))
            assert not (type(element) is float and element.is_integer())
    assert [list(c) for c in stored] == fetched
