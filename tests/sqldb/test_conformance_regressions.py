"""Regression tests for PostgreSQL-conformance fixes.

Each class pins one bug that produced output diverging from PostgreSQL:
float-to-text rendering ('1.0x' where PostgreSQL says '1x'), ORDER BY
NULLS FIRST/LAST, and aggregate FILTER (WHERE ...).
"""

import pytest

from repro.errors import SQLBindError, SQLSyntaxError
from repro.sqldb import Database
from repro.sqldb.functions import pg_text


@pytest.fixture(params=["postgres", "umbra"])
def db(request):
    return Database(request.param)


class TestPgTextRendering:
    def test_integral_float_concat(self, db):
        # regression: CAST(1.0 AS text) || 'x' rendered as '1.0x'
        result = db.execute("SELECT CAST(1.0 AS DOUBLE PRECISION) || 'x'")
        assert result.rows == [("1x",)]

    def test_int_concat(self, db):
        assert db.execute("SELECT 1 || 'x'").rows == [("1x",)]

    def test_bool_cast_text(self, db):
        assert db.execute("SELECT CAST(TRUE AS text)").rows == [("true",)]
        assert db.execute("SELECT CAST(FALSE AS text)").rows == [("false",)]

    def test_fractional_float_preserved(self, db):
        assert db.execute("SELECT 1.5 || 'x'").rows == [("1.5x",)]

    def test_like_on_numeric(self, db):
        db.run_script(
            "CREATE TABLE t (n float); INSERT INTO t VALUES (10.0), (2.5)"
        )
        result = db.execute("SELECT n FROM t WHERE n LIKE '10%'")
        assert result.rows == [(10.0,)]

    def test_regexp_replace_on_integral_float(self, db):
        result = db.execute(
            "SELECT REGEXP_REPLACE(CAST(42.0 AS DOUBLE PRECISION) || '', '2', '9')"
        )
        assert result.rows == [("49",)]

    def test_pg_text_scalar_rules(self):
        assert pg_text(None) is None
        assert pg_text(True) == "true"
        assert pg_text(7) == "7"
        assert pg_text(7.0) == "7"
        assert pg_text(7.25) == "7.25"
        assert pg_text([1.0, None]) == "{1,NULL}"


class TestNullsPlacement:
    @pytest.fixture(autouse=True)
    def _table(self, db):
        db.run_script(
            "CREATE TABLE t (n int); "
            "INSERT INTO t VALUES (2), (NULL), (1), (NULL), (3)"
        )

    def test_default_asc_nulls_last(self, db):
        rows = db.execute("SELECT n FROM t ORDER BY n").column("n")
        assert rows == [1, 2, 3, None, None]

    def test_default_desc_nulls_first(self, db):
        rows = db.execute("SELECT n FROM t ORDER BY n DESC").column("n")
        assert rows == [None, None, 3, 2, 1]

    def test_asc_nulls_first(self, db):
        rows = db.execute("SELECT n FROM t ORDER BY n NULLS FIRST").column("n")
        assert rows == [None, None, 1, 2, 3]

    def test_desc_nulls_last(self, db):
        rows = db.execute(
            "SELECT n FROM t ORDER BY n DESC NULLS LAST"
        ).column("n")
        assert rows == [3, 2, 1, None, None]

    def test_asc_nulls_last_explicit(self, db):
        rows = db.execute(
            "SELECT n FROM t ORDER BY n ASC NULLS LAST"
        ).column("n")
        assert rows == [1, 2, 3, None, None]

    def test_multi_key_mixed_placement(self, db):
        db.run_script(
            "CREATE TABLE u (a int, b int); "
            "INSERT INTO u VALUES (1, NULL), (1, 5), (2, NULL), (2, 3)"
        )
        result = db.execute(
            "SELECT a, b FROM u ORDER BY a, b NULLS FIRST"
        )
        assert result.rows == [(1, None), (1, 5), (2, None), (2, 3)]

    def test_nulls_requires_first_or_last(self, db):
        with pytest.raises(SQLSyntaxError):
            db.execute("SELECT n FROM t ORDER BY n NULLS MIDDLE")


class TestAggregateFilter:
    @pytest.fixture(autouse=True)
    def _table(self, db):
        db.run_script(
            "CREATE TABLE t (g text, n int); "
            "INSERT INTO t VALUES "
            "('a', 1), ('a', 2), ('a', NULL), ('b', 3), ('b', 4)"
        )

    def test_count_star_filter(self, db):
        result = db.execute(
            "SELECT g, count(*) FILTER (WHERE n > 1) AS c "
            "FROM t GROUP BY g ORDER BY g"
        )
        assert result.rows == [("a", 1), ("b", 2)]

    def test_filter_vs_where_on_count_star(self, db):
        # count(*) observes every unfiltered row, so FILTER must drop rows,
        # not null them out
        result = db.execute(
            "SELECT count(*) FILTER (WHERE g = 'a') AS a_rows, "
            "count(*) AS all_rows FROM t"
        )
        assert result.rows == [(3, 5)]

    def test_sum_filter(self, db):
        result = db.execute(
            "SELECT sum(n) FILTER (WHERE g = 'b') FROM t"
        )
        assert result.rows == [(7,)]

    def test_filter_everything_out(self, db):
        result = db.execute("SELECT sum(n) FILTER (WHERE g = 'z') FROM t")
        assert result.rows == [(None,)]

    def test_ungrouped_multiple_filters(self, db):
        result = db.execute(
            "SELECT count(n) FILTER (WHERE g = 'a') AS a_n, "
            "count(n) FILTER (WHERE g = 'b') AS b_n FROM t"
        )
        assert result.rows == [(2, 2)]

    def test_filter_on_scalar_function_rejected(self, db):
        with pytest.raises(SQLBindError):
            db.execute("SELECT abs(n) FILTER (WHERE n > 0) FROM t")

    def test_aggregate_inside_filter_rejected(self, db):
        with pytest.raises(SQLBindError):
            db.execute("SELECT count(*) FILTER (WHERE sum(n) > 0) FROM t")

    def test_filter_as_identifier_still_usable(self, db):
        # `filter` is not reserved: valid as an alias when no '(' follows
        result = db.execute("SELECT count(*) filter FROM t")
        assert result.columns == ["filter"]
        assert result.rows == [(5,)]


class TestResultFetchConversion:
    @pytest.mark.filterwarnings("error")
    def test_integral_float_beyond_int64_stays_a_float(self, db):
        # integral floats surface as ints, but only inside the int64
        # range: 1e19 used to come back as -9223372036854775808 (with a
        # numpy "invalid value encountered in cast" RuntimeWarning)
        db.execute("CREATE TABLE big (x float)")
        db.execute("INSERT INTO big VALUES (1e19), (2.0)")
        rows = db.execute("SELECT x FROM big").rows
        assert rows == [(1e19,), (2,)]
        assert [type(x) for (x,) in rows] == [float, int]
