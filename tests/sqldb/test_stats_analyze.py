"""ANALYZE statistics collection and its plan-cache interaction.

Covers the collection edge cases (null-heavy, all-equal, all-null and
empty columns, text min/max), the ``ANALYZE [table]`` statement, and the
invalidation contract: a stats refresh bumps ``stats_version`` so cached
plans made under the old statistics stop matching.
"""

import pytest

from repro.errors import CatalogError
from repro.sqldb import Database

from repro.sqldb.catalog import ColumnStats, TableStats


@pytest.fixture
def db():
    database = Database("postgres")
    database.run_script(
        """
        CREATE TABLE people (age int, name text, score double precision);
        INSERT INTO people (age, name, score) VALUES
            (30, 'ann', 1.5), (30, 'bob', NULL), (41, NULL, 2.5),
            (NULL, 'ann', NULL), (55, 'cid', 0.0);
        CREATE TABLE empty_t (x int, y text);
        """
    )
    yield database
    database.close()


def test_numeric_column_stats(db):
    db.execute("ANALYZE people")
    stats = db.catalog.table_stats("people")
    assert isinstance(stats, TableStats)
    assert stats.n_rows == 5
    age = stats.columns["age"]
    assert isinstance(age, ColumnStats)
    assert age.n_nulls == 1
    assert age.null_fraction == pytest.approx(0.2)
    assert age.ndv == 3  # 30 appears twice
    assert age.min_value == 30.0
    assert age.max_value == 55.0


def test_text_column_stats(db):
    db.execute("ANALYZE people")
    name = db.catalog.table_stats("people").columns["name"]
    assert name.n_nulls == 1
    assert name.ndv == 3
    assert (name.min_value, name.max_value) == ("ann", "cid")


def test_all_null_and_all_equal_columns():
    db = Database("postgres")
    db.run_script(
        """
        CREATE TABLE t (c int, k int);
        INSERT INTO t (c, k) VALUES (NULL, 7), (NULL, 7), (NULL, 7);
        """
    )
    db.execute("ANALYZE")
    stats = db.catalog.table_stats("t")
    all_null = stats.columns["c"]
    assert all_null.n_nulls == 3
    assert all_null.null_fraction == pytest.approx(1.0)
    assert all_null.ndv == 0
    assert all_null.min_value is None and all_null.max_value is None
    all_equal = stats.columns["k"]
    assert all_equal.ndv == 1
    assert all_equal.min_value == all_equal.max_value == 7.0
    db.close()


def test_empty_table_stats(db):
    db.execute("ANALYZE empty_t")
    stats = db.catalog.table_stats("empty_t")
    assert stats.n_rows == 0
    for column in stats.columns.values():
        assert column.n_nulls == 0
        assert column.null_fraction == 0.0
        assert column.ndv == 0


def test_analyze_statement(db):
    # bare ANALYZE covers every base table; rowcount reports how many
    result = db.execute("ANALYZE")
    assert result.rowcount == 2
    assert db.catalog.analyzed_tables == ["empty_t", "people"]
    # single-table form
    db2 = Database("umbra")
    db2.execute("CREATE TABLE only (x int)")
    assert db2.execute("ANALYZE only").rowcount == 1
    assert db2.catalog.analyzed_tables == ["only"]
    db2.close()


def test_analyze_unknown_table_raises(db):
    with pytest.raises(CatalogError):
        db.execute("ANALYZE nope")


def test_stats_version_bumps_and_drop_clears(db):
    assert db.catalog.stats_version == 0
    db.execute("ANALYZE people")
    assert db.catalog.stats_version == 1
    db.execute("ANALYZE")
    assert db.catalog.stats_version == 2
    db.execute("DROP TABLE people")
    assert db.catalog.table_stats("people") is None
    assert db.catalog.analyzed_tables == ["empty_t"]


def test_stats_refresh_reflects_new_data(db):
    db.execute("ANALYZE people")
    assert db.catalog.table_stats("people").n_rows == 5
    db.execute("INSERT INTO people (age, name, score) VALUES (60, 'dee', 9.0)")
    # PostgreSQL-style: stats stay stale until the next ANALYZE
    assert db.catalog.table_stats("people").n_rows == 5
    db.execute("ANALYZE people")
    assert db.catalog.table_stats("people").n_rows == 6


def test_plan_cache_invalidated_on_analyze():
    db = Database("postgres")
    db.run_script(
        """
        CREATE TABLE t (a int, b int);
        INSERT INTO t (a, b) VALUES (1, 10), (2, 20), (3, 30);
        """
    )
    query = "SELECT a FROM t WHERE a > 1 AND b < 25"
    db.execute(query)
    db.execute(query)
    assert db.plan_cache.stats["hits"] >= 1  # second run hit the cache
    db.execute("ANALYZE")
    misses_before = db.plan_cache.stats["misses"]
    db.execute(query)
    # the stats refresh changed the cache key: the old entry stops matching
    assert db.plan_cache.stats["misses"] == misses_before + 1
    db.close()
