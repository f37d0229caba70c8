"""Plan cache: hit/miss accounting, invalidation, equivalence properties."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sqldb import Database


def _make_db(plan_cache_size=128):
    db = Database("postgres", plan_cache_size=plan_cache_size)
    db.run_script(
        """
        CREATE TABLE t (n int, s text);
        INSERT INTO t VALUES (1, 'a'), (2, 'b'), (3, 'a'), (NULL, 'c');
        """
    )
    return db


class TestCacheAccounting:
    def test_repeat_execution_hits(self):
        db = _make_db()
        sql = "SELECT s, count(*) FROM t GROUP BY s ORDER BY s"
        db.execute(sql)
        misses = db.plan_cache.stats["misses"]
        db.execute(sql)
        db.execute(sql)
        assert db.plan_cache.stats["hits"] >= 2
        assert db.plan_cache.stats["misses"] == misses

    def test_whitespace_variants_share_entry(self):
        db = _make_db()
        db.execute("SELECT n FROM t WHERE n = 1")
        assert db.execute("select  n\nfrom t where n = 1").rows == [(1,)]
        assert db.plan_cache.stats["hits"] >= 1

    def test_disabled_cache(self):
        db = _make_db(plan_cache_size=0)
        sql = "SELECT n FROM t WHERE n = 1"
        assert db.execute(sql).rows == db.execute(sql).rows == [(1,)]
        assert len(db.plan_cache) == 0
        assert db.plan_cache.stats["hits"] == 0

    def test_lru_eviction_bounds_size(self):
        db = _make_db(plan_cache_size=4)
        for i in range(20):
            db.execute(f"SELECT n + {i} FROM t")
        assert len(db.plan_cache) <= 4

    def test_clear(self):
        db = _make_db()
        db.execute("SELECT n FROM t")
        assert len(db.plan_cache) > 0
        db.plan_cache.clear()
        assert len(db.plan_cache) == 0


class TestInvalidation:
    def test_create_table_invalidates(self):
        db = _make_db()
        db.execute("SELECT count(*) FROM t")
        db.execute("CREATE TABLE other (x int)")
        misses = db.plan_cache.stats["misses"]
        db.execute("SELECT count(*) FROM t")
        assert db.plan_cache.stats["misses"] == misses + 1

    def test_drop_and_recreate_sees_new_schema(self):
        db = _make_db()
        assert db.execute("SELECT count(*) FROM t").rows == [(4,)]
        db.run_script("DROP TABLE t; CREATE TABLE t (n int, s text)")
        assert db.execute("SELECT count(*) FROM t").rows == [(0,)]

    def test_insert_invalidates(self):
        db = _make_db()
        sql = "SELECT count(*) FROM t"
        assert db.execute(sql).rows == [(4,)]
        db.execute("INSERT INTO t VALUES (9, 'z')")
        assert db.execute(sql).rows == [(5,)]

    def test_parameterised_autocommit_dml_hits(self):
        """Row-changing statements leave the cache key alone: a repeated
        parameterised INSERT / UPDATE / DELETE / SELECT is parsed once."""
        db = _make_db()
        before = db.plan_cache.stats
        for i in range(100):
            db.execute("INSERT INTO t VALUES (?, ?)", (100 + i, "p"))
        after = db.plan_cache.stats
        assert after["hits"] - before["hits"] >= 98
        assert after["misses"] - before["misses"] <= 2
        statements = [
            ("UPDATE t SET s = ? WHERE n = ?", ("q", 100)),
            ("SELECT s FROM t WHERE n = ?", (100,)),
            ("DELETE FROM t WHERE n = ?", (101,)),
        ]
        for sql, params in statements:
            db.execute(sql, params)
        misses = db.plan_cache.stats["misses"]
        for _ in range(5):
            for sql, params in statements:
                db.execute(sql, params)
        assert db.plan_cache.stats["misses"] == misses
        assert db.execute("SELECT s FROM t WHERE n = ?", (100,)).rows == [("q",)]

    @pytest.mark.parametrize(
        "ddl",
        [
            "CREATE TABLE other (x int)",
            "DROP TABLE spare",
            "CREATE INDEX t_n ON t (n)",
            "DROP INDEX spare_x",
            "ANALYZE",
        ],
    )
    def test_ddl_still_misses(self, ddl):
        db = _make_db()
        db.run_script("CREATE TABLE spare (x int); CREATE INDEX spare_x ON spare (x)")
        sql = "SELECT count(*) FROM t"
        db.execute(sql)
        misses = db.plan_cache.stats["misses"]
        db.execute(sql)
        assert db.plan_cache.stats["misses"] == misses
        db.execute(ddl)
        misses = db.plan_cache.stats["misses"]
        assert db.execute(sql).rows == [(4,)]
        assert db.plan_cache.stats["misses"] == misses + 1

    def test_view_replacement_not_stale(self):
        db = _make_db()
        db.execute("CREATE VIEW v AS SELECT n FROM t WHERE n > 1")
        assert db.execute("SELECT count(*) FROM v").rows == [(2,)]
        db.run_script(
            "DROP VIEW v; CREATE VIEW v AS SELECT n FROM t WHERE n >= 1"
        )
        assert db.execute("SELECT count(*) FROM v").rows == [(3,)]


queries = st.sampled_from(
    [
        "SELECT n, s FROM t ORDER BY n, s",
        "SELECT s, count(*) AS c, sum(n) AS total FROM t GROUP BY s ORDER BY s",
        "SELECT n * 2 FROM t WHERE n IS NOT NULL ORDER BY n",
        "SELECT DISTINCT s FROM t ORDER BY s",
        "SELECT a.n FROM t a INNER JOIN t b ON a.s = b.s ORDER BY a.n",
    ]
)


@given(st.lists(queries, min_size=1, max_size=6))
@settings(max_examples=40, deadline=None)
def test_cold_and_warm_results_identical(batch):
    cached = _make_db()
    uncached = _make_db(plan_cache_size=0)
    # run the batch twice: the second pass is fully warm on `cached`
    for sql in batch + batch:
        assert cached.execute(sql).rows == uncached.execute(sql).rows


@given(
    st.lists(st.integers(min_value=-50, max_value=50), min_size=0, max_size=20)
)
@settings(max_examples=40, deadline=None)
def test_inserts_between_repeats_always_visible(ints):
    db = _make_db()
    sql = "SELECT count(*), sum(n) FROM t WHERE n IS NOT NULL"
    expected_count, expected_sum = 3, 6
    for value in ints:
        db.execute("INSERT INTO t VALUES (?, 'x')", (value,))
        expected_count += 1
        expected_sum += value
        assert db.execute(sql).rows == [(expected_count, expected_sum)]


@given(st.integers(min_value=1, max_value=8), st.integers(min_value=1, max_value=30))
@settings(max_examples=40, deadline=None)
def test_cache_never_exceeds_maxsize(maxsize, n_queries):
    db = _make_db(plan_cache_size=maxsize)
    for i in range(n_queries):
        db.execute(f"SELECT n + {i} FROM t")
        assert len(db.plan_cache) <= maxsize
