"""Edge cases: multi-key sorting, UNION ALL, nested sources, empty inputs."""

import pytest

from repro.errors import SQLBindError
from repro.sqldb import Database


@pytest.fixture
def db():
    database = Database("postgres")
    database.run_script(
        "CREATE TABLE t (g text, n int);"
        "INSERT INTO t VALUES ('b', 2), ('a', 2), ('b', 1), ('a', NULL)"
    )
    return database


class TestSorting:
    def test_multi_key_mixed_directions(self, db):
        # PostgreSQL default: NULLS FIRST when descending
        result = db.execute("SELECT g, n FROM t ORDER BY g ASC, n DESC")
        assert result.rows == [
            ("a", None), ("a", 2), ("b", 2), ("b", 1),
        ]

    def test_nulls_first_on_desc(self, db):
        result = db.execute("SELECT n FROM t WHERE g = 'a' ORDER BY n DESC")
        assert result.rows == [(None,), (2,)]

    def test_order_by_expression(self, db):
        result = db.execute(
            "SELECT n FROM t WHERE n IS NOT NULL ORDER BY n * -1"
        )
        assert result.column("n") == [2, 2, 1]

    def test_order_by_hidden_input_column(self, db):
        # ORDER BY references a column the projection dropped
        result = db.execute(
            "SELECT g FROM t WHERE n IS NOT NULL ORDER BY n, g"
        )
        assert result.column("g") == ["b", "a", "b"]

    def test_order_stable_for_ties(self, db):
        result = db.execute("SELECT g, n FROM t ORDER BY g")
        assert [r[0] for r in result.rows] == ["a", "a", "b", "b"]


class TestUnionAll:
    def test_concatenates_and_keeps_duplicates(self, db):
        result = db.execute(
            "SELECT g FROM t WHERE n = 2 UNION ALL SELECT g FROM t WHERE n = 2"
        )
        assert sorted(result.column("g")) == ["a", "a", "b", "b"]

    def test_mixed_literal_arms(self, db):
        result = db.execute("SELECT 1 AS v UNION ALL SELECT 2")
        assert result.column("v") == [1, 2]

    def test_arity_mismatch_rejected(self, db):
        with pytest.raises(SQLBindError):
            db.execute("SELECT g, n FROM t UNION ALL SELECT g FROM t")

    def test_union_inside_cte(self, db):
        result = db.execute(
            "WITH u AS (SELECT n FROM t UNION ALL SELECT 99) "
            "SELECT count(*) FROM u"
        )
        assert result.scalar() == 5

    @pytest.mark.parametrize("optimize", [False, True])
    def test_long_chain_does_not_recurse_per_arm(self, optimize):
        # one arm per inspected (node, column): parser, constant folder,
        # planner and executor must loop over a chain, not recurse
        database = Database("postgres", optimize=optimize)
        database.run_script(
            "CREATE TABLE t (n int); INSERT INTO t VALUES (2), (1), (NULL)"
        )
        arms = [
            f"SELECT {i}, n, count(*) FROM t WHERE 1 = 1 GROUP BY n"
            for i in range(2500)
        ]
        result = database.execute(" UNION ALL ".join(arms))
        assert result.rowcount == 2500 * 3
        assert [row[0] for row in result.rows[::3]] == list(range(2500))

    def test_order_by_and_limit_apply_to_the_whole_chain(self, db):
        result = db.execute(
            "SELECT n FROM t WHERE n = 1 UNION ALL SELECT n FROM t "
            "WHERE n = 2 UNION ALL SELECT 7 ORDER BY n DESC LIMIT 3"
        )
        assert result.column("n") == [7, 2, 2]

    def test_order_by_a_non_output_column_of_a_chain_is_rejected(self, db):
        with pytest.raises(SQLBindError):
            db.execute("SELECT g FROM t UNION ALL SELECT g FROM t ORDER BY n")


class TestNestedSources:
    def test_subquery_of_subquery(self, db):
        result = db.execute(
            "SELECT x FROM (SELECT n AS x FROM "
            "(SELECT n FROM t WHERE n IS NOT NULL) inner_q) outer_q "
            "ORDER BY x"
        )
        assert result.column("x") == [1, 2, 2]

    def test_join_of_subqueries(self, db):
        result = db.execute(
            "SELECT count(*) FROM (SELECT g FROM t) a "
            "JOIN (SELECT g FROM t) b ON a.g = b.g"
        )
        assert result.scalar() == 8  # 2x2 per group, two groups

    def test_aggregate_over_join_of_ctes(self, db):
        result = db.execute(
            "WITH l AS (SELECT g, n FROM t WHERE n IS NOT NULL), "
            "r AS (SELECT g FROM t) "
            "SELECT l.g, count(*) AS c FROM l JOIN r ON l.g = r.g "
            "GROUP BY l.g ORDER BY l.g"
        )
        assert result.rows == [("a", 2), ("b", 4)]


class TestEmptyInputs:
    def test_everything_over_empty_table(self, db):
        db.execute("CREATE TABLE void (a int, g text)")
        assert db.execute("SELECT count(*) FROM void").scalar() == 0
        assert db.execute("SELECT * FROM void WHERE a > 0").rows == []
        assert db.execute("SELECT g, sum(a) FROM void GROUP BY g").rows == []
        assert (
            db.execute(
                "SELECT * FROM void v JOIN t ON v.g = t.g"
            ).rows
            == []
        )
        assert db.execute("SELECT DISTINCT g FROM void").rows == []
        assert db.execute("SELECT * FROM void ORDER BY a LIMIT 3").rows == []

    def test_left_join_against_empty(self, db):
        db.execute("CREATE TABLE void (g text, x int)")
        result = db.execute(
            "SELECT t.g, v.x FROM t LEFT JOIN void v ON t.g = v.g"
        )
        assert result.rowcount == 4
        assert all(row[1] is None for row in result.rows)

    def test_scalar_subquery_over_empty_is_null(self, db):
        db.execute("CREATE TABLE void (a int)")
        result = db.execute("SELECT (SELECT max(a) FROM void) AS v")
        assert result.rows == [(None,)]
