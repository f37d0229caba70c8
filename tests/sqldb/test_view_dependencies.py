"""A write finds the views that read its table without walking any view's
AST: each view's relation set is computed once, when the view is created
or decoded from a checkpoint."""

import pytest

from repro.sqldb import Database, catalog


@pytest.fixture
def walks(monkeypatch):
    """How many SELECT ASTs ``referenced_relations`` walks."""
    count = {"n": 0}
    real = catalog.referenced_relations

    def counting(select):
        count["n"] += 1
        return real(select)

    monkeypatch.setattr(catalog, "referenced_relations", counting)
    return count


@pytest.mark.parametrize("n_views", [0, 400])
def test_insert_into_an_unread_table_walks_no_view(walks, n_views):
    db = Database("umbra")
    db.run_script("CREATE TABLE t (a int); CREATE TABLE u (a int)")
    for i in range(n_views):
        db.execute(f"CREATE VIEW v{i} AS SELECT a FROM t WHERE a > {i}")
    assert walks["n"] == n_views  # once per view, at CREATE VIEW
    walks["n"] = 0
    for i in range(5):
        db.execute("INSERT INTO u VALUES (?)", (i,))
    assert walks["n"] == 0
    assert db.execute("SELECT count(*) FROM u").scalar() == 5


def test_dependent_matviews_still_refresh_through_the_stored_sets(walks):
    db = Database("umbra")
    db.run_script(
        "CREATE TABLE t (a int);"
        "CREATE VIEW v AS SELECT a FROM t;"
        "CREATE MATERIALIZED VIEW m AS SELECT count(*) AS n FROM v;"
        "INSERT INTO t VALUES (1), (2)"
    )
    walks["n"] = 0
    db.execute("INSERT INTO t VALUES (3)")
    assert walks["n"] == 0
    assert db.execute("SELECT n FROM m").scalar() == 3


def test_checkpointed_views_carry_their_relation_sets(tmp_path):
    wal = str(tmp_path / "db.wal")
    db = Database(wal_path=wal)
    db.run_script(
        "CREATE TABLE t (a int);"
        "CREATE MATERIALIZED VIEW m AS SELECT a FROM t JOIN "
        "(SELECT a AS b FROM t) s ON a = b;"
        "CHECKPOINT"
    )
    db.close()
    recovered = Database(wal_path=wal)
    try:
        assert recovered.catalog.resolve("m").relations == {"t"}
        recovered.execute("INSERT INTO t VALUES (4)")
        assert recovered.execute("SELECT a FROM m").rows == [(4,)]
    finally:
        recovered.close()
