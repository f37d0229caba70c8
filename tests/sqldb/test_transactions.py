"""Explicit transactions, savepoints, and statement-level atomicity."""

import pytest

from repro.errors import (
    CatalogError,
    SQLError,
    SQLExecutionError,
    TransactionError,
)
from repro.sqldb.engine import Database


@pytest.fixture
def db():
    database = Database("umbra")
    database.execute("CREATE TABLE t (a int, b text)")
    database.execute("INSERT INTO t (a, b) VALUES (1, 'x'), (2, 'y')")
    return database


def rows(db, table="t"):
    return sorted(db.execute(f"SELECT * FROM {table}").rows)


class TestExplicitTransactions:
    def test_commit_keeps_changes(self, db):
        db.execute("BEGIN")
        assert db.in_transaction
        db.execute("INSERT INTO t (a, b) VALUES (3, 'z')")
        db.execute("COMMIT")
        assert not db.in_transaction
        assert rows(db) == [(1, "x"), (2, "y"), (3, "z")]

    def test_rollback_undoes_insert(self, db):
        before = rows(db)
        db.execute("BEGIN")
        db.execute("INSERT INTO t (a, b) VALUES (3, 'z')")
        assert len(rows(db)) == 3  # visible inside the transaction
        db.execute("ROLLBACK")
        assert rows(db) == before
        assert not db.in_transaction

    def test_rollback_undoes_ddl(self, db):
        db.execute("BEGIN")
        db.execute("CREATE TABLE extra (v int)")
        db.execute("INSERT INTO extra (v) VALUES (7)")
        db.execute("ROLLBACK")
        with pytest.raises(SQLError):
            db.execute("SELECT * FROM extra")

    def test_rollback_restores_dropped_table(self, db):
        db.execute("BEGIN")
        db.execute("DROP TABLE t")
        with pytest.raises(SQLError):
            db.execute("SELECT * FROM t")
        db.execute("ROLLBACK")
        assert rows(db) == [(1, "x"), (2, "y")]

    def test_rollback_restores_serial_counter(self):
        db = Database("umbra")
        db.execute("CREATE TABLE s (id serial, v int)")
        db.execute("INSERT INTO s (v) VALUES (10)")
        db.execute("BEGIN")
        db.execute("INSERT INTO s (v) VALUES (11)")
        db.execute("ROLLBACK")
        db.execute("INSERT INTO s (v) VALUES (12)")
        # the rolled-back row's serial id is handed out again
        assert sorted(db.execute("SELECT id FROM s").column("id")) == [0, 1]

    def test_rollback_restores_materialized_view(self, db):
        db.execute("CREATE MATERIALIZED VIEW mv AS SELECT count(*) AS n FROM t")
        db.execute("BEGIN")
        db.execute("INSERT INTO t (a, b) VALUES (3, 'z')")
        assert db.execute("SELECT n FROM mv").scalar() == 3
        db.execute("ROLLBACK")
        assert db.execute("SELECT n FROM mv").scalar() == 2

    def test_keyword_variants(self, db):
        db.execute("BEGIN TRANSACTION")
        db.execute("COMMIT WORK")
        db.execute("BEGIN WORK")
        db.execute("ROLLBACK TRANSACTION")
        assert not db.in_transaction

    def test_begin_inside_transaction_raises(self, db):
        db.execute("BEGIN")
        with pytest.raises(TransactionError) as info:
            db.execute("BEGIN")
        assert info.value.sqlstate == "25001"
        db.execute("ROLLBACK")

    def test_commit_outside_transaction_raises(self, db):
        with pytest.raises(TransactionError) as info:
            db.execute("COMMIT")
        assert info.value.sqlstate == "25P01"

    def test_rollback_outside_transaction_raises(self, db):
        with pytest.raises(TransactionError):
            db.execute("ROLLBACK")

    def test_api_commit_rollback_are_noops_outside_txn(self, db):
        # DB-API convention: commit()/rollback() never raise in autocommit
        db.commit()
        db.rollback()
        assert rows(db) == [(1, "x"), (2, "y")]

    def test_api_begin_commit(self, db):
        db.begin()
        db.execute("INSERT INTO t (a, b) VALUES (3, 'z')")
        db.commit()
        assert len(rows(db)) == 3
        db.begin()
        db.execute("INSERT INTO t (a, b) VALUES (4, 'w')")
        db.rollback()
        assert len(rows(db)) == 3


class TestSavepoints:
    def test_rollback_to_savepoint(self, db):
        db.execute("BEGIN")
        db.execute("INSERT INTO t (a, b) VALUES (3, 'z')")
        db.execute("SAVEPOINT s1")
        db.execute("INSERT INTO t (a, b) VALUES (4, 'w')")
        db.execute("ROLLBACK TO s1")
        db.execute("COMMIT")
        assert rows(db) == [(1, "x"), (2, "y"), (3, "z")]

    def test_savepoint_survives_rollback_to(self, db):
        db.execute("BEGIN")
        db.execute("SAVEPOINT s1")
        db.execute("INSERT INTO t (a, b) VALUES (3, 'z')")
        db.execute("ROLLBACK TO s1")
        db.execute("INSERT INTO t (a, b) VALUES (4, 'w')")
        db.execute("ROLLBACK TO SAVEPOINT s1")  # usable repeatedly
        db.execute("COMMIT")
        assert rows(db) == [(1, "x"), (2, "y")]

    def test_nested_savepoints(self, db):
        db.execute("BEGIN")
        db.execute("SAVEPOINT outer_sp")
        db.execute("INSERT INTO t (a, b) VALUES (3, 'z')")
        db.execute("SAVEPOINT inner_sp")
        db.execute("INSERT INTO t (a, b) VALUES (4, 'w')")
        db.execute("ROLLBACK TO inner_sp")
        assert len(rows(db)) == 3
        db.execute("ROLLBACK TO outer_sp")
        assert len(rows(db)) == 2
        db.execute("COMMIT")
        assert rows(db) == [(1, "x"), (2, "y")]

    def test_rollback_to_drops_later_savepoints(self, db):
        db.execute("BEGIN")
        db.execute("SAVEPOINT s1")
        db.execute("SAVEPOINT s2")
        db.execute("ROLLBACK TO s1")
        with pytest.raises(TransactionError) as info:
            db.execute("ROLLBACK TO s2")
        assert info.value.sqlstate == "3B001"
        db.execute("ROLLBACK")

    def test_duplicate_savepoint_names_mask(self, db):
        # PostgreSQL: the newer savepoint of the same name wins
        db.execute("BEGIN")
        db.execute("SAVEPOINT s")
        db.execute("INSERT INTO t (a, b) VALUES (3, 'z')")
        db.execute("SAVEPOINT s")
        db.execute("INSERT INTO t (a, b) VALUES (4, 'w')")
        db.execute("ROLLBACK TO s")
        db.execute("COMMIT")
        assert rows(db) == [(1, "x"), (2, "y"), (3, "z")]

    def test_release_keeps_effects(self, db):
        db.execute("BEGIN")
        db.execute("SAVEPOINT s1")
        db.execute("INSERT INTO t (a, b) VALUES (3, 'z')")
        db.execute("RELEASE s1")
        with pytest.raises(TransactionError):
            db.execute("ROLLBACK TO s1")
        db.execute("ROLLBACK")  # full rollback still available
        assert rows(db) == [(1, "x"), (2, "y")]

    def test_release_savepoint_keyword(self, db):
        db.execute("BEGIN")
        db.execute("SAVEPOINT s1")
        db.execute("RELEASE SAVEPOINT s1")
        db.execute("COMMIT")

    def test_savepoint_outside_transaction_raises(self, db):
        with pytest.raises(TransactionError):
            db.execute("SAVEPOINT s1")
        with pytest.raises(TransactionError):
            db.execute("ROLLBACK TO s1")
        with pytest.raises(TransactionError):
            db.execute("RELEASE s1")

    def test_unknown_savepoint(self, db):
        db.execute("BEGIN")
        with pytest.raises(TransactionError):
            db.execute("ROLLBACK TO nope")
        with pytest.raises(TransactionError):
            db.execute("RELEASE nope")
        db.execute("ROLLBACK")


class TestStatementAtomicity:
    def test_failing_multi_row_insert_applies_nothing(self, db):
        before = rows(db)
        # second row's value cannot be coerced to int
        with pytest.raises(SQLError):
            db.execute(
                "INSERT INTO t (a, b) VALUES (3, 'ok'), ('boom', 'bad')"
            )
        assert rows(db) == before

    def test_failing_statement_inside_txn_keeps_txn_state(self, db):
        db.execute("BEGIN")
        db.execute("INSERT INTO t (a, b) VALUES (3, 'z')")
        with pytest.raises(SQLError):
            db.execute("INSERT INTO t (a, b) VALUES ('boom', 'bad')")
        # earlier in-transaction work survives the failed statement
        assert len(rows(db)) == 3
        db.execute("COMMIT")
        assert len(rows(db)) == 3

    def test_executemany_partial_apply_rolls_back(self, db):
        """Regression: a batch failing on row k must undo rows 0..k-1."""
        before = rows(db)
        with pytest.raises(SQLError):
            db.executemany(
                "INSERT INTO t (a, b) VALUES (?, ?)",
                [(3, "z"), (4, "w"), ("boom", "bad"), (5, "v")],
            )
        assert rows(db) == before

    def test_executemany_wrong_arity_rolls_back(self, db):
        before = rows(db)
        with pytest.raises(SQLError):
            db.executemany(
                "INSERT INTO t (a, b) VALUES (?, ?)", [(3, "z"), (4,)]
            )
        assert rows(db) == before

    def test_executemany_inside_txn_keeps_prior_work(self, db):
        db.execute("BEGIN")
        db.execute("INSERT INTO t (a, b) VALUES (3, 'z')")
        with pytest.raises(SQLError):
            db.executemany(
                "INSERT INTO t (a, b) VALUES (?, ?)", [(4, "w"), ("boom", "x")]
            )
        # the failed batch vanished; the transaction itself is intact
        assert len(rows(db)) == 3
        db.execute("COMMIT")
        assert len(rows(db)) == 3

    def test_executemany_rejects_select(self, db):
        with pytest.raises(SQLExecutionError):
            db.executemany("SELECT * FROM t WHERE a = ?", [(1,), (2,)])

    def test_executemany_empty_script_is_a_batch_of_nothing(self, db):
        before = rows(db)
        assert db.executemany("", [(), ()]) == 0
        assert rows(db) == before

    def test_executemany_on_read_only_database_is_25006_first(self):
        from repro.errors import ReadOnlySQLTransaction

        replica = Database("umbra", read_only=True)
        # the read-only refusal wins over the statement-type check
        with pytest.raises(ReadOnlySQLTransaction):
            replica.executemany("SELECT 1", [()])
        replica.close()

    def test_executemany_success_counts_rows(self, db):
        total = db.executemany(
            "INSERT INTO t (a, b) VALUES (?, ?)", [(3, "z"), (4, "w")]
        )
        assert total == 2
        assert len(rows(db)) == 4


class TestPlanCacheAcrossRollback:
    def test_rolled_back_ddl_never_serves_stale_plans(self):
        db = Database("umbra", plan_cache_size=64)
        db.execute("BEGIN")
        db.execute("CREATE TABLE x (a int)")
        db.execute("INSERT INTO x (a) VALUES (1)")
        # caches a plan against the in-transaction schema version
        assert db.execute("SELECT a FROM x").column("a") == [1]
        db.execute("ROLLBACK")
        # the relation is gone; the cached plan must not resurface
        with pytest.raises(CatalogError):
            db.execute("SELECT a FROM x")

    def test_recreated_table_gets_fresh_plan(self):
        db = Database("umbra", plan_cache_size=64)
        db.execute("BEGIN")
        db.execute("CREATE TABLE x (a int)")
        db.execute("INSERT INTO x (a) VALUES (1)")
        assert db.execute("SELECT * FROM x").columns == ["a"]
        db.execute("ROLLBACK")
        db.execute("CREATE TABLE x (b text, a int)")
        db.execute("INSERT INTO x (b, a) VALUES ('q', 9)")
        result = db.execute("SELECT * FROM x")
        assert result.columns == ["b", "a"]
        assert result.rows == [("q", 9)]

    def test_schema_version_never_rewinds_on_restore(self):
        db = Database("umbra")
        db.execute("CREATE TABLE x (a int)")
        v_before = db.catalog.schema_version
        db.execute("BEGIN")
        # in-transaction plans are keyed by the private fork's unique
        # uid (committed catalogs are always uid 0), so they can never
        # be served against committed state after ROLLBACK
        fork = db._default_session.txn.catalog
        assert fork.uid != db.catalog.uid
        db.execute("CREATE TABLE y (a int)")
        db.execute("ROLLBACK")
        # MVCC rollback discards the fork; the committed catalog never
        # rewinds (it never even changed)
        assert db.catalog.schema_version >= v_before
        # the restore path (statement atomicity, savepoints) still takes
        # a fresh monotonic bump whenever state actually changed
        snap = db.catalog.snapshot()
        db.execute("CREATE TABLE z (a int)")
        v_mid = db.catalog.schema_version
        db.catalog.restore(snap)
        assert db.catalog.schema_version > v_mid

    def test_schema_version_never_rewinds_on_reset_storage(self):
        db = Database("umbra")
        db.execute("CREATE TABLE x (a int, b text)")
        old = db.catalog
        db.reset_storage()
        # a SELECT that was prepared against the discarded catalog caches
        # its plan after the reset emptied the cache
        entry = db._prepare("SELECT * FROM x", catalog=old)
        cached = entry.statements[0]
        cached.plan = db._plan_select(cached.statement, old)
        # the same number of DDL statements, a different shape
        db.execute("CREATE TABLE x (b text, a int)")
        assert db.catalog.schema_version > old.schema_version
        assert db.execute("SELECT * FROM x").columns == ["b", "a"]
