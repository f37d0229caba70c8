"""Secondary indexes: DDL, maintenance, unique enforcement, planning.

The maintenance tests compare live index objects against a
rebuilt-from-scratch oracle (:func:`repro.sqldb.catalog.build_index` over
the table's current contents) after every mutation path — INSERT, UPDATE,
DELETE, savepoint rollback, transaction rollback and WAL recovery.  If
incremental maintenance and a cold rebuild ever disagree, a lookup could
silently return wrong rows, so equality here is the load-bearing check.
"""

import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import CatalogError, SQLExecutionError, UniqueViolation
from repro.sqldb import Database
from repro.sqldb.catalog import build_index
from tests.sqldb.plans import explain

pytestmark = pytest.mark.indexes


def assert_index_matches_rebuild(db, name, catalog=None):
    """The live index must equal, field for field, one rebuilt from the
    table's current contents (*catalog*: a transaction's fork)."""
    catalog = db.catalog if catalog is None else catalog
    live = catalog.index(name)
    table = catalog.table(live.table)
    oracle = build_index(live.name, table, live.columns, live.unique)
    assert (live.name, live.table, live.columns, live.unique) == (
        oracle.name, oracle.table, oracle.columns, oracle.unique
    )
    assert live.n_rows == oracle.n_rows == table.n_rows
    assert len(live.key_arrays) == len(oracle.key_arrays) == len(live.columns)
    for live_keys, oracle_keys in zip(live.key_arrays, oracle.key_arrays):
        assert live_keys.dtype == oracle_keys.dtype
        np.testing.assert_array_equal(live_keys, oracle_keys)
    assert live.positions.dtype == oracle.positions.dtype
    np.testing.assert_array_equal(live.positions, oracle.positions)


@pytest.fixture
def db():
    database = Database()
    database.execute("CREATE TABLE t (id int, grp text, val float)")
    for i in range(40):
        database.execute(
            "INSERT INTO t VALUES (?, ?, ?)",
            (i, "g" + str(i % 4), i * 1.5),
        )
    yield database
    database.close()


class TestIndexDdl:
    def test_create_and_drop(self, db):
        db.execute("CREATE INDEX t_id ON t (id)")
        assert db.catalog.has_index("t_id")
        assert_index_matches_rebuild(db, "t_id")
        db.execute("DROP INDEX t_id")
        assert not db.catalog.has_index("t_id")

    def test_if_exists_variants(self, db):
        db.execute("DROP INDEX IF EXISTS nope")  # no error
        db.execute("CREATE INDEX t_id ON t (id)")
        with pytest.raises(CatalogError):
            db.execute("CREATE INDEX t_id ON t (id)")
        with pytest.raises(CatalogError):
            db.execute("DROP INDEX nope")

    @pytest.mark.parametrize(
        "sql",
        [
            "CREATE TABLE t_id (b int)",
            "CREATE VIEW t_id AS SELECT id FROM t",
            "CREATE MATERIALIZED VIEW t_id AS SELECT id FROM t",
        ],
    )
    def test_index_names_share_the_relation_namespace(self, db, sql):
        # PostgreSQL's one namespace: tables, views, indexes and models
        db.execute("CREATE INDEX t_id ON t (id)")
        with pytest.raises(CatalogError) as info:
            db.execute(sql)
        assert info.value.sqlstate == "42P07"

    def test_unknown_column_rejected(self, db):
        with pytest.raises(CatalogError):
            db.execute("CREATE INDEX t_x ON t (missing)")

    def test_composite_btree_is_the_one_kind(self, db):
        db.execute("CREATE INDEX t_c ON t USING btree (id, grp)")
        assert_index_matches_rebuild(db, "t_c")
        db.execute("INSERT INTO t VALUES (3, 'g0', 0.0), (3, 'a', 0.0)")
        assert_index_matches_rebuild(db, "t_c")
        index = db.catalog.index("t_c")
        # lexicographic: id, then grp among equal ids
        assert [keys.tolist()[3:6] for keys in index.key_arrays] == [
            [3.0, 3.0, 3.0], ["a", "g0", "g3"],
        ]
        assert index.eq_positions((3, "g0")).tolist() == [40]

    @pytest.mark.parametrize("columns", ["(id)", "(grp, id)"])
    def test_btree_hash_and_default_build_the_same_index(self, db, columns):
        for name, using in [("a", ""), ("b", "USING btree"), ("c", "USING hash")]:
            db.execute(f"CREATE INDEX t_{name} ON t {using} {columns}")
        built = [db.catalog.index(f"t_{name}") for name in "abc"]
        for index in built[1:]:
            assert (index.table, index.columns, index.unique, index.n_rows) == (
                built[0].table, built[0].columns, built[0].unique,
                built[0].n_rows,
            )
            for keys, first in zip(index.key_arrays, built[0].key_arrays):
                assert keys.dtype == first.dtype
                assert keys.tolist() == first.tolist()
            assert index.positions.tolist() == built[0].positions.tolist()

    @pytest.mark.parametrize(
        "sql, sqlstate",
        [
            ("CREATE INDEX t_x ON t USING gist (id)", "42704"),
            ("CREATE INDEX t_x ON t USING sorted (id)", "42704"),
            ("CREATE INDEX t_x ON a (xs)", "0A000"),
            ("CREATE INDEX t_x ON a (id, xs)", "0A000"),
        ],
    )
    def test_create_index_errors_carry_sqlstates(self, db, sql, sqlstate):
        db.execute("CREATE TABLE a (id int, xs int[])")
        with pytest.raises(CatalogError) as info:
            db.execute(sql)
        assert info.value.sqlstate == sqlstate
        assert not db.catalog.has_index("t_x")

    @pytest.mark.parametrize(
        "declared, cells",
        [
            ("int", [3, None, -1, 2.7, True, "7"]),
            ("float", [1.5, None, float("inf"), -0.0, "2.5", 2]),
            ("boolean", [True, None, False, "yes", 0]),
            ("text", ["b", None, 7, 2.5, True, "é", ""]),
        ],
    )
    def test_every_indexable_column_sorts(self, declared, cells):
        """A stored column holds one storage class, so an index's keys
        are float64 or all ``str``: its stable sorts never meet values
        that do not compare, whatever was assigned to the column."""
        db = Database()
        db.execute(f"CREATE TABLE s (c {declared}, d int)")
        db.execute("CREATE INDEX s_c ON s (c)")
        db.execute("CREATE INDEX s_dc ON s (d, c)")
        for i, cell in enumerate(cells):
            db.execute("INSERT INTO s VALUES (?, ?)", (cell, i % 2))
        db.execute("UPDATE s SET c = ? WHERE d = 0", (cells[-1],))
        for name in ("s_c", "s_dc"):
            assert_index_matches_rebuild(db, name)
            for keys in db.catalog.index(name).key_arrays:
                assert keys.dtype == np.float64 or all(
                    type(key) is str for key in keys
                )

    def test_nulls_not_indexed(self, db):
        db.execute("INSERT INTO t VALUES (NULL, 'g0', 1.0)")
        db.execute("CREATE INDEX t_id ON t (id)")
        index = db.catalog.index("t_id")
        assert index.n_rows == 41
        assert len(index.positions) == 40
        assert_index_matches_rebuild(db, "t_id")


class TestMaintenance:
    @pytest.mark.parametrize("method", ["btree", "hash"])
    def test_insert_update_delete(self, db, method):
        db.execute(f"CREATE INDEX t_id ON t USING {method} (id)")
        db.execute("INSERT INTO t VALUES (100, 'g9', 0.0)")
        assert_index_matches_rebuild(db, "t_id")
        db.execute("UPDATE t SET id = id + 1000 WHERE grp = 'g1'")
        assert_index_matches_rebuild(db, "t_id")
        db.execute("DELETE FROM t WHERE id < 20")
        assert_index_matches_rebuild(db, "t_id")
        assert db.execute("SELECT val FROM t WHERE id = 1001").rows == [
            (1.5,)
        ]

    def test_savepoint_rollback_restores_index(self, db):
        db.execute("CREATE INDEX t_id ON t (id)")
        db.execute("BEGIN")
        db.execute("SAVEPOINT s1")
        db.execute("UPDATE t SET id = id + 500 WHERE id >= 30")
        db.execute("DELETE FROM t WHERE id < 5")
        assert_index_matches_rebuild(db, "t_id")
        db.execute("ROLLBACK TO SAVEPOINT s1")
        assert_index_matches_rebuild(db, "t_id")
        assert db.execute("SELECT count(*) FROM t WHERE id < 5").rows == [(5,)]
        db.execute("COMMIT")
        assert_index_matches_rebuild(db, "t_id")

    def test_transaction_rollback_discards_index(self, db):
        db.execute("BEGIN")
        db.execute("CREATE INDEX t_id ON t (id)")
        db.execute("ROLLBACK")
        assert not db.catalog.has_index("t_id")
        db.execute("CREATE INDEX t_id ON t (id)")  # name is free again
        assert_index_matches_rebuild(db, "t_id")

    def test_failed_statement_leaves_index_consistent(self, db):
        db.execute("CREATE UNIQUE INDEX t_id ON t (id)")
        with pytest.raises(UniqueViolation):
            db.execute("UPDATE t SET id = 7 WHERE id = 8")
        assert_index_matches_rebuild(db, "t_id")
        assert db.execute("SELECT count(*) FROM t WHERE id = 7").rows == [(1,)]


class TestUniqueEnforcement:
    def test_create_over_duplicates_is_23505(self, db):
        db.execute("INSERT INTO t VALUES (0, 'dup', 0.0)")
        with pytest.raises(UniqueViolation) as info:
            db.execute("CREATE UNIQUE INDEX t_id ON t (id)")
        assert info.value.sqlstate == "23505"
        assert not db.catalog.has_index("t_id")

    def test_insert_violation_is_23505(self, db):
        db.execute("CREATE UNIQUE INDEX t_id ON t (id)")
        with pytest.raises(UniqueViolation) as info:
            db.execute("INSERT INTO t VALUES (5, 'x', 0.0)")
        assert info.value.sqlstate == "23505"
        assert db.execute("SELECT count(*) FROM t").rows == [(40,)]
        assert_index_matches_rebuild(db, "t_id")

    def test_update_violation_is_23505(self, db):
        db.execute("CREATE UNIQUE INDEX t_id ON t (id)")
        with pytest.raises(UniqueViolation) as info:
            db.execute("UPDATE t SET id = 0 WHERE id > 38")
        assert info.value.sqlstate == "23505"
        assert_index_matches_rebuild(db, "t_id")

    def test_duplicate_nulls_allowed(self, db):
        db.execute("CREATE UNIQUE INDEX t_id ON t (id)")
        db.execute("INSERT INTO t VALUES (NULL, 'n', 0.0)")
        db.execute("INSERT INTO t VALUES (NULL, 'n', 0.0)")
        assert_index_matches_rebuild(db, "t_id")


class TestPlanning:
    def test_point_lookup_uses_index(self, db):
        db.execute("ANALYZE")
        assert "ScanTable" in explain(db, "SELECT val FROM t WHERE id = 7")
        db.execute("CREATE UNIQUE INDEX t_id ON t (id)")
        plan = explain(db, "SELECT val FROM t WHERE id = 7")
        assert "IndexScan(t using t_id, eq)" in plan
        assert db.execute("SELECT val FROM t WHERE id = 7").rows == [(10.5,)]

    def test_plan_cache_invalidated_by_index_ddl(self, db):
        db.execute("ANALYZE")
        sql = "SELECT val FROM t WHERE id = 7"
        assert db.execute(sql).rows == [(10.5,)]  # cached without index
        db.execute("CREATE INDEX t_id ON t (id)")
        assert "IndexScan" in explain(db, sql)
        assert db.execute(sql).rows == [(10.5,)]
        db.execute("DROP INDEX t_id")
        assert "IndexScan" not in explain(db, sql)
        assert db.execute(sql).rows == [(10.5,)]

    def test_mixed_type_probe_not_taken(self, db):
        # text < numeric string-compares on a scan but would TypeError on
        # a sorted probe; the plan must keep the scan
        db.execute("CREATE INDEX t_grp ON t (grp)")
        db.execute("ANALYZE")
        plan = explain(db, "SELECT id FROM t WHERE grp = 3")
        assert "IndexScan" not in plan

    def test_join_over_an_index_probe_matches_the_scan(self, db):
        db.execute("CREATE TABLE s (id int, tag text)")
        for i in range(8):
            db.execute("INSERT INTO s VALUES (?, ?)", (i, "tag" + str(i)))
        sql = (
            "SELECT s.tag, t.val FROM (SELECT id, tag FROM s "
            "WHERE tag = 'tag3') s JOIN t ON s.id = t.id"
        )
        baseline = db.execute(sql).rows
        db.execute("CREATE UNIQUE INDEX t_id ON t (id)")
        db.execute("CREATE INDEX s_tag ON s (tag)")
        db.execute("ANALYZE")
        plan = explain(db, sql)
        assert "IndexScan(s using s_tag, eq)" in plan
        assert "Join(inner, keys=1)" in plan
        assert db.execute(sql).rows == baseline


class TestRecovery:
    def test_indexes_survive_wal_recovery(self, tmp_path):
        wal = tmp_path / "wal.log"
        db = Database(wal_path=str(wal))
        db.execute("CREATE TABLE t (id int, v text)")
        db.execute("CREATE UNIQUE INDEX t_id ON t (id)")
        for i in range(10):
            db.execute("INSERT INTO t VALUES (?, ?)", (i, "v" + str(i)))
        db.execute("UPDATE t SET v = 'patched' WHERE id = 3")
        db.execute("DELETE FROM t WHERE id = 9")
        db.close()

        revived = Database(wal_path=str(wal))
        try:
            assert revived.catalog.has_index("t_id")
            assert_index_matches_rebuild(revived, "t_id")
            with pytest.raises(UniqueViolation):
                revived.execute("INSERT INTO t VALUES (3, 'dup')")
            assert revived.execute(
                "SELECT v FROM t WHERE id = 3"
            ).rows == [("patched",)]
        finally:
            revived.close()


class TestDmlSemantics:
    def test_update_expression_sees_old_row_images(self, db):
        db.execute("CREATE TABLE p (a int, b int)")
        db.execute("INSERT INTO p VALUES (1, 10)")
        db.execute("UPDATE p SET a = b, b = a")
        assert db.execute("SELECT a, b FROM p").rows == [(10, 1)]

    def test_duplicate_assignment_rejected(self, db):
        with pytest.raises(SQLExecutionError):
            db.execute("UPDATE t SET id = 1, id = 2")

    def test_delete_without_where(self, db):
        db.execute("CREATE INDEX t_id ON t (id)")
        db.execute("DELETE FROM t")
        assert db.execute("SELECT count(*) FROM t").rows == [(0,)]
        assert_index_matches_rebuild(db, "t_id")


# -- random DML streams against the rebuild oracle ----------------------------

STREAM_INDEXES = ("s_id", "s_grp", "s_c")

_ids = st.one_of(st.none(), st.integers(-2, 12))
_grps = st.one_of(st.none(), st.sampled_from(["a", "b", "c"]))
_slots = st.one_of(st.none(), st.integers(0, 3))
_row = st.tuples(_ids, _grps, _slots, st.integers(0, 99))

_statement = st.one_of(
    # multi-row batches over a small key domain: duplicates against the
    # table and in the middle of a batch are the common case
    st.tuples(st.just("insert"), st.lists(_row, min_size=1, max_size=4)),
    st.tuples(st.just("update_key"), st.integers(-2, 12), st.integers(-2, 12)),
    st.tuples(st.just("update_part"), _grps, st.integers(-2, 12)),
    st.tuples(st.just("update_plain"), st.integers(0, 99), _grps),
    st.tuples(st.just("delete"), st.integers(-2, 12), st.integers(0, 6)),
)
_step = st.one_of(
    _statement,
    st.tuples(st.just("savepoint"), st.lists(_statement, max_size=4)),
    st.tuples(st.just("recover"), st.none()),
)


def _render(statement):
    kind = statement[0]
    if kind == "insert":
        rows = statement[1]
        values = ", ".join("(?, ?, ?, ?)" for _ in rows)
        return f"INSERT INTO s VALUES {values}", [c for row in rows for c in row]
    if kind == "update_key":
        return "UPDATE s SET id = ? WHERE id = ?", list(statement[1:])
    if kind == "update_part":
        return "UPDATE s SET grp = ? WHERE id = ?", list(statement[1:])
    if kind == "update_plain":
        grp = statement[2]
        if grp is None:
            return "UPDATE s SET val = ? WHERE grp IS NULL", [statement[1]]
        return "UPDATE s SET val = ? WHERE grp = ?", list(statement[1:])
    low, width = statement[1:]
    return "DELETE FROM s WHERE id >= ? AND id < ?", [low, low + width]


def _contents(db):
    return db.execute("SELECT id, grp, slot, val, ctid FROM s").rows


def _check_stream_state(db, catalog=None):
    catalog = db.catalog if catalog is None else catalog
    table = catalog.table("s")
    for name in STREAM_INDEXES:
        assert_index_matches_rebuild(db, name, catalog)
        index = catalog.index(name)
        present = np.ones(table.n_rows, dtype=bool)
        for column in index.columns:
            present &= ~table.columns[column].nulls
        # NULL keys stay unindexed
        assert len(index.positions) == int(present.sum())


def _run_statement(db, statement):
    """Run one statement; a 23505 must leave the table's vectors and
    every index object exactly as they were."""
    catalog = (
        db._default_session.txn.catalog if db.in_transaction else db.catalog
    )
    columns = dict(catalog.table("s").columns)
    indexes = {name: catalog.index(name) for name in STREAM_INDEXES}
    sql, params = _render(statement)
    try:
        db.execute(sql, params)
    except UniqueViolation as exc:
        assert exc.sqlstate == "23505"
        assert all(catalog.table("s").columns[c] is columns[c] for c in columns)
        assert all(catalog.index(n) is indexes[n] for n in indexes)
    _check_stream_state(db, catalog)


@pytest.mark.fuzz
def test_random_dml_stream_matches_rebuild(request):
    """Random INSERT / UPDATE / DELETE streams (parameterised, so key
    lookups run as index probes bound at execution), savepoint rollbacks
    and WAL recoveries keep every index equal to a rebuild.  The depth
    follows ``--fuzz-rounds`` at ten examples per round (40 without it)."""
    rounds = request.config.getoption("--fuzz-rounds")

    @settings(max_examples=40 if rounds is None else 10 * rounds,
              deadline=None)
    @given(st.lists(_step, min_size=1, max_size=14))
    def check(steps):
        with tempfile.TemporaryDirectory() as directory:
            wal = os.path.join(directory, "wal.log")
            db = Database(wal_path=wal, wal_sync="off")
            try:
                db.run_script(
                    "CREATE TABLE s (id int, grp text, slot int, val float);"
                    "CREATE UNIQUE INDEX s_id ON s USING btree (id);"
                    "CREATE INDEX s_grp ON s USING btree (grp);"
                    "CREATE UNIQUE INDEX s_c ON s USING hash (grp, slot)"
                )
                for step in steps:
                    if step[0] == "savepoint":
                        before = _contents(db)
                        db.execute("BEGIN")
                        db.execute("SAVEPOINT sp")
                        for statement in step[1]:
                            _run_statement(db, statement)
                        db.execute("ROLLBACK TO SAVEPOINT sp")
                        _check_stream_state(
                            db, db._default_session.txn.catalog
                        )
                        db.execute("COMMIT")
                        assert _contents(db) == before
                    elif step[0] == "recover":
                        before = _contents(db)
                        db.close()
                        db = Database(wal_path=wal, wal_sync="off")
                        assert _contents(db) == before
                    else:
                        _run_statement(db, step)
                    _check_stream_state(db)
            finally:
                db.close()

    check()
