"""Differential query fuzzing for the statistics-driven rewrite layer.

A grammar-based generator produces random SELECTs (filters with mixed
conjuncts, inner/left joins up to three tables, group-by + having,
order-by, limit/offset) over random small tables, and every query must
return identical rows — same values, same nulls, same Python value
types — across five engine configurations:

* the reference with the optimizer off,
* the optimizer on, after ``ANALYZE``,
* the optimizer on with secondary indexes, whose set is churned by
  random CREATE/DROP INDEX between queries (index-aware access paths,
  index-nested-loop joins and plan-cache epoch invalidation all fire),
* the optimizer on with ML-model churn: random TRAIN / DROP MODEL
  statements (plus DML on a scratch table feeding a TRAIN) interleave
  with the compared queries — training reads the shared tables and
  bumps catalog versions, so it must never perturb query results,
* the memory governor with every degradable grant denied: hash-join
  builds, aggregate and DISTINCT hash tables run over 8 partitions and
  sorts over runs merged through spill files, which must stay
  byte-identical to the same operators' one-partition (in-memory) run.

Queries whose ORDER BY covers every output column compare as exact
sequences; all others compare as sorted multisets (the rewrite layer is
allowed to change row order only where SQL does not pin one).

The default round budget keeps this inside tier-1; CI's long run passes
``--fuzz-rounds 200`` (or more).  ``SEED_CORPUS`` replays hand-picked
regressions — queries that exercise every rewrite rule plus past fuzz
failures — on a fixed dataset.  The hypothesis test adds shrinking: when
a random dataset breaks a query, hypothesis minimises the table contents.
"""

import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SQLExecutionError
from repro.sqldb import Database
from repro.sqldb.faults import Faults

pytestmark = pytest.mark.fuzz

PROFILES = ["postgres", "umbra"]
_PROFILE_SALT = {"postgres": 0, "umbra": 1}


@pytest.fixture
def fuzz_rounds(request):
    value = request.config.getoption("--fuzz-rounds")
    return value if value is not None else 30


# -- data ---------------------------------------------------------------------


def _random_tables(rng):
    def num_col(n):
        return [
            rng.choice([None, rng.randint(-50, 50), 0.5, -2.25, 7.75])
            for _ in range(n)
        ]

    def text_col(n):
        return [rng.choice([None, "a", "b", "c", "d"]) for _ in range(n)]

    nt = rng.randint(0, 30)
    nu = rng.randint(0, 20)
    nw = rng.randint(0, 15)
    t_rows = (num_col(nt), num_col(nt), text_col(nt))
    u_rows = (num_col(nu), text_col(nu))
    w_rows = (num_col(nw), num_col(nw))
    return t_rows, u_rows, w_rows


def _load_tables(db, t_rows, u_rows, w_rows=((), ())):
    db.execute("CREATE TABLE t (a double precision, b double precision, s text)")
    db.execute("CREATE TABLE u (a double precision, v text)")
    db.execute("CREATE TABLE w (a double precision, m double precision)")
    if t_rows[0]:
        db.catalog.table("t").append_columns(
            {"a": list(t_rows[0]), "b": list(t_rows[1]), "s": list(t_rows[2])},
            len(t_rows[0]),
        )
    if u_rows[0]:
        db.catalog.table("u").append_columns(
            {"a": list(u_rows[0]), "v": list(u_rows[1])}, len(u_rows[0])
        )
    if w_rows[0]:
        db.catalog.table("w").append_columns(
            {"a": list(w_rows[0]), "m": list(w_rows[1])}, len(w_rows[0])
        )
    db.catalog.bump_version()


#: (index name, CREATE statement) pool the fuzz loop churns through; no
#: unique indexes — the random data is full of duplicates
_INDEX_POOL = [
    ("idx_t_a", "CREATE INDEX idx_t_a ON t (a)"),
    ("idx_t_s", "CREATE INDEX idx_t_s ON t USING hash (s)"),
    ("idx_t_ab", "CREATE INDEX idx_t_ab ON t (a, b)"),
    ("idx_u_a", "CREATE INDEX idx_u_a ON u (a)"),
    ("idx_w_a", "CREATE INDEX idx_w_a ON w (a)"),
]


def _churn_indexes(db, rng):
    """Randomly create or drop one index from the pool (idempotent)."""
    name, create = rng.choice(_INDEX_POOL)
    if rng.random() < 0.5:
        db.execute(f"DROP INDEX IF EXISTS {name}")
    elif not db.catalog.has_index(name):
        db.execute(create)


#: TRAIN statements the model-churn config cycles through; cheap iteration
#: budgets — the point is interleaving, not convergence
_TRAIN_POOL = [
    "TRAIN fz_lin USING (SELECT a, b FROM t "
    "WHERE a IS NOT NULL AND b IS NOT NULL) "
    "WITH (estimator = 'linear_regression', max_iter = 2)",
    "TRAIN fz_tree USING (SELECT a, "
    "CASE WHEN b > 0 THEN 1 ELSE 0 END AS lbl FROM t WHERE a IS NOT NULL) "
    "WITH (estimator = 'decision_tree', max_depth = 2)",
    "TRAIN fz_scr USING (SELECT sa, sb FROM fz_scratch) "
    "WITH (estimator = 'linear_regression', max_iter = 1)",
]


def _churn_models(db, rng):
    """Random TRAIN / DROP MODEL / scratch-table DML on one config.

    Models train over the *shared* tables (and a private scratch table
    fed by DML here), so catalog-version bumps, plan-cache invalidation
    and the TRAIN read path all interleave with the compared queries.
    Degenerate datasets (no rows after filtering) are legal no-ops.
    """
    roll = rng.random()
    if roll < 0.3:
        db.execute(
            "DROP MODEL IF EXISTS "
            + rng.choice(["fz_lin", "fz_tree", "fz_scr"])
        )
        return
    if roll < 0.5:
        db.execute(
            "INSERT INTO fz_scratch VALUES (?, ?)",
            (float(rng.randint(-20, 20)), float(rng.randint(-20, 20))),
        )
        return
    try:
        db.execute(rng.choice(_TRAIN_POOL))
    except SQLExecutionError:
        pass  # empty training set — fine, nothing was trained


def _deny_all_degradable():
    """Every degradable memory grant is denied: operators always partition."""
    faults = Faults()
    for point in ("sort.buffer", "join.build", "agg.hashtable",
                  "distinct.hashtable"):
        faults.arm(point, "deny", hits=None)
    return faults


def _configs(profile, t_rows, u_rows, w_rows=((), ())):
    """(name, db) pairs: the optimizer-off reference first."""
    configs = [
        ("reference", Database(profile)),
        ("opt-serial", Database(profile, optimize=True)),
        ("opt-indexed", Database(profile, optimize=True)),
        ("opt-models", Database(profile, optimize=True)),
        ("off-spill", Database(profile, faults=_deny_all_degradable())),
    ]
    for name, db in configs:
        _load_tables(db, t_rows, u_rows, w_rows)
        if name == "opt-indexed":
            for _, create in _INDEX_POOL:
                db.execute(create)
        if name == "opt-models":
            db.execute(
                "CREATE TABLE fz_scratch "
                "(sa double precision, sb double precision)"
            )
        if name.startswith("opt"):
            db.analyze()  # unlocks the statistics-gated rewrites
    return configs


# -- query grammar ------------------------------------------------------------

_NUM_OPS = ["=", "<>", "<", "<=", ">", ">="]
_FOLDABLE = ["1 = 1", "2 > 3", "1 + 1 = 2", "NULL IS NULL", "5 BETWEEN 1 AND 10"]


def _num_lit(rng):
    return str(rng.choice([rng.randint(-30, 30), 0.5, -2.25, 7.75]))


def _text_lit(rng):
    return "'" + rng.choice(["a", "b", "c", "d"]) + "'"


def _predicate(rng, num_cols, text_cols, depth=0):
    roll = rng.random()
    if depth < 2 and roll < 0.20:
        op = rng.choice(["AND", "OR"])
        left = _predicate(rng, num_cols, text_cols, depth + 1)
        right = _predicate(rng, num_cols, text_cols, depth + 1)
        return f"({left} {op} {right})"
    if depth < 2 and roll < 0.27:
        return "NOT (" + _predicate(rng, num_cols, text_cols, depth + 1) + ")"
    kind = rng.randrange(6)
    if kind == 0:
        return f"{rng.choice(num_cols)} {rng.choice(_NUM_OPS)} {_num_lit(rng)}"
    if kind == 1:
        return f"{rng.choice(text_cols)} {rng.choice(['=', '<>'])} {_text_lit(rng)}"
    if kind == 2:
        col = rng.choice(num_cols + text_cols)
        negated = "NOT " if rng.random() < 0.5 else ""
        return f"{col} IS {negated}NULL"
    if kind == 3:
        items = ", ".join(_num_lit(rng) for _ in range(rng.randint(1, 4)))
        return f"{rng.choice(num_cols)} IN ({items})"
    if kind == 4:
        lo, hi = sorted(rng.randint(-30, 30) for _ in range(2))
        return f"{rng.choice(num_cols)} BETWEEN {lo} AND {hi}"
    return rng.choice(_FOLDABLE)


def _where(rng, num_cols, text_cols):
    n = rng.randint(0, 3)
    if n == 0:
        return ""
    parts = [_predicate(rng, num_cols, text_cols) for _ in range(n)]
    return " WHERE " + " AND ".join(parts)


def _generate_query(rng):
    """One random SELECT; returns ``(sql, ordered)`` where *ordered* means
    the ORDER BY covers every output column (exact-sequence comparison)."""
    shape = rng.randrange(5)
    if shape == 0:
        source, num_cols, text_cols = "t", ["a", "b"], ["s"]
    elif shape == 1:
        source = "t JOIN u ON t.a = u.a"
        num_cols, text_cols = ["t.a", "t.b", "u.a"], ["t.s", "u.v"]
    elif shape == 2:
        source = "t LEFT JOIN u ON t.a = u.a"
        num_cols, text_cols = ["t.a", "t.b", "u.a"], ["t.s", "u.v"]
    elif shape == 3:
        source = "t JOIN u ON t.a = u.a JOIN w ON t.a = w.a"
        num_cols = ["t.a", "t.b", "u.a", "w.m"]
        text_cols = ["t.s", "u.v"]
    else:
        source = "t JOIN u ON t.a = u.a LEFT JOIN w ON u.a = w.a"
        num_cols = ["t.a", "t.b", "u.a", "w.m"]
        text_cols = ["t.s", "u.v"]
    where = _where(rng, num_cols, text_cols)

    if rng.random() < 0.3:  # aggregation shape
        key = rng.choice(text_cols)
        measure = rng.choice(num_cols)
        having = " HAVING count(*) > 1" if rng.random() < 0.4 else ""
        sql = (
            f"SELECT {key} AS g, count(*) AS c, sum({measure}) AS s1, "
            f"min({measure}) AS lo, max({measure}) AS hi "
            f"FROM {source}{where} GROUP BY {key}{having} ORDER BY {key}"
        )
        return sql, True

    columns = rng.sample(num_cols + text_cols, rng.randint(1, 3))
    items = ", ".join(f"{col} AS c{i}" for i, col in enumerate(columns))
    sql = f"SELECT {items} FROM {source}{where}"
    ordered = rng.random() < 0.6
    if ordered:
        keys = ", ".join(
            col + rng.choice(["", " DESC"]) for col in columns
        )
        sql += f" ORDER BY {keys}"
        if rng.random() < 0.4:
            sql += f" LIMIT {rng.randint(1, 10)}"
            if rng.random() < 0.5:
                sql += f" OFFSET {rng.randint(0, 5)}"
    return sql, ordered


# -- comparison ---------------------------------------------------------------


def _canonical(rows, ordered):
    typed = [tuple((type(v).__name__, repr(v)) for v in row) for row in rows]
    return typed if ordered else sorted(typed)


def _check_query(configs, sql, ordered, context=""):
    expected = None
    for name, db in configs:
        try:
            rows = db.execute(sql).rows
        except Exception as exc:  # keep the failing query visible
            raise AssertionError(
                f"[{name}]{context} failed executing {sql!r}: {exc!r}"
            ) from exc
        got = _canonical(rows, ordered)
        if expected is None:
            expected = got
        else:
            assert got == expected, (
                f"[{name}]{context} diverged from reference on {sql!r}"
            )


def _close(configs):
    for _, db in configs:
        db.close()


# -- seed corpus --------------------------------------------------------------

# Hand-picked regressions: one query per rewrite rule plus the shapes the
# fuzzer found worth pinning.  Append past fuzz failures here verbatim.
SEED_CORPUS = [
    ("SELECT a AS c0, b AS c1, s AS c2 FROM t WHERE 1 = 1", False),
    ("SELECT a AS c0 FROM t WHERE a > 0 AND 2 > 3", False),
    ("SELECT a AS c0 FROM t WHERE s = 'a' OR 1 = 1", False),
    ("SELECT a AS c0 FROM t WHERE NOT (a > 0)", False),
    ("SELECT -a AS c0 FROM t WHERE a IS NOT NULL ORDER BY a DESC", False),
    (
        "SELECT t.a AS c0, u.v AS c1 FROM t LEFT JOIN u ON t.a = u.a "
        "WHERE t.b > 0",
        False,
    ),
    (
        "SELECT t.a AS c0, u.v AS c1 FROM t JOIN u ON t.a = u.a "
        "WHERE u.v = 'b' AND t.b <= 10",
        False,
    ),
    (
        "SELECT s AS g, count(*) AS c FROM t GROUP BY s "
        "HAVING count(*) > 1 ORDER BY s",
        True,
    ),
    ("SELECT a AS c0 FROM t WHERE a IN (1, 2, 3) AND b BETWEEN -5 AND 5", False),
    ("SELECT a AS c0 FROM t WHERE a IS NULL OR b IS NOT NULL", False),
    ("SELECT a AS c0, b AS c1 FROM t ORDER BY a DESC, b LIMIT 3 OFFSET 1", True),
    (
        "SELECT t.s AS g, count(*) AS c, sum(t.b) AS s1, min(u.a) AS lo, "
        "max(u.a) AS hi FROM t JOIN u ON t.a = u.a WHERE u.a BETWEEN -20 AND 20 "
        "GROUP BY t.s ORDER BY t.s",
        True,
    ),
    (
        "SELECT t.a AS c0, w.m AS c1 FROM t JOIN u ON t.a = u.a "
        "JOIN w ON t.a = w.a WHERE t.s = 'a'",
        False,
    ),
    (
        "SELECT t.a AS c0, u.v AS c1, w.m AS c2 FROM t JOIN u ON t.a = u.a "
        "LEFT JOIN w ON u.a = w.a WHERE t.a IN (0, 1, 2) OR t.b < 0",
        False,
    ),
    # fuzz 2026-08-08: duplicate IN-list literals must not duplicate rows
    # through an index probe (IN is a set predicate)
    (
        "SELECT s AS c0, a AS c1 FROM t WHERE a BETWEEN -21 AND 7 "
        "AND b IS NOT NULL AND a IN (-2.25, -2.25) ORDER BY s, a DESC",
        True,
    ),
]


@pytest.mark.parametrize("profile", PROFILES)
def test_seed_corpus(profile):
    rng = random.Random(4207)
    t_rows, u_rows, w_rows = _random_tables(rng)
    configs = _configs(profile, t_rows, u_rows, w_rows)
    try:
        for sql, ordered in SEED_CORPUS:
            _check_query(configs, sql, ordered, context=f" profile={profile}")
    finally:
        _close(configs)


# -- the fuzz loop ------------------------------------------------------------


@pytest.mark.parametrize("profile", PROFILES)
def test_fuzz_differential(profile, fuzz_rounds):
    """``fuzz_rounds`` random queries, re-rolling the dataset every 10."""
    rng = random.Random(20260805 + _PROFILE_SALT[profile])
    remaining = fuzz_rounds
    while remaining > 0:
        t_rows, u_rows, w_rows = _random_tables(rng)
        configs = _configs(profile, t_rows, u_rows, w_rows)
        indexed = dict(configs)["opt-indexed"]
        modelled = dict(configs)["opt-models"]
        try:
            for _ in range(min(10, remaining)):
                if rng.random() < 0.3:
                    _churn_indexes(indexed, rng)
                if rng.random() < 0.3:
                    _churn_models(modelled, rng)
                sql, ordered = _generate_query(rng)
                _check_query(
                    configs, sql, ordered, context=f" profile={profile}"
                )
        finally:
            _close(configs)
        remaining -= 10


# -- hypothesis: shrinkable datasets -----------------------------------------

numeric = st.one_of(
    st.none(),
    st.integers(min_value=-50, max_value=50),
    st.sampled_from([0.5, -2.25, 7.75]),
)
text = st.one_of(st.none(), st.sampled_from(["a", "b", "c", "d"]))


@st.composite
def fuzz_tables(draw):
    nt = draw(st.integers(min_value=0, max_value=20))
    nu = draw(st.integers(min_value=0, max_value=12))
    nw = draw(st.integers(min_value=0, max_value=10))
    t_rows = (
        draw(st.lists(numeric, min_size=nt, max_size=nt)),
        draw(st.lists(numeric, min_size=nt, max_size=nt)),
        draw(st.lists(text, min_size=nt, max_size=nt)),
    )
    u_rows = (
        draw(st.lists(numeric, min_size=nu, max_size=nu)),
        draw(st.lists(text, min_size=nu, max_size=nu)),
    )
    w_rows = (
        draw(st.lists(numeric, min_size=nw, max_size=nw)),
        draw(st.lists(numeric, min_size=nw, max_size=nw)),
    )
    return t_rows, u_rows, w_rows


@given(tables=fuzz_tables(), query_seed=st.integers(min_value=0, max_value=10**6))
@settings(max_examples=10, deadline=None)
@pytest.mark.parametrize("profile", PROFILES)
def test_fuzz_differential_shrinking(profile, tables, query_seed):
    """Hypothesis drives the dataset so failures shrink to minimal tables."""
    t_rows, u_rows, w_rows = tables
    configs = _configs(profile, t_rows, u_rows, w_rows)
    rng = random.Random(query_seed)
    try:
        for _ in range(3):
            sql, ordered = _generate_query(rng)
            _check_query(configs, sql, ordered, context=f" profile={profile}")
    finally:
        _close(configs)


# -- replica differential -----------------------------------------------------
#
# A streaming replica, once its lag drains, must answer every generated
# query byte-identically to an in-process reference over the same data —
# the replication twin of the config matrix above.  The replica
# bootstraps from a snapshot (the dataset loads bypass SQL, so only the
# snapshot can carry them) and then applies a few SQL writes off the
# live stream before each comparison batch.


@pytest.mark.server
@pytest.mark.replication
def test_fuzz_differential_replica(fuzz_rounds):
    from repro.sqldb import client as sql_client
    from repro.sqldb.replication import Primary, Replica

    def drained(primary, replica):
        return (
            replica.database.last_applied_commit_id
            >= primary.manager.last_commit_id
        )

    def wait_drained(primary, replica, timeout=30.0):
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            if drained(primary, replica):
                return True
            time.sleep(0.005)
        return False

    rng = random.Random(20260808)
    remaining = fuzz_rounds
    while remaining > 0:
        t_rows, u_rows, w_rows = _random_tables(rng)
        reference = Database("postgres")
        _load_tables(reference, t_rows, u_rows, w_rows)
        primary_db = Database("postgres", optimize=True)
        _load_tables(primary_db, t_rows, u_rows, w_rows)
        primary_db.analyze()
        primary = Primary(primary_db, host="127.0.0.1", port=0).start()
        replica = Replica(primary.address, name="fuzz-replica").start()
        conn = None
        try:
            assert wait_drained(primary, replica)
            conn = sql_client.connect(*replica.address)
            for _ in range(min(10, remaining)):
                # a couple of live writes ride the stream between
                # compared queries (applied to the reference too)
                for _ in range(rng.randint(0, 2)):
                    a = rng.randint(-20, 20)
                    b = rng.choice([rng.randint(-20, 20), 0.5, -2.25])
                    s = rng.choice(["a", "b", "c", "d"])
                    dml = f"INSERT INTO t VALUES ({a}, {b}, '{s}')"
                    reference.execute(dml)
                    primary_db.execute(dml)
                assert wait_drained(primary, replica)
                sql, ordered = _generate_query(rng)
                expected = _canonical(reference.execute(sql).rows, ordered)
                got = _canonical(conn.run_script(sql)[-1].rows, ordered)
                assert got == expected, (
                    f"replica diverged from reference on {sql!r}"
                )
        finally:
            if conn is not None:
                conn.close()
            replica.close()
            primary.kill()
            primary_db.close()
            reference.close()
        remaining -= 10
