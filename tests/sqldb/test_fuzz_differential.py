"""Differential query fuzzing of the one plan path, with SQLite as the
oracle outside the engine.

A grammar-based generator produces random SELECTs (filters with mixed
conjuncts, inner/left joins up to three tables, group-by + having,
order-by, limit/offset) over random small tables, and every query must
return identical rows — same values, same nulls, same Python value
types — across three engine configurations:

* ``reference``: no indexes, no statistics;
* ``indexed``: after ``ANALYZE``, with secondary indexes whose set is
  churned by random CREATE/DROP INDEX between queries (index access
  paths and plan-cache epoch invalidation fire) and with ML-model churn:
  random TRAIN / DROP MODEL statements (plus DML on a scratch table
  feeding a TRAIN) interleave with the compared queries — training reads
  the shared tables and bumps catalog versions, so it must never perturb
  query results;
* ``off-spill``: the memory governor with every degradable grant denied:
  hash-join builds, aggregate and DISTINCT hash tables run over 8
  partitions and sorts over runs merged through spill files, which must
  stay byte-identical to the same operators' one-partition (in-memory)
  run.

The fourth comparison is an in-memory stdlib ``sqlite3`` database loaded
with the same rows.  Each query reaches it through :func:`sqlite_sql`, a
rendering shim that only spells out PostgreSQL's NULL order, and its rows
are compared with numbers normalised (SQLite types values by storage,
not by the query's type), minus the constructs in ``SQLITE_DIVERGENCES``.

Queries whose ORDER BY covers every output column compare as exact
sequences; all others compare as sorted multisets (SQL pins no row order
there).

Between queries the loop runs parameterised point statements on the
indexed keys (``SELECT ... WHERE a = ?``, ``a IN (?, ?)``, ``s = ?``,
``s = ? AND a = ?`` on the composite ``(s, a)`` index, and UPDATE /
DELETE by the same predicates), which the ``indexed`` config
answers through index probes bound at execution.  The bound values hit,
miss, are NULL, or are text against the numeric key (and a number
against the text key); rowcounts and the table left behind are compared
with every config and with SQLite.

The default round budget keeps this inside tier-1; CI's long run passes
``--fuzz-rounds 200`` (or more).  ``SEED_CORPUS`` replays hand-picked
regressions — queries that exercise folding and every index probe kind
plus past fuzz failures — on a fixed dataset.  The hypothesis test adds
shrinking: when a random dataset breaks a query, hypothesis minimises the
table contents.
"""

import random
import re
import sqlite3
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
    ("idx_t_sa", "CREATE INDEX idx_t_sa ON t (s, a)"),
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


#: constructs whose PostgreSQL and SQLite answers differ, as ``(name,
#: pattern over the query, why)``.  A query matching one is compared among
#: the engine configs only; the grammar stays inside the portable subset,
#: so none of them is generated today.  (Integer-vs-real typing is not on
#: the list: numbers compare by value, see :func:`_normalised`.)
SQLITE_DIVERGENCES = [
    (
        "LIKE",
        r"\bI?LIKE\b",
        "SQLite's LIKE folds ASCII case; PostgreSQL's is case-sensitive",
    ),
    (
        "% over non-integers",
        r"%",
        "SQLite casts both operands of % to integer; PostgreSQL has no % "
        "for double precision",
    ),
    (
        "division",
        r"/",
        "dividing by zero is NULL in SQLite and an error (22012) in "
        "PostgreSQL",
    ),
]

#: an ORDER BY key list: it ends at the window's ")", at LIMIT, or at the end
_ORDER_KEYS = re.compile(r"( ORDER BY )(.+?)(?=\)| LIMIT |$)")


def sqlite_sql(sql):
    """*sql* as SQLite must read it for PostgreSQL's answer: every ORDER BY
    key (a window's too) gets PostgreSQL's NULL order, last ascending and
    first descending, which SQLite reverses by default.  Keys are split at
    ", ": the grammar orders by plain columns."""

    def spell(match):
        keys = [
            key + (" NULLS FIRST" if key.endswith(" DESC") else " NULLS LAST")
            for key in match.group(2).split(", ")
        ]
        return match.group(1) + ", ".join(keys)

    return _ORDER_KEYS.sub(spell, sql)


def _sqlite_diverges(sql):
    return any(
        re.search(pattern, sql, re.IGNORECASE)
        for _, pattern, _ in SQLITE_DIVERGENCES
    )


class _Sqlite:
    """The fuzz tables in an in-memory SQLite database, behind the one
    method the comparison uses."""

    def __init__(self, t_rows, u_rows, w_rows):
        if sqlite3.sqlite_version_info < (3, 30, 0):
            pytest.fail(
                "the SQLite oracle needs SQLite >= 3.30 for NULLS FIRST / "
                f"NULLS LAST; this Python links {sqlite3.sqlite_version}"
            )
        self.connection = sqlite3.connect(":memory:")
        for name, columns, rows in (
            ("t", "a REAL, b REAL, s TEXT", t_rows),
            ("u", "a REAL, v TEXT", u_rows),
            ("w", "a REAL, m REAL", w_rows),
        ):
            self.connection.execute(f"CREATE TABLE {name} ({columns})")
            marks = ", ".join("?" for _ in rows)
            self.connection.executemany(
                f"INSERT INTO {name} VALUES ({marks})", zip(*rows)
            )

    def rows(self, sql, params=()):
        return self.connection.execute(sqlite_sql(sql), params).fetchall()

    def rowcount(self, sql, params):
        return self.connection.execute(sql, params).rowcount

    def close(self):
        self.connection.close()


def _configs(profile, t_rows, u_rows, w_rows=((), ())):
    """The engine configs as (name, db) pairs, reference first."""
    configs = [
        ("reference", Database(profile)),
        ("indexed", Database(profile)),
        ("off-spill", Database(profile, faults=_deny_all_degradable())),
    ]
    for name, db in configs:
        _load_tables(db, t_rows, u_rows, w_rows)
    indexed = configs[1][1]
    for _, create in _INDEX_POOL:
        indexed.execute(create)
    indexed.execute(
        "CREATE TABLE fz_scratch (sa double precision, sb double precision)"
    )
    indexed.execute("ANALYZE")  # unlocks statistics-gated range probes
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


def _bound_value(rng, key, t_rows):
    """A value bound to a point predicate on *key* (``a`` numeric, ``s``
    text): one *t_rows* stores, a miss, NULL, or one of the other type
    (text that does not read as a number, so SQLite's affinity leaves it
    text)."""
    roll = rng.random()
    if roll < 0.15:
        return None
    if roll < 0.3:
        return "a" if key == "a" else rng.choice([3, 0.5])
    stored = [v for v in t_rows[0 if key == "a" else 2] if v is not None]
    if stored and roll < 0.75:
        return rng.choice(stored)
    return 1000 if key == "a" else "zz"


def _point_predicate(rng, t_rows):
    """``(sql, params)`` of a point predicate on an indexed key of ``t``."""
    kind = rng.randrange(5)
    if kind == 2:
        return "s = ?", [_bound_value(rng, "s", t_rows)]
    if kind == 4:  # the composite (s, a) key: text and number parts
        return "s = ? AND a = ?", [
            _bound_value(rng, "s", t_rows), _bound_value(rng, "a", t_rows),
        ]
    a = [_bound_value(rng, "a", t_rows) for _ in range(1 + (kind == 1))]
    if kind == 0:
        return "a = ?", a
    if kind == 1:
        return "a IN (?, ?)", a
    return "a = ? AND b > ?", [*a, rng.randint(-30, 30)]


def _generate_point(rng, t_rows):
    """One parameterised point statement on ``t`` whose bound values are
    drawn against the loaded *t_rows*: ``(sql, params, is a write)``."""
    where, params = _point_predicate(rng, t_rows)
    kind = rng.randrange(4)
    if kind < 2:
        column = "ab"[kind]  # the indexed key itself, or a plain column
        sql = f"UPDATE t SET {column} = ? WHERE {where}"
        return sql, [rng.randint(-30, 30), *params], True
    if kind == 2:
        return f"DELETE FROM t WHERE {where}", params, True
    sql = f"SELECT a AS c0, b AS c1, s AS c2 FROM t WHERE {where}"
    return sql, params, False


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


def _normalised(rows, ordered):
    """Rows with every number (bool, int, float) as its float value, so a
    SQLite ``1.0`` equals the engine's ``1`` and ``True`` equals ``1``."""
    def cell(v):
        if v is None:
            return ("null",)
        if isinstance(v, (bool, int, float)):
            return ("number", float(v))
        return (type(v).__name__, v)

    values = [tuple(cell(v) for v in row) for row in rows]
    return values if ordered else sorted(values)


def _run(name, db, sql, context, params=()):
    try:
        return db.execute(sql, params)
    except Exception as exc:  # keep the failing query visible
        raise AssertionError(
            f"[{name}]{context} failed executing {sql!r} {params!r}: {exc!r}"
        ) from exc


def _check_query(configs, sql, ordered, context="", oracle=None, params=()):
    """Every config's rows equal the reference's exactly; *oracle*'s (a
    :class:`_Sqlite`) equal them with numbers normalised."""
    reference = _run(*configs[0], sql, context, params).rows
    expected = _canonical(reference, ordered)
    for name, db in configs[1:]:
        got = _canonical(_run(name, db, sql, context, params).rows, ordered)
        assert got == expected, (
            f"[{name}]{context} diverged from reference on {sql!r} {params!r}"
        )
    if oracle is None or _sqlite_diverges(sql):
        return
    try:
        rows = oracle.rows(sql, params)
    except sqlite3.Error as exc:
        raise AssertionError(
            f"[sqlite]{context} failed executing {sqlite_sql(sql)!r}: {exc!r}"
        ) from exc
    assert _normalised(rows, ordered) == _normalised(reference, ordered), (
        f"[sqlite]{context} diverged from reference on {sqlite_sql(sql)!r}"
    )


def _check_point(configs, sql, params, write, context, oracle):
    """A point statement: a SELECT compares as a query; a write's rowcount
    must agree everywhere, and so must the table it leaves."""
    if not write:
        _check_query(configs, sql, False, context, oracle, params)
        return
    counts = {
        name: _run(name, db, sql, context, params).rowcount
        for name, db in configs
    }
    counts["sqlite"] = oracle.rowcount(sql, params)
    assert len(set(counts.values())) == 1, (
        f"{context} rowcounts {counts} differ on {sql!r} {params!r}"
    )
    _check_query(
        configs, "SELECT a AS c0, b AS c1, s AS c2 FROM t", False,
        f"{context} after {sql!r} {params!r}", oracle,
    )


def _close(configs, oracle=None):
    for _, db in configs:
        db.close()
    if oracle is not None:
        oracle.close()


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
    # the portable subset the grammar leaves out, pinned against SQLite:
    # DISTINCT, integer/real arithmetic, window row_number / rank (whose
    # ORDER BY puts NULLs last, too)
    ("SELECT DISTINCT s AS c0, a AS c1 FROM t", False),
    ("SELECT a + b AS c0, a * 2 - b AS c1, -b AS c2 FROM t", False),
    (
        "SELECT s AS c0, a AS c1, b AS c2, "
        "row_number() OVER (PARTITION BY s ORDER BY a, b DESC) AS c3, "
        "rank() OVER (ORDER BY a DESC) AS c4 FROM t",
        False,
    ),
    ("SELECT k AS c0 FROM (SELECT DISTINCT a AS k FROM t) d ORDER BY k", True),
    # GROUP BY, HAVING and the select list must fold alike, or the
    # grouped expression is not found ("column 'a' does not exist")
    (
        "SELECT -1 + a AS k, count(*) AS c FROM t GROUP BY -1 + a "
        "HAVING -1 + a > 0",
        False,
    ),
    (
        "SELECT a + (2 - 1) AS k, count(*) AS c FROM t GROUP BY a + (2 - 1) "
        "HAVING a + (2 - 1) > 2",
        False,
    ),
    # constant subtrees the planner's compiler folds: functions, CASE,
    # CAST, negative literals, NULL arithmetic, NOT IN over a NULL
    ("SELECT a AS c0 FROM t WHERE abs(-3) = 3 AND coalesce(NULL, b) > -5", False),
    (
        "SELECT a AS c0, s AS c1 FROM t "
        "WHERE CASE WHEN 1 > 2 THEN 'x' ELSE 'a' END = s",
        False,
    ),
    ("SELECT a AS c0 FROM t WHERE a > CAST('-5' AS int) AND -a < 10", False),
    ("SELECT a AS c0 FROM t WHERE a >= -2 - 3 AND (NULL + 1) IS NULL", False),
    ("SELECT a AS c0 FROM t WHERE 1 NOT IN (2, NULL) OR a = 7.75", False),
    ("SELECT a AS c0 FROM t WHERE 2 NOT IN (3, NULL) OR b > 0", False),
    (
        "SELECT upper('a') || s AS c0, length('abc') + a AS c1, "
        "CASE WHEN NULL = 1 THEN 1 ELSE -1 END AS c2 FROM t",
        False,
    ),
]

#: parameterised point statements on the indexed keys, as ``(sql, params,
#: is a write)``: a bound value that hits (``t`` holds a = -1, 7.75 twice,
#: -45, -43 and s = 'a' twice, 'b', 'c'), misses, is NULL or has the other
#: type answers (and writes) as the scan does
POINT_CORPUS = [
    ("SELECT a AS c0, b AS c1, s AS c2 FROM t WHERE a = ?", [7.75], False),
    ("SELECT a AS c0, b AS c1, s AS c2 FROM t WHERE a = ?", [1000], False),
    ("SELECT a AS c0, b AS c1, s AS c2 FROM t WHERE a = ?", [None], False),
    ("SELECT a AS c0, b AS c1, s AS c2 FROM t WHERE a = ?", ["a"], False),
    ("SELECT a AS c0, b AS c1, s AS c2 FROM t WHERE a IN (?, ?)", [-1, None], False),
    ("SELECT a AS c0, b AS c1, s AS c2 FROM t WHERE a IN (?, ?)", ["a", 7.75], False),
    ("SELECT a AS c0, b AS c1, s AS c2 FROM t WHERE s = ?", ["a"], False),
    ("SELECT a AS c0, b AS c1, s AS c2 FROM t WHERE s = ?", [3], False),
    ("UPDATE t SET b = ? WHERE a = ?", [99, -1], True),
    ("UPDATE t SET b = ? WHERE a IN (?, ?)", [98, None, 7.75], True),
    ("UPDATE t SET a = ? WHERE s = ?", [-7, "c"], True),
    ("DELETE FROM t WHERE a = ?", [None], True),
    ("DELETE FROM t WHERE a IN (?, ?)", [-7, 1000], True),
    ("DELETE FROM t WHERE s = ? AND a > ?", ["a", 0], True),
    ("SELECT a AS c0, b AS c1, s AS c2 FROM t WHERE s = ? AND a = ?", ["a", 7.75], False),
    ("SELECT a AS c0, b AS c1, s AS c2 FROM t WHERE a = ? AND s = ?", [-1, "b"], False),
    ("SELECT a AS c0, b AS c1, s AS c2 FROM t WHERE s = ? AND a = ?", ["a", None], False),
    ("SELECT a AS c0, b AS c1, s AS c2 FROM t WHERE s = ? AND a = ?", [3, "a"], False),
    ("UPDATE t SET b = ? WHERE s = ? AND a = ?", [97, "c", -45], True),
    ("DELETE FROM t WHERE s = ? AND a = ?", ["b", -43], True),
]


@pytest.mark.parametrize("profile", PROFILES)
def test_seed_corpus(profile):
    rng = random.Random(4207)
    t_rows, u_rows, w_rows = _random_tables(rng)
    configs = _configs(profile, t_rows, u_rows, w_rows)
    oracle = _Sqlite(t_rows, u_rows, w_rows)
    try:
        for sql, ordered in SEED_CORPUS:
            _check_query(
                configs, sql, ordered, f" profile={profile}", oracle
            )
        for sql, params, write in POINT_CORPUS:
            _check_point(
                configs, sql, params, write, f" profile={profile}", oracle
            )
    finally:
        _close(configs, oracle)


# -- the fuzz loop ------------------------------------------------------------


@pytest.mark.parametrize("profile", PROFILES)
def test_fuzz_differential(profile, fuzz_rounds):
    """``fuzz_rounds`` random queries, re-rolling the dataset every 10."""
    rng = random.Random(20260805 + _PROFILE_SALT[profile])
    remaining = fuzz_rounds
    while remaining > 0:
        t_rows, u_rows, w_rows = _random_tables(rng)
        configs = _configs(profile, t_rows, u_rows, w_rows)
        indexed = dict(configs)["indexed"]
        oracle = _Sqlite(t_rows, u_rows, w_rows)
        try:
            for _ in range(min(10, remaining)):
                if rng.random() < 0.3:
                    _churn_indexes(indexed, rng)
                if rng.random() < 0.3:
                    _churn_models(indexed, rng)
                if rng.random() < 0.3:
                    _check_point(
                        configs, *_generate_point(rng, t_rows),
                        f" profile={profile}",
                        oracle,
                    )
                sql, ordered = _generate_query(rng)
                _check_query(
                    configs, sql, ordered, f" profile={profile}", oracle
                )
        finally:
            _close(configs, oracle)
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
    oracle = _Sqlite(t_rows, u_rows, w_rows)
    rng = random.Random(query_seed)
    try:
        for _ in range(3):
            sql, ordered = _generate_query(rng)
            _check_query(
                configs, sql, ordered, f" profile={profile}", oracle
            )
    finally:
        _close(configs, oracle)


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
        primary_db = Database("postgres")
        _load_tables(primary_db, t_rows, u_rows, w_rows)
        primary_db.execute("ANALYZE")
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
