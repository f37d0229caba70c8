"""Dictionary-coded text and direct-address keys against the object-array
path they replaced (``old_text_path``), kept as a hypothesis oracle.

Two levels.  Kernel level: COPY's text typing, ``group_codes``, the
per-distinct cell codes and the join positions (factorisation plus
equi-join) over random text and integer columns must equal the old
functions' over the same cells held as object arrays — codes, first
rows, row order, NULL masks.  SQL level: every operator that meets text
(GROUP BY, DISTINCT, inner/left/full/null-safe joins, UNION ALL, ORDER BY,
``||``, LIKE, CAST, IN, comparisons, min/max) answers a query the way
the old path computes it, over tables whose dictionaries hold entries no
visible row uses (after a filter, a DELETE or a ROLLBACK).  Cells mix
NULL with ``''``, equal strings held as distinct objects, and unicode.

The hypothesis depth follows ``--fuzz-rounds`` at ten examples per round.
"""

from __future__ import annotations

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SQLExecutionError
from repro.sqldb import Database, executor, hashing
from repro.sqldb.catalog import CsvColumn
from repro.sqldb.executor import _equi_join_positions
from repro.sqldb.vector import (
    Vector,
    _cell_codes,
    concat_vectors,
    from_values,
    gather,
)

from tests.sqldb import old_text_path as old

pytestmark = pytest.mark.fuzz

WORDS = ["", "a", "b", "ab", "A", "é", "日本", "x y", "%", "_a", "1", "2.5",
         "true", "NA"]


def _fresh(word):
    """An equal string that is a distinct object (as csv.reader yields)."""
    return None if word is None else "".join(list(word)) or ""


def _examples(request, per_round=10):
    rounds = request.config.getoption("--fuzz-rounds")
    return per_round * (rounds if rounds is not None else 3)


_CELLS = st.lists(st.sampled_from([None, *WORDS]), max_size=30).map(
    lambda cells: [_fresh(c) for c in cells]
)


def _objects(cells):
    values = np.empty(len(cells), dtype=object)
    values[:] = cells
    return Vector(values, np.array([c is None for c in cells], dtype=bool))


def _coded(cells, unused=("unused", "zz")):
    """The engine's text vector of *cells*, its dictionary holding
    entries no row uses."""
    stored = from_values([*unused, *cells, "tail"])
    return gather(stored, np.arange(len(unused), len(unused) + len(cells)))


# -- kernel level -----------------------------------------------------------------


def test_copy_text_typing_matches_the_object_path(request):
    @settings(max_examples=_examples(request), deadline=None)
    @given(
        chunks=st.lists(st.lists(st.sampled_from(WORDS), max_size=9),
                        max_size=4),
        null_text=st.sampled_from(["", "NA", "\\N"]),
    )
    def check(chunks, null_text):
        chunks = [[_fresh(c) for c in chunk] for chunk in chunks]
        new, reference = CsvColumn("c", "text", null_text), old.OldCsvText(null_text)
        for chunk in chunks:
            new.add(chunk)
            reference.add(chunk)
        got, want = new.vector(), reference.vector()
        assert got.is_text and got.values.dtype == np.int32
        assert got.nulls.tolist() == want.nulls.tolist()
        assert got.tolist() == want.values.tolist()
        present = want.values[~want.nulls].tolist()
        assert got.dictionary.tolist() == list(dict.fromkeys(present))

    check()


def test_group_codes_match_the_object_path(request):
    @settings(max_examples=_examples(request), deadline=None)
    @given(data=st.data())
    def check(data):
        n = data.draw(st.integers(0, 30))
        columns = data.draw(st.lists(
            st.lists(st.sampled_from([None, *WORDS]), min_size=n, max_size=n),
            min_size=1, max_size=3,
        ))
        numbers = data.draw(st.lists(
            st.sampled_from([None, 0.0, 1.0, 2.0, 7.0, -3.0, 2.5, 1e6]),
            min_size=n, max_size=n,
        ))
        new = [_coded([_fresh(c) for c in cells]) for cells in columns]
        reference = [_objects([_fresh(c) for c in cells]) for cells in columns]
        number_vector = from_values(numbers) if n else Vector(
            np.zeros(0), np.zeros(0, dtype=bool)
        )
        if any(v is not None for v in numbers):
            new.insert(1, number_vector)
            reference.insert(1, number_vector)
        codes, firsts = hashing.group_codes(new)
        want_codes, want_firsts = old.group_codes(reference)
        assert codes.tolist() == want_codes.tolist()
        assert firsts.tolist() == want_firsts.tolist()

    check()


def test_cell_codes_match_the_object_codes(request):
    @settings(max_examples=_examples(request), deadline=None)
    @given(cells=_CELLS, data=st.data())
    def check(cells, data):
        rows = np.array(
            data.draw(st.lists(st.integers(0, max(len(cells) - 1, 0)),
                               max_size=len(cells))) if cells else [],
            dtype=np.int64,
        )
        codes, n = _cell_codes(_coded(cells), rows)
        picked = [cells[i] for i in rows.tolist()]
        present = [c for c in picked if c is not None]
        want, k = old.object_codes(present)
        full = np.full(len(picked), k, dtype=np.int64)
        full[[c is not None for c in picked]] = want
        assert codes.tolist() == full.tolist()
        assert n == k + (None in picked)

    check()


def _join_rows(new_pairs, old_pairs, null_safe, kind):
    lc, rc = hashing.factorize_columns(new_pairs, null_safe)
    got = _equi_join_positions(lc, rc, kind)
    olc, orc = old.factorize_columns(old_pairs, null_safe)
    want = old.equi_join_positions(olc, orc, kind)
    assert got[0].tolist() == want[0].tolist()
    assert got[1].tolist() == want[1].tolist()


def test_join_positions_match_the_object_path(request):
    @settings(max_examples=_examples(request), deadline=None)
    @given(
        left=_CELLS, right=_CELLS,
        kind=st.sampled_from(["inner", "left", "right", "full"]),
        null_safe=st.booleans(),
    )
    def check(left, right, kind, null_safe):
        if not left or not right:
            return
        _join_rows(
            [(_coded(left), _coded(right, unused=("b", "q")))],
            [(_objects(left), _objects(right))],
            [null_safe], kind,
        )

    check()


def _int_keys(draw, n, shape):
    if shape == "dense":
        keys = draw(st.permutations(list(range(n))))
    elif shape == "sparse":
        keys = [k * 1000 for k in draw(st.permutations(list(range(n))))]
    else:  # duplicate build keys
        keys = draw(st.lists(st.integers(0, 4), min_size=n, max_size=n))
    holes = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    return [None if hole and i % 3 == 0 else float(k)
            for i, (k, hole) in enumerate(zip(keys, holes))]


def test_integer_joins_match_the_sorting_path(request):
    """Dense, sparse and duplicated integer keys, direct-addressed or
    not, give the sort-based join's positions; so do two-column keys."""
    @settings(max_examples=_examples(request), deadline=None)
    @given(
        data=st.data(),
        shape=st.sampled_from(["dense", "sparse", "duplicates"]),
        kind=st.sampled_from(["inner", "left", "right", "full"]),
    )
    def check(data, shape, kind):
        n_left = data.draw(st.integers(1, 25))
        n_right = data.draw(st.integers(1, 25))
        left = from_values(_int_keys(data.draw, n_left, "duplicates"))
        right = from_values(_int_keys(data.draw, n_right, shape))
        _join_rows([(left, right)], [(left, right)], [False], kind)
        text = [_fresh(data.draw(st.sampled_from(WORDS))) for _ in range(n_right)]
        texts = [_fresh(data.draw(st.sampled_from(WORDS))) for _ in range(n_left)]
        _join_rows(
            [(left, right), (_coded(texts), _coded(text))],
            [(left, right), (_objects(texts), _objects(text))],
            [False, True], kind,
        )

    check()


def test_extending_a_dictionary_twice_keeps_both_extensions():
    """Dictionaries are append-only and shared: a second extension of
    the same prefix (a rollback, or a write after a query merged in a
    literal) must not overwrite the entries the first one appended."""
    base = from_values(["a", "b", None])
    first = concat_vectors([base, from_values(["x", "a"])])
    second = concat_vectors([base, from_values(["y"])])
    third = concat_vectors([first, from_values(["z", "y"])])
    assert first.tolist() == ["a", "b", None, "x", "a"]
    assert second.tolist() == ["a", "b", None, "y"]
    assert third.tolist() == ["a", "b", None, "x", "a", "z", "y"]
    for vector in (first, second, third):
        words = vector.dictionary.tolist()
        assert len(set(words)) == len(words)


def test_fractional_keys_are_never_offset_coded():
    """``value - min`` codes only integral keys: 2.0 and 2.5 (offsets 5
    and 5.5 from -3) must stay two groups and never join."""
    keys = from_values([2.0, 2.5, -3.0, 2.0, None, 2.5])
    codes, firsts = hashing.group_codes([keys])
    want_codes, want_firsts = old.group_codes([keys])
    assert codes.tolist() == want_codes.tolist()
    assert firsts.tolist() == want_firsts.tolist()
    _join_rows([(keys, from_values([2.5, 7.0]))],
               [(keys, from_values([2.5, 7.0]))], [False], "left")


# -- SQL level --------------------------------------------------------------------


def _like(subject, pattern):
    regex = "".join(
        ".*" if ch == "%" else "." if ch == "_" else re.escape(ch)
        for ch in pattern
    )
    return re.fullmatch(regex, subject, re.DOTALL) is not None


@st.composite
def _tables(draw):
    n = draw(st.integers(0, 16))
    rows = [
        (i, _fresh(draw(st.sampled_from([None, *WORDS]))),
         _fresh(draw(st.sampled_from([None, *WORDS]))))
        for i in range(n)
    ]
    m = draw(st.integers(0, 10))
    other = [(i, _fresh(draw(st.sampled_from([None, *WORDS])))) for i in range(m)]
    churn = draw(st.sampled_from(["none", "delete", "rollback", "update"]))
    where = draw(st.sampled_from(["", " WHERE id % 2 = 0", " WHERE id > 3"]))
    return rows, other, churn, where


def _load(rows, other, churn):
    db = Database("postgres")
    db.run_script("CREATE TABLE t (id int, s text, g text);"
                  "CREATE TABLE u (id int, s text)")
    if churn == "delete":  # rows whose strings stay in the dictionary
        db.executemany("INSERT INTO t VALUES (?, ?, ?)",
                       [(100 + i, f"gone-{i}", "gone") for i in range(3)])
        db.execute("DELETE FROM t WHERE id >= 100")
    db.executemany("INSERT INTO t VALUES (?, ?, ?)", rows)
    db.executemany("INSERT INTO u VALUES (?, ?)", other)
    if churn == "rollback":  # the rolled-back strings' codes are reused
        db.execute("BEGIN")
        db.executemany("INSERT INTO t VALUES (?, ?, ?)",
                       [(200, "rolled", "back"), (201, "é", None)])
        db.execute("ROLLBACK")
        db.executemany("INSERT INTO u VALUES (?, ?)", [(50, "after"), (51, "a")])
        other = other + [(50, "after"), (51, "a")]
    if churn == "update":
        db.execute("UPDATE t SET g = 'upd' WHERE id % 3 = 1")
        rows = [(i, s, "upd" if i % 3 == 1 else g) for i, s, g in rows]
    return db, rows, other


def _visible(rows, where):
    if where == " WHERE id % 2 = 0":
        return [r for r in rows if r[0] % 2 == 0]
    if where == " WHERE id > 3":
        return [r for r in rows if r[0] > 3]
    return rows


def _grouped(vectors, cells):
    codes, firsts = old.group_codes([_objects(c) for c in vectors])
    return codes, firsts.tolist()


def _check_sql(db, rows, other, where):
    sel = _visible(rows, where)
    ids = [r[0] for r in sel]
    s = [r[1] for r in sel]
    g = [r[2] for r in sel]

    # GROUP BY / DISTINCT: old group order (first occurrence for text)
    codes, firsts = _grouped([s], s)
    counts = np.bincount(codes, minlength=len(firsts)).tolist() if sel else []
    got = db.execute(f"SELECT s, count(*) FROM t{where} GROUP BY s").rows
    assert got == [(s[f], c) for f, c in zip(firsts, counts)]
    codes, firsts = _grouped([s, g], s)
    got = db.execute(f"SELECT DISTINCT s, g FROM t{where}").rows
    assert got == ([(s[f], g[f]) for f in firsts] if sel else [])
    got = db.execute(f"SELECT g, min(s), max(s) FROM t{where} GROUP BY g").rows
    codes, firsts = _grouped([g], g)
    want = []
    for group, first in enumerate(firsts):
        members = [x for x, c in zip(s, codes.tolist()) if c == group and x is not None]
        want.append((g[first], min(members, default=None), max(members, default=None)))
    assert got == want

    # joins, the null-safe form and UNION ALL
    u_ids = [r[0] for r in other]
    u_s = [r[1] for r in other]
    sub = f"(SELECT * FROM t{where}) x"
    for kind, sql_kind in (("inner", "JOIN"), ("left", "LEFT JOIN"),
                           ("full", "FULL JOIN")):
        for null_safe in (False, True):
            on = "x.s = u.s" + (" OR (x.s IS NULL AND u.s IS NULL)" if null_safe else "")
            got = db.execute(
                f"SELECT x.id, u.id FROM {sub} {sql_kind} u ON {on}"
            ).rows
            if not sel or not other:
                continue
            lc, rc = old.factorize_columns(
                [(_objects(s), _objects(u_s))], [null_safe]
            )
            lp, rp = old.equi_join_positions(lc, rc, kind)
            want = [
                (ids[a] if a >= 0 else None, u_ids[b] if b >= 0 else None)
                for a, b in zip(lp.tolist(), rp.tolist())
            ]
            assert got == want, (kind, null_safe)
    got = db.execute(f"SELECT s FROM t{where} UNION ALL SELECT s FROM u").rows
    assert got == [(x,) for x in s + u_s]

    # ORDER BY text DESC (NULLS FIRST), ties by id
    got = db.execute(f"SELECT id, s FROM t{where} ORDER BY s DESC, id").rows
    want = sorted(sorted(zip(ids, s)), key=lambda r: (r[1] is None, r[1] or ""),
                  reverse=True)
    assert got == want

    # scalar operators, row by row
    got = db.execute(
        f"SELECT s || g, s LIKE 'a%', CAST(s AS text), s IN ('a', 'é', ''), "
        f"s < g, s = g, s <> 'a' FROM t{where}"
    ).rows
    want = []
    for x, y in zip(s, g):
        both = x is not None and y is not None
        want.append((
            x + y if both else None,
            _like(x, "a%") if x is not None else None,
            x,
            x in ("a", "é", "") if x is not None else None,
            x < y if both else None,
            x == y if both else None,
            x != "a" if x is not None else None,
        ))
    assert got == want

    # CAST to a number: the first bad visible row raises, hidden ones never
    bad = next((x for x in s if x is not None and not _is_number(x)), None)
    sql = f"SELECT CAST(s AS float) FROM t{where}"
    if bad is None:
        assert db.execute(sql).rows == [
            (None if x is None else _number(float(x)),) for x in s
        ]
    else:
        with pytest.raises(SQLExecutionError) as raised:
            db.execute(sql)
        assert raised.value.sqlstate == "22P02"
        assert str(raised.value) == f"cannot interpret {bad!r} as a number"


def _is_number(text):
    try:
        float(text)
    except ValueError:
        return False
    return True


def _number(value):
    return int(value) if value.is_integer() else value


def test_sql_operators_match_the_object_path(request):
    @settings(max_examples=_examples(request), deadline=None)
    @given(table=_tables())
    def check(table):
        rows, other, churn, where = table
        db, rows, other = _load(rows, other, churn)
        try:
            _check_sql(db, rows, other, where)
            # the dictionaries stay distinct and append-only under churn
            for name in ("t", "u"):
                for column in ("s",):
                    vector = db.catalog.table(name).columns[column]
                    words = vector.dictionary.tolist()
                    assert len(set(words)) == len(words)
        finally:
            db.close()

    check()


def test_direct_address_joins_spill_like_the_sorting_path(request, monkeypatch):
    """Joins on ``ctid``-like dense keys, sparse keys and duplicated build
    keys, partitioned under ``query_memory_limit``, give the answer of the
    sort-based join over the object path."""
    partitioned = []
    real_partitions = executor._partitions

    def recording(codes, parts):
        partitioned.append(parts)
        return real_partitions(codes, parts)

    monkeypatch.setattr(executor, "_partitions", recording)

    @settings(max_examples=max(3, _examples(request, 1)), deadline=None)
    @given(
        shape=st.sampled_from(["dense", "sparse", "duplicates"]),
        seed=st.integers(0, 2**16),
    )
    def check(shape, seed):
        rng = np.random.default_rng(seed)
        n = 3000
        keys = {
            "dense": rng.permutation(n),
            "sparse": rng.permutation(n) * 1000,
            "duplicates": rng.integers(0, n, n),
        }[shape]
        words = [WORDS[i] for i in rng.integers(0, len(WORDS), n)]
        limited = Database(query_memory_limit="160kb")
        try:
            limited.run_script("CREATE TABLE a (k int, w text);"
                               "CREATE TABLE b (k int, w text)")
            left = keys[rng.integers(0, n, n)] + rng.integers(0, 2, n)
            limited.catalog.table("a").append_columns(
                {"k": left.tolist(), "w": words[::-1]}, n)
            limited.catalog.table("b").append_columns(
                {"k": keys.tolist(), "w": words}, n)
            for kind, sql_kind in (("inner", "JOIN"), ("left", "LEFT JOIN")):
                partitioned.clear()
                got = limited.execute(
                    f"SELECT a.k, b.w FROM a {sql_kind} b ON a.k = b.k"
                ).rows
                assert max(partitioned) > 1, "the join did not partition"
                lc, rc = old.factorize_columns(
                    [(from_values(left.tolist()), from_values(keys.tolist()))],
                    [False],
                )
                lp, rp = old.equi_join_positions(lc, rc, kind)
                want = [
                    (int(left[a]), words[b] if b >= 0 else None)
                    for a, b in zip(lp.tolist(), rp.tolist())
                ]
                assert got == want, kind
        finally:
            limited.close()

    check()
