"""Vectorised plan executor.

One executor serves both engine profiles; the profile only controls
materialisation behaviour (see :mod:`repro.sqldb.profile`):

* ``copy_operator_output`` — the PostgreSQL profile copies every operator's
  output vectors, modelling tuple materialisation in a buffer-backed
  executor; the Umbra profile pipelines references through.
* materialised CTEs are computed once per query and cached in the
  execution context.

Every operator is one ``_exec_*`` function that pulls its child batches
through :func:`execute_plan`.  The blocking operators (join, aggregate,
DISTINCT, sort, window ordering) have one implementation each, written
over the partitions — sort: runs — that :func:`_reserve_or_chunk` grants
them; running in memory is the one-partition case of the same code.

An operator's output batch holds exactly the keys of its plan schema
(late materialisation): scans read only the columns
:func:`~repro.sqldb.optimizer.prune_plan` left them, and the row-selecting
operators (join, filter, sort, limit) read their predicate,
residual and sort-key columns, then gather only the schema's columns
through :func:`_take_rows`.  So the postgres profile's copy and every
``batch_bytes`` reservation cover live columns only.

When an :class:`~repro.sqldb.stats.ExecStats` recorder is attached to the
context, every operator dispatch records rows and (inclusive) wall time,
the profile's copy of its output included — the substrate of
``EXPLAIN ANALYZE``.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Iterator, Optional

import numpy as np

from repro.errors import SQLExecutionError
from repro.sqldb import ast_nodes as ast
from repro.sqldb.catalog import CTID, Catalog, probe_compatible
from repro.sqldb.plan import (
    Aggregate,
    AggregateItem,
    Batch,
    CompiledExpr,
    CteRef,
    Distinct,
    Filter,
    IndexScan,
    Join,
    Limit,
    OneRow,
    PlanNode,
    Project,
    ScanSnapshot,
    ScanTable,
    Sort,
    UnionAll,
    Window,
    parameter_value,
)
from repro.sqldb.profile import Profile
from repro.sqldb.stats import ExecStats
from repro.sqldb.vector import (
    Vector,
    array_lengths,
    cells,
    compact,
    concat_vectors,
    constant,
    dictionary_ranks,
    gather,
    truthy_rows,
)
from repro.sqldb import functions, hashing
from repro.sqldb.memory import (
    HASH_ROW_BYTES,
    SORT_KEY_BYTES,
    batch_bytes,
)

__all__ = ["ExecContext", "execute_plan"]


@dataclass
class ExecContext:
    catalog: Catalog
    profile: Profile
    cte_cache: dict[int, Batch] = field(default_factory=dict)
    subquery_cache: dict[int, Any] = field(default_factory=dict)
    #: positional statement parameters bound to ``?`` / ``%s`` placeholders
    params: tuple = ()
    #: optional per-operator runtime statistics recorder
    stats: Optional[ExecStats] = None
    #: cooperative cancellation: absolute ``time.monotonic()`` deadline
    #: (statement timeout) and an externally settable cancel flag, both
    #: checked at operator boundaries
    deadline: Optional[float] = None
    cancel_event: Optional[threading.Event] = None
    #: guards the statement's shared caches (scalar subqueries, CTEs)
    lock: threading.RLock = field(default_factory=threading.RLock)
    #: this statement's :class:`~repro.sqldb.memory.MemoryGrant`
    #: (``None`` = unlimited: every reserve succeeds, nothing spills)
    memory: Any = None

    # -- memory accounting ---------------------------------------------------

    def mem_reserve(self, nbytes: int, point: str, plan: Any = None) -> bool:
        """Try a degradable reservation; ``False`` = work in partitions."""
        if self.memory is None:
            return True
        ok = self.memory.reserve(int(nbytes), point)
        if self.stats is not None and plan is not None and ok:
            self.stats.record_memory(plan, peak_bytes=int(nbytes))
        return ok

    def mem_require(self, nbytes: int, point: str, plan: Any = None) -> None:
        """A non-degradable reservation; raises 53400/53200 on refusal."""
        if self.memory is None:
            return
        self.memory.require(int(nbytes), point)
        if self.stats is not None and plan is not None:
            self.stats.record_memory(plan, peak_bytes=int(nbytes))

    def mem_release(self, nbytes: int) -> None:
        if self.memory is not None:
            self.memory.release(int(nbytes))

    def mem_spilled(self, nbytes: int, point: str, plan: Any = None) -> None:
        """Record *nbytes* written to a spill file at *point*."""
        if self.memory is None:
            return
        self.memory.note_spill(int(nbytes), point)
        if self.stats is not None and plan is not None:
            self.stats.record_memory(plan, spilled_bytes=int(nbytes))

    def mem_chunk(self) -> int:
        """Working-chunk size of a denied reservation (a quarter of the
        tightest budget, so run generation and partition passes always
        fit)."""
        if self.memory is None:
            return 1 << 20
        broker = self.memory.broker
        budget = broker.query_limit
        if budget is None:
            budget = broker.limit
        if budget is None:
            return 1 << 20
        return max(256, budget // 4)

    def check_cancelled(self) -> None:
        """Raise :class:`~repro.errors.QueryCancelled` if this statement
        was cancelled or has exceeded its timeout."""
        if self.cancel_event is not None and self.cancel_event.is_set():
            from repro.errors import QueryCancelled

            raise QueryCancelled("query cancelled on user request")
        if self.deadline is not None and time.monotonic() > self.deadline:
            from repro.errors import QueryCancelled

            raise QueryCancelled(
                "query cancelled: statement timeout exceeded"
            )

    def scalar_subquery(self, plan: PlanNode) -> Any:
        """Execute an uncorrelated scalar subquery once, caching the value.

        The compute-and-store is serialised on the context lock
        (re-entrant — a subquery may itself contain subqueries).
        """
        key = id(plan)
        if key in self.subquery_cache:
            return self.subquery_cache[key]
        with self.lock:
            if key not in self.subquery_cache:
                batch = execute_plan(plan, self)
                visible = [out for out in plan.schema if not out.hidden]
                if len(visible) != 1:
                    raise SQLExecutionError(
                        "scalar subquery must return exactly one column"
                    )
                if batch.length > 1:
                    raise SQLExecutionError(
                        "scalar subquery returned more than one row"
                    )
                if batch.length == 0:
                    self.subquery_cache[key] = None
                else:
                    self.subquery_cache[key] = batch.columns[visible[0].key].item(0)
        return self.subquery_cache[key]


def execute_plan(plan: PlanNode, ctx: ExecContext) -> Batch:
    """Execute *plan* to completion and return its output batch.

    The recorded time covers the profile's copy of the output, so the
    copy is charged to the operator whose output it is, not its parent.
    """
    ctx.check_cancelled()
    started = time.perf_counter()
    batch = _dispatch_operator(plan, ctx)
    if ctx.profile.copy_operator_output:
        # deep-copy all vectors: the postgres profile's tuple materialisation
        batch = Batch(
            batch.length, {k: v.copy() for k, v in batch.columns.items()}
        )
    if ctx.stats is not None:
        ctx.stats.record(plan, batch.length, time.perf_counter() - started)
    return batch


def _dispatch_operator(plan: PlanNode, ctx: ExecContext) -> Batch:
    if isinstance(plan, ScanTable):
        return _exec_scan_table(plan, ctx)
    if isinstance(plan, IndexScan):
        return _exec_index_scan(plan, ctx)
    if isinstance(plan, ScanSnapshot):
        return _exec_scan_snapshot(plan, ctx)
    if isinstance(plan, CteRef):
        return _exec_cte_ref(plan, ctx)
    if isinstance(plan, Project):
        return _exec_project(plan, ctx)
    if isinstance(plan, Filter):
        return _exec_filter(plan, ctx)
    if isinstance(plan, Join):
        return _exec_join(plan, ctx)
    if isinstance(plan, Aggregate):
        return _exec_aggregate(plan, ctx)
    if isinstance(plan, Distinct):
        return _exec_distinct(plan, ctx)
    if isinstance(plan, Sort):
        return _exec_sort(plan, ctx)
    if isinstance(plan, Limit):
        return _exec_limit(plan, ctx)
    if isinstance(plan, Window):
        return _exec_window(plan, ctx)
    if isinstance(plan, UnionAll):
        return _exec_union_all(plan, ctx)
    if isinstance(plan, OneRow):
        return Batch(1, {})
    raise SQLExecutionError(f"cannot execute plan node {type(plan).__name__}")


def _take_rows(
    batch: Batch,
    positions: np.ndarray,
    keys: Iterable[str],
    missing_null: bool = False,
) -> Batch:
    """The rows of *batch* at *positions*, in that order, holding only the
    columns *keys* (with *missing_null*, position -1 is a NULL row)."""
    return Batch(
        len(positions),
        {k: gather(batch.columns[k], positions, missing_null) for k in keys},
    )


def _schema_keys(plan: PlanNode) -> list[str]:
    return [out.key for out in plan.schema]


# ---------------------------------------------------------------------------
# scans and shared plans
# ---------------------------------------------------------------------------


def _table_batch(table: Any, keys: dict[str, str]) -> Batch:
    """The stored columns *keys* (storage name -> batch key) of *table*,
    uncopied; ``ctid`` is the row-position column."""
    return Batch(
        table.n_rows,
        {
            key: table.ctid if name == CTID else table.columns[name]
            for name, key in keys.items()
        },
    )


def _exec_scan_table(plan: ScanTable, ctx: ExecContext) -> Batch:
    return _table_batch(ctx.catalog.table(plan.table_name), plan.keys)


def _resolve_index(plan_table: str, index_name: str, ctx: ExecContext):
    """Fetch (table, index) for an index access path, sanity-checked.

    Plans are cache-keyed on the catalog's index epoch, so a mismatch here
    means an internal invariant broke (stale index after DML, or a plan
    executed against a catalog it was not built for) — fail loudly.
    """
    table = ctx.catalog.table(plan_table)
    index = ctx.catalog.index(index_name)
    if index.table != plan_table or index.n_rows != table.n_rows:
        raise SQLExecutionError(
            f"index {index_name!r} is out of sync with table "
            f"{plan_table!r} ({index.n_rows} vs {table.n_rows} rows)"
        )
    return table, index


def _index_lookup_positions(index, lookup: tuple) -> np.ndarray:
    kind, operand = lookup
    if kind == "eq":
        return index.eq_positions(operand)
    if kind == "in":
        return index.in_positions(operand)
    if kind == "range":
        lo, lo_inclusive, hi, hi_inclusive = operand
        return index.range_positions(lo, lo_inclusive, hi, hi_inclusive)
    raise SQLExecutionError(f"unknown index lookup kind {kind!r}")


def _bound_lookup(
    lookup: tuple, index, table, params: tuple
) -> Optional[tuple]:
    """*lookup* with its parameters bound, or None when a bound value
    cannot probe the index as the compare it stands for would answer."""
    kind, operand = lookup
    if kind == "range" or not any(
        isinstance(value, ast.Parameter) for value in operand
    ):
        return lookup
    values = tuple(
        parameter_value(params, value.index)
        if isinstance(value, ast.Parameter) else value
        for value in operand
    )
    columns = index.columns if kind == "eq" else index.columns * len(values)
    if all(
        probe_compatible(value, table.storage_of(column))
        for value, column in zip(values, columns)
    ):
        return kind, values
    return None


def _exec_index_scan(plan: IndexScan, ctx: ExecContext) -> Batch:
    table, index = _resolve_index(plan.table_name, plan.index_name, ctx)
    lookup = _bound_lookup(plan.lookup, index, table, ctx.params)
    if lookup is None:
        # the scan and filter the probe stands for
        batch = _table_batch(table, {**plan.conjunct_keys, **plan.keys})
        positions = _kept_positions(plan.conjuncts, batch, ctx)
        if positions is None:
            positions = np.arange(batch.length)
        return _take_rows(batch, positions, plan.keys.values())
    positions = _index_lookup_positions(index, lookup)
    return _take_rows(
        _table_batch(table, plan.keys), positions, plan.keys.values()
    )


def _exec_scan_snapshot(plan: ScanSnapshot, ctx: ExecContext) -> Batch:
    view = ctx.catalog.resolve(plan.view_name)
    if view.snapshot is None:  # type: ignore[union-attr]
        raise SQLExecutionError(
            f"materialized view {plan.view_name!r} has no snapshot"
        )
    names, data, length = view.snapshot  # type: ignore[union-attr]
    columns = {key: data[name] for name, key in plan.keys.items()}
    return Batch(length, columns)


def _exec_cte_ref(plan: CteRef, ctx: ExecContext) -> Batch:
    with ctx.lock:
        cached = ctx.cte_cache.get(id(plan.plan))
        if cached is None:
            cached = execute_plan(plan.plan, ctx)
            # the cache lives until statement end, so this reservation is
            # never released here — end_query reclaims it
            ctx.mem_require(batch_bytes(cached), "cte.materialize", plan)
            ctx.cte_cache[id(plan.plan)] = cached
    columns = {dst: cached.columns[src] for src, dst in plan.rename.items()}
    return Batch(cached.length, columns)


# ---------------------------------------------------------------------------
# projection (with unnest expansion)
# ---------------------------------------------------------------------------


def _exec_project(plan: Project, ctx: ExecContext) -> Batch:
    child = execute_plan(plan.child, ctx)
    columns: dict[str, Vector] = {}
    for out, expr in plan.items:
        columns[out.key] = expr(child, ctx)
    if not plan.unnest_keys:
        return Batch(child.length, columns)
    return _expand_unnest(child.length, columns, plan.unnest_keys)


def _expand_unnest(
    length: int, columns: dict[str, Vector], unnest_keys: list[str]
) -> Batch:
    """PostgreSQL select-list unnest: expand rows by array elements.

    An unnested column *is* its compact element vector (each row's run,
    in row order), and every other column is one ``gather`` of its rows
    repeated by their array lengths.
    """
    lengths = None
    out: dict[str, Vector] = {}
    for key in unnest_keys:
        vec = columns[key]
        if vec.elements is None:
            if not vec.nulls.all():
                raise SQLExecutionError("unnest argument is not an array")
            vec = gather(constant([], 1), np.full(length, -1), missing_null=True)
        vec = compact(vec)
        if lengths is None:
            lengths = array_lengths(vec)
        elif not np.array_equal(array_lengths(vec), lengths):
            raise SQLExecutionError("unnest arrays have mismatched lengths")
        out[key] = vec.elements
    repeats = np.repeat(np.arange(length), lengths)
    for key, vec in columns.items():
        if key not in out:
            out[key] = gather(vec, repeats)
    return Batch(len(repeats), {key: out[key] for key in columns})


# ---------------------------------------------------------------------------
# filter
# ---------------------------------------------------------------------------


def _kept_positions(
    conjuncts: list[CompiledExpr], batch: Batch, ctx: ExecContext
) -> Optional[np.ndarray]:
    """The rows of *batch* where every conjunct is TRUE, or None for all.

    Sequential conjunct evaluation: each part runs on the survivors of
    the previous one, reading only its own columns.  Rows kept = rows
    where every conjunct is definitely TRUE — identical to the combined
    AND predicate under three-valued logic, but later (less selective)
    conjuncts touch fewer rows."""
    positions: Optional[np.ndarray] = None  # None = every row so far
    for conjunct in conjuncts:
        rows = (
            batch
            if positions is None
            else _take_rows(batch, positions, conjunct.refs)
        )
        kept = truthy_rows(conjunct(rows, ctx))
        if len(kept) < rows.length:
            positions = kept if positions is None else positions[kept]
    return positions


def _exec_filter(plan: Filter, ctx: ExecContext) -> Batch:
    child = execute_plan(plan.child, ctx)
    positions = _kept_positions(plan.conjuncts, child, ctx)
    keys = _schema_keys(plan)
    if positions is None:
        return Batch(child.length, {k: child.columns[k] for k in keys})
    return _take_rows(child, positions, keys)


# ---------------------------------------------------------------------------
# partitions: the one shape every blocking operator runs in
# ---------------------------------------------------------------------------

#: partitions (sort: at least this many runs) a blocking operator works
#: in when the memory governor denies its whole working set
_SPILL_PARTITIONS = 8


@contextmanager
def _reserve_or_chunk(
    ctx: ExecContext, plan: PlanNode, nbytes: int, point: str, chunk_point: str
) -> Iterator[int]:
    """Hold a blocking operator's memory; yield its partition count.

    Granted *nbytes* at *point*, the operator runs over its whole input:
    one partition.  Denied, it holds one working chunk at *chunk_point*
    instead (non-degradable: raises 53400/53200 on refusal) and works
    through the input in ``_SPILL_PARTITIONS`` partitions.
    """
    if ctx.mem_reserve(nbytes, point, plan):
        held, parts = nbytes, 1
    else:
        held, parts = ctx.mem_chunk(), _SPILL_PARTITIONS
        ctx.mem_require(held, chunk_point, plan)
    try:
        yield parts
    finally:
        ctx.mem_release(held)


def _partitions(
    codes: np.ndarray, parts: int
) -> Iterator[tuple[Optional[np.ndarray], np.ndarray]]:
    """Split rows by ``code % parts``: yields ``(rows, codes)`` per partition.

    Codes are global, so all rows of one key land in one partition, in
    row order.  ``rows`` are the partition's row positions and its codes
    are re-based to ``code // parts``, which keeps dense codes dense and
    the invalid code -1 (numpy's mod and floor-div follow Python: it
    lands in the last partition) invalid.  One partition is the input
    itself: ``rows`` is ``None`` and *codes* pass through untouched.
    """
    if parts == 1:
        yield None, codes
        return
    bucket = codes % parts
    for part in range(parts):
        rows = np.flatnonzero(bucket == part)
        yield rows, codes[rows] // parts


# ---------------------------------------------------------------------------
# joins
# ---------------------------------------------------------------------------


def _equi_join_positions(
    left_codes: np.ndarray,
    right_codes: np.ndarray,
    kind: str,
) -> tuple[np.ndarray, np.ndarray]:
    """Vectorised hash/sort join over pre-factorised key codes.

    Returns matching (left, right) row positions; -1 marks outer padding.
    Inner matches preserve left-row order (and right order within a key).
    An inner or left join whose build side holds each key at most once
    is a direct-address gather (a perfect-hash join): the codes are dense
    (``hashing.factorize_columns``), so they index a lookup of build
    positions, and one take probes it.
    """
    if kind in ("inner", "left"):
        top = 1 + max(
            int(left_codes.max(initial=-1)), int(right_codes.max(initial=-1))
        )
        build = np.flatnonzero(right_codes >= 0)
        if np.bincount(right_codes[build], minlength=top).max(initial=0) <= 1:
            # slot ``top`` stays -1: the address of every invalid probe
            lookup = np.full(top + 1, -1, dtype=np.int64)
            lookup[right_codes[build]] = build
            matches = lookup[np.where(left_codes < 0, top, left_codes)]
            if kind == "left":
                return np.arange(len(left_codes), dtype=np.int64), matches
            hit = np.flatnonzero(matches >= 0)
            return hit, matches[hit]
    order = np.argsort(right_codes, kind="stable")
    sorted_codes = right_codes[order]
    # discard invalid (null, non-null-safe) build rows
    first_valid = np.searchsorted(sorted_codes, 0, side="left")
    order = order[first_valid:]
    sorted_codes = sorted_codes[first_valid:]

    probe_codes = np.where(left_codes < 0, np.int64(-1), left_codes)
    starts = np.searchsorted(sorted_codes, probe_codes, side="left")
    ends = np.searchsorted(sorted_codes, probe_codes, side="right")
    counts = ends - starts
    counts[left_codes < 0] = 0

    total = int(counts.sum())
    left_pos = np.repeat(np.arange(len(left_codes), dtype=np.int64), counts)
    prefix = np.zeros(len(counts), dtype=np.int64)
    if len(counts) > 1:
        prefix[1:] = np.cumsum(counts[:-1])
    offsets = (
        np.arange(total, dtype=np.int64)
        - np.repeat(prefix, counts)
        + np.repeat(starts, counts)
    )
    right_pos = order[offsets]

    if kind in ("left", "full"):
        unmatched = np.flatnonzero(counts == 0)
        if len(unmatched):
            left_pos = np.concatenate([left_pos, unmatched])
            right_pos = np.concatenate(
                [right_pos, np.full(len(unmatched), -1, dtype=np.int64)]
            )
            # keep left-row order (matched and padded rows interleaved)
            order = np.argsort(left_pos, kind="stable")
            left_pos = left_pos[order]
            right_pos = right_pos[order]
    if kind in ("right", "full"):
        matched = np.zeros(len(right_codes), dtype=bool)
        matched[right_pos[right_pos >= 0]] = True
        unmatched = np.flatnonzero(~matched)
        left_pos = np.concatenate(
            [left_pos, np.full(len(unmatched), -1, dtype=np.int64)]
        )
        right_pos = np.concatenate([right_pos, unmatched])
    return left_pos, right_pos


def _join_positions(
    left_codes: np.ndarray,
    right_codes: np.ndarray,
    kind: str,
    parts: int,
    ctx: ExecContext,
) -> tuple[np.ndarray, np.ndarray]:
    """Equi-join row positions over *parts* partitions of the key codes.

    Key codes are factorised globally, so every row of one join key
    lands in exactly one partition and each partition is joined
    independently by :func:`_equi_join_positions`; with one partition
    that is the whole join.  Several are stitched back into its output
    order: matched and left-padded rows stable-sorted by left position
    (a left row's matches sit in one partition, already in right-row
    order), right/full padding after them in ascending right position.
    """
    lefts: list[np.ndarray] = []
    rights: list[np.ndarray] = []
    for (lrows, lcodes), (rrows, rcodes) in zip(
        _partitions(left_codes, parts), _partitions(right_codes, parts)
    ):
        lp, rp = _equi_join_positions(lcodes, rcodes, kind)
        if parts > 1:
            # partition-local to global rows; -1 (padding) indexes the
            # appended sentinel and stays -1
            lp, rp = np.append(lrows, -1)[lp], np.append(rrows, -1)[rp]
        lefts.append(lp)
        rights.append(rp)
        ctx.check_cancelled()
    if parts == 1:
        return lefts[0], rights[0]
    lp = np.concatenate(lefts)
    rp = np.concatenate(rights)
    order = np.argsort(
        np.where(lp >= 0, lp, len(left_codes) + rp), kind="stable"
    )
    return lp[order], rp[order]


def _exec_join(plan: Join, ctx: ExecContext) -> Batch:
    """Output rows are ordered by left row (then right row within a key)."""
    left = execute_plan(plan.left, ctx)
    right = execute_plan(plan.right, ctx)
    if plan.left_keys:
        left_vectors = [k(left, ctx) for k in plan.left_keys]
        right_vectors = [k(right, ctx) for k in plan.right_keys]
        left_codes, right_codes = hashing.factorize_columns(
            list(zip(left_vectors, right_vectors)), plan.null_safe
        )
        # build side: the hashed right rows plus per-row table state
        build_est = batch_bytes(right) + HASH_ROW_BYTES * right.length
        with _reserve_or_chunk(
            ctx, plan, build_est, "join.build", "join.partition"
        ) as parts:
            lp, rp = _join_positions(
                left_codes, right_codes, plan.kind, parts, ctx
            )
    else:
        if plan.kind not in ("cross", "inner"):
            raise SQLExecutionError(
                f"{plan.kind} join requires at least one equality condition"
            )
        lp = np.repeat(np.arange(left.length, dtype=np.int64), right.length)
        rp = np.tile(np.arange(right.length, dtype=np.int64), left.length)

    if plan.residual is not None and plan.kind not in ("inner", "cross"):
        raise SQLExecutionError(
            "non-equality conditions on outer joins are not supported"
        )
    return _join_output(plan, left, right, lp, rp, ctx)


def _join_output(
    plan: Join,
    left: Batch,
    right: Batch,
    lp: np.ndarray,
    rp: np.ndarray,
    ctx: ExecContext,
) -> Batch:
    """The joined rows ``(lp[i], rp[i])`` that pass *plan*'s residual,
    holding only *plan*'s schema columns.

    The residual reads its own columns at every candidate pair; the
    schema's columns are gathered once, for the surviving pairs only.
    """
    if plan.residual is not None:
        candidates = _joined_rows(left, right, lp, rp, plan.residual.refs)
        kept = truthy_rows(plan.residual(candidates, ctx))
        lp, rp = lp[kept], rp[kept]
    return _joined_rows(left, right, lp, rp, _schema_keys(plan))


def _joined_rows(
    left: Batch,
    right: Batch,
    lp: np.ndarray,
    rp: np.ndarray,
    keys: Iterable[str],
) -> Batch:
    """Columns *keys* of the row pairs ``(lp[i], rp[i])``, each from the
    side that holds it; position -1 pads with NULL."""
    keys = list(keys)
    columns = _take_rows(
        left, lp, [k for k in keys if k in left.columns], True
    ).columns
    columns.update(
        _take_rows(
            right, rp, [k for k in keys if k not in left.columns], True
        ).columns
    )
    return Batch(len(lp), columns)


# ---------------------------------------------------------------------------
# aggregation and DISTINCT
# ---------------------------------------------------------------------------


def _grouped(
    child: Batch,
    ctx: ExecContext,
    vectors: list[Vector],
    aggregates: list[AggregateItem],
    parts: int,
) -> tuple[np.ndarray, dict[str, Vector]]:
    """Group *child* by *vectors* over *parts* partitions of the group codes.

    Returns the first row of every group — groups in ascending key-code
    order, :func:`hashing.group_codes`' contract — and one column per
    aggregate.  The global codes double as the output order and as the
    partitioning function: a group's rows land wholly in one partition,
    in row order, so partition-local aggregation sees the same inputs in
    the same order as a global pass — which is what one partition is.
    Partition ``p`` holds groups ``p, p + parts, ...`` under local ids
    ``0, 1, ...``; several partitions' outputs are interleaved back.
    """
    if vectors:
        codes, firsts = hashing.group_codes(vectors)
        n_groups = len(firsts)
    else:  # scalar aggregate: one group, even over no rows
        codes = np.zeros(child.length, dtype=np.int64)
        firsts = np.zeros(0, dtype=np.int64)
        n_groups = 1
    if not aggregates:  # DISTINCT: first rows are global, no partition work
        return firsts, {}
    pieces: list[list[Vector]] = [[] for _ in aggregates]
    for part, (rows, local) in enumerate(_partitions(codes, parts)):
        sub = child if rows is None else _take_rows(child, rows, child.columns)
        n_local = len(range(part, n_groups, parts))
        for item, piece in zip(aggregates, pieces):
            arg = item.arg(sub, ctx) if item.arg is not None else None
            item_codes = local
            if item.where is not None:
                # FILTER (WHERE ...) drops rows from this aggregate's input
                # only; dropping (rather than null-masking) keeps count(*)/
                # array_agg semantics right, since both observe null inputs
                kept = truthy_rows(item.where(sub, ctx))
                item_codes = local[kept]
                if arg is not None:
                    arg = gather(arg, kept)
            piece.append(
                functions.compute_aggregate(
                    item.func, arg, item_codes, n_local, item.distinct
                )
            )
        ctx.check_cancelled()
    if parts == 1:
        merged = [piece[0] for piece in pieces]
    else:
        order = np.argsort(
            np.concatenate(
                [np.arange(part, n_groups, parts) for part in range(parts)]
            )
        )
        merged = [gather(concat_vectors(piece), order) for piece in pieces]
    return firsts, {
        item.out.key: column for item, column in zip(aggregates, merged)
    }


def _exec_aggregate(plan: Aggregate, ctx: ExecContext) -> Batch:
    child = execute_plan(plan.child, ctx)
    vectors = [expr(child, ctx) for _, expr in plan.groups]
    if vectors:
        # accumulator state scales with input rows (codes, argsorts,
        # per-group buffers)
        table_est = batch_bytes(child) + HASH_ROW_BYTES * child.length
        with _reserve_or_chunk(
            ctx, plan, table_est, "agg.hashtable", "agg.partition"
        ) as parts:
            firsts, aggregated = _grouped(
                child, ctx, vectors, plan.aggregates, parts
            )
    else:  # scalar aggregates are O(1) and never partition
        firsts, aggregated = _grouped(child, ctx, vectors, plan.aggregates, 1)
    columns = {
        out.key: gather(vec, firsts)
        for (out, _), vec in zip(plan.groups, vectors)
    }
    columns.update(aggregated)
    return Batch(len(firsts) if vectors else 1, columns)


def _exec_distinct(plan: Distinct, ctx: ExecContext) -> Batch:
    """DISTINCT is GROUP BY over every column with nothing aggregated."""
    child = execute_plan(plan.child, ctx)
    if child.length == 0:
        return child
    vectors = [child.columns[out.key] for out in plan.schema]
    with _reserve_or_chunk(
        ctx, plan, HASH_ROW_BYTES * child.length,
        "distinct.hashtable", "distinct.partition",
    ) as parts:
        firsts, _ = _grouped(child, ctx, vectors, [], parts)
    return _take_rows(child, firsts, _schema_keys(plan))


# ---------------------------------------------------------------------------
# sort (ORDER BY and window ordering)
# ---------------------------------------------------------------------------

def _sort_keys(
    keys: list[tuple[Vector, bool, Optional[bool]]]
) -> list[tuple[Callable[[int], tuple], bool]]:
    """``(row -> comparable, ascending)`` per ``(vector, ascending,
    nulls_first)`` key.

    A non-null row maps to ``(0, value)`` and a null row to ``(marker,
    None)``, the marker chosen so that after a descending key's order
    inversion nulls land on the requested side (``nulls_first=None`` is
    the PostgreSQL default: NULLS LAST ascending, NULLS FIRST
    descending).  A key whose non-null values cannot be sorted without a
    ``TypeError`` (mixed int/text, arrays holding NULLs) compares as
    text.  That is decided here by a trial sort of the whole column —
    of 1-tuples, which compare the way the decorated keys do — so the
    answer cannot depend on how the rows are later cut into runs.
    """
    specs = []
    for vec, asc, nulls_first in keys:
        nf = (not asc) if nulls_first is None else nulls_first
        marker = (-1 if nf else 1) if asc else (1 if nf else -1)
        as_text = False
        if vec.dictionary is not None:
            # text sorts by its dictionary's ranks, k entries sorted once
            ranks = dictionary_ranks(vec.dictionary)
            vec = Vector(ranks[vec.values] if len(ranks) else vec.values, vec.nulls)
        elif vec.elements is not None:  # arrays sort as Python lists
            vec = Vector(cells(vec), vec.nulls)
        if vec.values.dtype == object:
            present = vec.values[~vec.nulls]
            if not set(map(type, present)) <= {str}:
                try:
                    sorted(zip(present))
                except TypeError:
                    as_text = True
        if as_text:
            def key(i: int, v=vec.values, n=vec.nulls, m=marker) -> tuple:
                return (m, "") if n[i] else (0, str(v[i]))
        else:
            def key(i: int, v=vec.values, n=vec.nulls, m=marker) -> tuple:
                return (m, None) if n[i] else (0, v[i])
        specs.append((key, asc))
    return specs


class _Desc:
    """Order-inverting comparison wrapper for descending sort keys.

    Sequences of stable single-key sorts with ``reverse=True`` are
    equivalent to one stable sort on the composite key with each
    descending component's order inverted — which is what lets sorted
    runs be merged into byte-identical output in a single pass.
    """

    __slots__ = ("key",)

    def __init__(self, key: Any) -> None:
        self.key = key

    def __lt__(self, other: "_Desc") -> bool:
        return other.key < self.key

    def __eq__(self, other: object) -> bool:
        return isinstance(other, _Desc) and other.key == self.key


#: row positions framed together in one spilled sort-run record, so the
#: merge holds one block per run instead of whole runs
_SORT_BLOCK_ROWS = 256


def _sort_positions(
    ctx: ExecContext,
    plan: PlanNode,
    specs: list[tuple[Callable[[int], tuple], bool]],
    n: int,
    parts: int,
    point: str,
) -> np.ndarray:
    """Stable multi-key sort of rows ``0..n-1``; *parts* bounds the runs.

    Rows are cut into runs of consecutive rows and every run is sorted
    by one stable pass per key, last key first.  ``parts == 1`` (the
    whole sort buffer was granted) makes one run, which is the answer.
    Otherwise there are at least *parts* runs, each small enough for the
    working chunk.  Each run's order is spilled as row positions
    (accounted to *point*), and the runs are k-way merged on their
    composite key, recomputed from the resident key columns as the merge
    reads each row.  The merge breaks ties by run index and keeps each
    run's order, so ties resolve to original row order — the stability
    contract of the one-run sort.
    """
    run_rows = max(1, n)
    if parts > 1:
        fit = ctx.mem_chunk() // (SORT_KEY_BYTES * max(1, len(specs)))
        run_rows = max(1, min(-(-n // parts), fit))

    def sorted_runs() -> Iterator[list[int]]:
        for lo in range(0, n, run_rows):
            rows = list(range(lo, min(n, lo + run_rows)))
            for key, asc in reversed(specs):
                rows.sort(key=key, reverse=not asc)
            yield rows

    if n <= run_rows:
        return np.asarray(next(sorted_runs(), []), dtype=np.int64)

    def composite(i: int) -> tuple:
        return tuple(key(i) if asc else _Desc(key(i)) for key, asc in specs)

    grant = ctx.memory
    spills: list[Any] = []

    def stream(spill: Any) -> Iterator[int]:
        for block in spill.records():
            grant.require(0, "spill.read")  # fault point: stall/fail arms
            ctx.check_cancelled()
            yield from block

    try:
        for rows in sorted_runs():
            spill = grant.spill_file(f"sort-run-{len(spills)}")
            spills.append(spill)
            for lo in range(0, len(rows), _SORT_BLOCK_ROWS):
                grant.require(0, "spill.write")  # fault point, as above
                nbytes = spill.append(rows[lo : lo + _SORT_BLOCK_ROWS])
                ctx.mem_spilled(nbytes, point, plan)
                ctx.check_cancelled()
        import heapq  # only the cold merge needs it (CHANGES.md, PR 18)

        merged = heapq.merge(*map(stream, spills), key=composite)
        return np.fromiter(merged, dtype=np.int64, count=n)
    finally:
        for spill in spills:
            grant.release_spill_file(spill)


def _exec_sort(plan: Sort, ctx: ExecContext) -> Batch:
    child = execute_plan(plan.child, ctx)
    sort_est = SORT_KEY_BYTES * child.length * max(1, len(plan.keys))
    with _reserve_or_chunk(
        ctx, plan, sort_est, "sort.buffer", "sort.run"
    ) as parts:
        specs = _sort_keys(
            [
                (expr(child, ctx), asc, nulls_first)
                for expr, asc, nulls_first in plan.keys
            ]
        )
        positions = _sort_positions(
            ctx, plan, specs, child.length, parts, "sort.run"
        )
    return _take_rows(child, positions, _schema_keys(plan))


def _exec_limit(plan: Limit, ctx: ExecContext) -> Batch:
    child = execute_plan(plan.child, ctx)
    start = plan.offset
    stop = child.length if plan.count is None else min(start + plan.count, child.length)
    positions = np.arange(start, max(stop, start), dtype=np.int64)
    return _take_rows(child, positions, _schema_keys(plan))


def _exec_window(plan: Window, ctx: ExecContext) -> Batch:
    """row_number / rank / dense_rank of every row within its partition."""
    child = execute_plan(plan.child, ctx)
    columns = dict(child.columns)
    n = child.length
    # partition codes + per-partition order state; a denied reservation
    # shrinks the hold to a working chunk and the ordering to merged runs
    window_est = (HASH_ROW_BYTES + SORT_KEY_BYTES) * n * max(
        1, len(plan.windows)
    )
    with _reserve_or_chunk(
        ctx, plan, window_est, "window.partition", "window.partition"
    ) as parts:
        for item in plan.windows:
            if item.partition:
                part_codes, _ = hashing.group_codes(
                    [expr(child, ctx) for expr in item.partition]
                )
            else:
                part_codes = np.zeros(n, dtype=np.int64)
            # window order is ORDER BY partition, then the window's own keys
            partition = Vector(part_codes, np.zeros(n, dtype=bool))
            specs = _sort_keys(
                [(partition, True, None)]
                + [(expr(child, ctx), asc, None) for expr, asc in item.order]
            )
            positions = _sort_positions(
                ctx, plan, specs, n, parts, "window.partition"
            )
            order_keys = [key for key, _ in specs[1:]]

            out = np.zeros(n, dtype=np.float64)
            current_partition = None
            row_number = rank = dense = 0
            previous_key: Any = object()
            for i in positions:
                if part_codes[i] != current_partition:
                    current_partition = part_codes[i]
                    row_number = rank = dense = 0
                    previous_key = object()
                row_number += 1
                key = [order_key(i) for order_key in order_keys]
                if key != previous_key:  # not a peer of the previous row
                    rank = row_number
                    dense += 1
                    previous_key = key
                if item.func == "row_number":
                    out[i] = row_number
                elif item.func == "rank":
                    out[i] = rank
                else:  # dense_rank
                    out[i] = dense
            columns[item.out.key] = Vector(out, np.zeros(n, dtype=bool))
    return Batch(n, {k: columns[k] for k in _schema_keys(plan)})


def _exec_union_all(plan: UnionAll, ctx: ExecContext) -> Batch:
    batches = [execute_plan(part, ctx) for part in plan.parts]
    columns: dict[str, Vector] = {}
    for position, out in enumerate(plan.schema):
        parts = []
        for part, batch in zip(plan.parts, batches):
            part_key = part.schema[position].key
            parts.append(batch.columns[part_key])
        columns[out.key] = concat_vectors(parts)
    total = sum(batch.length for batch in batches)
    return Batch(total, columns)
