"""Vectorised plan executor.

One executor serves both engine profiles; the profile only controls
materialisation behaviour (see :mod:`repro.sqldb.profile`):

* ``copy_operator_output`` — the PostgreSQL profile copies every operator's
  output vectors, modelling tuple materialisation in a buffer-backed
  executor; the Umbra profile pipelines references through.
* materialised CTEs are computed once per query and cached in the
  execution context.

Each operator is split into a *driver* (``_exec_*``: pulls child batches
through :func:`execute_plan`) and a *kernel* (``*_batch``: transforms
already-materialised batches).

When an :class:`~repro.sqldb.stats.ExecStats` recorder is attached to the
context, every operator dispatch records rows and (inclusive) wall time —
the substrate of ``Database.explain_analyze``.
"""

from __future__ import annotations

import itertools
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Optional

import numpy as np

from repro.errors import SQLExecutionError
from repro.sqldb.catalog import CTID, Catalog
from repro.sqldb.plan import (
    Aggregate,
    AggregateItem,
    Batch,
    CteRef,
    Distinct,
    Filter,
    IndexJoin,
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
)
from repro.sqldb.profile import Profile
from repro.sqldb.stats import ExecStats
from repro.sqldb.vector import (
    Vector,
    concat_vectors,
    from_values,
    gather,
    truthy_rows,
)
from repro.sqldb import functions, hashing
from repro.sqldb.memory import (
    HASH_ROW_BYTES,
    SORT_KEY_BYTES,
    batch_bytes,
)

__all__ = [
    "ExecContext",
    "execute_plan",
    "aggregate_batch",
    "filter_batch",
    "join_batches",
    "project_batch",
    "copy_batch",
]


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
        """Try a degradable reservation; ``False`` = take the spill path."""
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
        """Working-chunk size for spill paths (a quarter of the tightest
        budget, so run generation and partition passes always fit)."""
        if self.memory is None:
            return 1 << 20
        broker = self.memory.broker
        budget = broker.query_limit
        if budget is None:
            budget = broker.limit
        if budget is None:
            return 1 << 20
        # under simulated allocator pressure every accounted size is
        # scaled up; shrink the chunk so the *scaled* request still fits
        pressure = getattr(broker.faults, "pressure", 1.0)
        return max(256, int(budget / pressure) // 4)

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
    """Execute *plan* to completion and return its output batch."""
    batch = _dispatch(plan, ctx)
    if ctx.profile.copy_operator_output:
        batch = copy_batch(batch)
    return batch


def _dispatch(plan: PlanNode, ctx: ExecContext) -> Batch:
    ctx.check_cancelled()
    if ctx.stats is None:
        return _dispatch_operator(plan, ctx)
    started = time.perf_counter()
    batch = _dispatch_operator(plan, ctx)
    ctx.stats.record(plan, batch.length, time.perf_counter() - started)
    return batch


def _dispatch_operator(plan: PlanNode, ctx: ExecContext) -> Batch:
    if isinstance(plan, ScanTable):
        return _exec_scan_table(plan, ctx)
    if isinstance(plan, IndexScan):
        return _exec_index_scan(plan, ctx)
    if isinstance(plan, IndexJoin):
        return _exec_index_join(plan, ctx)
    if isinstance(plan, ScanSnapshot):
        return _exec_scan_snapshot(plan, ctx)
    if isinstance(plan, CteRef):
        return _exec_cte_ref(plan, ctx)
    if isinstance(plan, Project):
        return project_batch(plan, execute_plan(plan.child, ctx), ctx)
    if isinstance(plan, Filter):
        return filter_batch(plan, execute_plan(plan.child, ctx), ctx)
    if isinstance(plan, Join):
        return _exec_join(plan, ctx)
    if isinstance(plan, Aggregate):
        return aggregate_batch(plan, execute_plan(plan.child, ctx), ctx)
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


def copy_batch(batch: Batch) -> Batch:
    """Deep-copy all vectors (the postgres profile's tuple materialisation)."""
    return Batch(batch.length, {k: v.copy() for k, v in batch.columns.items()})


# ---------------------------------------------------------------------------
# scans and shared plans
# ---------------------------------------------------------------------------


def _exec_scan_table(plan: ScanTable, ctx: ExecContext) -> Batch:
    table = ctx.catalog.table(plan.table_name)
    columns: dict[str, Vector] = {}
    for name, key in plan.keys.items():
        columns[key] = table.ctid if name == CTID else table.columns[name]
    return Batch(table.n_rows, columns)


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
        key = operand[0] if len(operand) == 1 else tuple(operand)
        return index.eq_positions(key)
    if kind == "in":
        return index.in_positions(operand)
    if kind == "range":
        lo, lo_inclusive, hi, hi_inclusive = operand
        return index.range_positions(lo, lo_inclusive, hi, hi_inclusive)
    raise SQLExecutionError(f"unknown index lookup kind {kind!r}")


def _exec_index_scan(plan: IndexScan, ctx: ExecContext) -> Batch:
    table, index = _resolve_index(plan.table_name, plan.index_name, ctx)
    positions = _index_lookup_positions(index, plan.lookup)
    columns: dict[str, Vector] = {}
    for name, key in plan.keys.items():
        source = table.ctid if name == CTID else table.columns[name]
        columns[key] = gather(source, positions)
    return Batch(len(positions), columns)


def _exec_index_join(plan: IndexJoin, ctx: ExecContext) -> Batch:
    left = execute_plan(plan.left, ctx)
    return index_join_batch(plan, left, ctx)


def index_join_batch(plan: IndexJoin, left: Batch, ctx: ExecContext) -> Batch:
    """Probe the inner index once per left row (the INLJ kernel).

    Output rows are ordered by left row, then ascending inner position
    within a key — exactly the hash join's contract, so swapping the
    operators never changes results.
    """
    table, index = _resolve_index(plan.table_name, plan.index_name, ctx)
    key_vectors = [expr(left, ctx) for expr in plan.left_keys]
    n = left.length
    composite = len(key_vectors) > 1
    counts = np.zeros(n, dtype=np.int64)
    parts: list[np.ndarray] = []
    for i in range(n):
        if any(vec.nulls[i] for vec in key_vectors):
            continue  # SQL equality: null keys match nothing
        if composite:
            key: Any = tuple(vec.values[i] for vec in key_vectors)
        else:
            key = key_vectors[0].values[i]
        positions = index.eq_positions(key)
        if len(positions):
            counts[i] = len(positions)
            parts.append(positions)
    right_pos = (
        np.concatenate(parts) if parts else np.empty(0, dtype=np.int64)
    )
    left_pos = np.repeat(np.arange(n, dtype=np.int64), counts)
    if plan.kind == "left":
        unmatched = np.flatnonzero(counts == 0)
        if len(unmatched):
            left_pos = np.concatenate([left_pos, unmatched])
            right_pos = np.concatenate(
                [right_pos, np.full(len(unmatched), -1, dtype=np.int64)]
            )
            order = np.argsort(left_pos, kind="stable")
            left_pos = left_pos[order]
            right_pos = right_pos[order]

    columns: dict[str, Vector] = {}
    for key, vec in left.columns.items():
        columns[key] = gather(vec, left_pos, missing_null=True)
    for name, key in plan.keys.items():
        source = table.ctid if name == CTID else table.columns[name]
        columns[key] = gather(source, right_pos, missing_null=True)
    batch = Batch(len(left_pos), columns)

    if plan.residual is not None:
        if plan.kind != "inner":
            raise SQLExecutionError(
                "index join residuals require an inner join"
            )
        predicate = plan.residual(batch, ctx)
        positions = truthy_rows(predicate)
        batch = Batch(
            len(positions),
            {k: gather(v, positions) for k, v in batch.columns.items()},
        )
    return batch


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


def project_batch(plan: Project, child: Batch, ctx: ExecContext) -> Batch:
    columns: dict[str, Vector] = {}
    for out, expr in plan.items:
        columns[out.key] = expr(child, ctx)
    if not plan.unnest_keys:
        return Batch(child.length, columns)
    return _expand_unnest(child.length, columns, plan.unnest_keys)


#: C-looped length extraction over an object array of lists; -1 flags rows
#: whose value is not an array
_ARRAY_SIZES = np.frompyfunc(
    lambda v: len(v) if isinstance(v, list) else -1, 1, 1
)


def _expand_unnest(
    length: int, columns: dict[str, Vector], unnest_keys: list[str]
) -> Batch:
    """PostgreSQL select-list unnest: expand rows by array elements.

    Vectorised: one array-length extraction pass over the lead column,
    one ``np.repeat`` for the pass-through columns and one flatten pass
    per unnested column (no per-row Python loop).
    """
    lead = columns[unnest_keys[0]]
    counts = np.zeros(length, dtype=np.int64)
    valid = ~lead.nulls
    if valid.any():
        sizes = _ARRAY_SIZES(lead.values[valid]).astype(np.int64)
        if (sizes < 0).any():
            raise SQLExecutionError("unnest argument is not an array")
        counts[valid] = sizes
    total = int(counts.sum())
    repeats = np.repeat(np.arange(length), counts)
    expanding = counts > 0
    out: dict[str, Vector] = {}
    for key, vec in columns.items():
        if key in unnest_keys:
            try:
                flat = list(
                    itertools.chain.from_iterable(vec.values[expanding])
                )
            except TypeError:
                raise SQLExecutionError(
                    "unnest argument is not an array"
                ) from None
            out[key] = from_values(flat)
            if len(out[key]) != total:
                raise SQLExecutionError("unnest arrays have mismatched lengths")
        else:
            out[key] = gather(vec, repeats)
    return Batch(total, out)


# ---------------------------------------------------------------------------
# filter
# ---------------------------------------------------------------------------


def filter_batch(plan: Filter, child: Batch, ctx: ExecContext) -> Batch:
    if len(plan.conjuncts) > 1:
        # sequential conjunct evaluation: each part runs on the survivors
        # of the previous one.  Rows kept = rows where every conjunct is
        # definitely TRUE — identical to the combined AND predicate under
        # three-valued logic, but later (less selective) conjuncts touch
        # fewer rows
        batch = child
        for conjunct in plan.conjuncts:
            predicate = conjunct(batch, ctx)
            positions = truthy_rows(predicate)
            if len(positions) == batch.length:
                continue
            batch = Batch(
                len(positions),
                {k: gather(v, positions) for k, v in batch.columns.items()},
            )
        if batch is child:
            return Batch(child.length, dict(child.columns))
        return batch
    predicate = plan.predicate(child, ctx)
    positions = truthy_rows(predicate)
    columns = {k: gather(v, positions) for k, v in child.columns.items()}
    return Batch(len(positions), columns)


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
    """
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


#: fan-out of the spill paths (Grace hash join, partitioned
#: aggregation/distinct) when the memory governor denies a reservation
_SPILL_PARTITIONS = 8


def _spill_append(
    ctx: ExecContext, plan: Any, spill: Any, payload: Any, point: str
) -> None:
    """Frame one payload into *spill*, accounting the bytes to *point*."""
    ctx.memory.require(0, "spill.write")  # fault point: stall/fail arms
    nbytes = spill.append(payload)
    ctx.mem_spilled(nbytes, point, plan)
    ctx.check_cancelled()


def _spill_records(ctx: ExecContext, spill: Any):
    """Stream payloads back, touching the spill.read fault point each."""
    for payload in spill.records():
        ctx.memory.require(0, "spill.read")
        yield payload


def _grace_join_positions(
    plan: Join,
    left_codes: np.ndarray,
    right_codes: np.ndarray,
    ctx: ExecContext,
) -> tuple[np.ndarray, np.ndarray]:
    """Grace-partitioned equi join, byte-identical to the in-memory kernel.

    Key codes are factorised globally first (the partitioning scan), so
    every row of one join key lands in exactly one partition; both sides
    are spilled per partition, each partition is joined independently by
    :func:`_equi_join_positions`, and the per-partition positions are
    stitched back into the serial output order: matched and left-padded
    rows stable-sorted by left position, right/full padding appended in
    ascending right position — exactly the in-memory contract.
    """
    grant = ctx.memory
    chunk = ctx.mem_chunk()
    ctx.mem_require(chunk, "join.partition", plan)
    left_file = grant.spill_file("join-left")
    right_file = grant.spill_file("join-right")
    try:
        need_right = plan.kind in ("right", "full")
        for part in range(_SPILL_PARTITIONS):
            # numpy's mod follows Python: invalid codes (-1) land in the
            # last partition and match nothing there, as in memory
            lsel = np.flatnonzero(left_codes % _SPILL_PARTITIONS == part)
            rsel = np.flatnonzero(right_codes % _SPILL_PARTITIONS == part)
            if not len(lsel) and not (need_right and len(rsel)):
                continue
            _spill_append(
                ctx, plan, left_file,
                (left_codes[lsel], lsel), "join.partition",
            )
            _spill_append(
                ctx, plan, right_file,
                (right_codes[rsel], rsel), "join.partition",
            )
        main_left: list[np.ndarray] = []
        main_right: list[np.ndarray] = []
        pad_right: list[np.ndarray] = []
        for (lcodes, lsel), (rcodes, rsel) in zip(
            _spill_records(ctx, left_file), _spill_records(ctx, right_file)
        ):
            lp, rp = _equi_join_positions(lcodes, rcodes, plan.kind)
            glp = np.full(len(lp), -1, dtype=np.int64)
            grp = np.full(len(rp), -1, dtype=np.int64)
            lvalid = lp >= 0
            rvalid = rp >= 0
            glp[lvalid] = lsel[lp[lvalid]]
            grp[rvalid] = rsel[rp[rvalid]]
            has_left = glp >= 0
            main_left.append(glp[has_left])
            main_right.append(grp[has_left])
            if not has_left.all():
                pad_right.append(grp[~has_left])
            ctx.check_cancelled()
        if main_left:
            lp_out = np.concatenate(main_left)
            rp_out = np.concatenate(main_right)
        else:
            lp_out = np.empty(0, dtype=np.int64)
            rp_out = np.empty(0, dtype=np.int64)
        order = np.argsort(lp_out, kind="stable")
        lp_out = lp_out[order]
        rp_out = rp_out[order]
        if pad_right:
            padded = np.sort(np.concatenate(pad_right))
            lp_out = np.concatenate(
                [lp_out, np.full(len(padded), -1, dtype=np.int64)]
            )
            rp_out = np.concatenate([rp_out, padded])
        return lp_out, rp_out
    finally:
        ctx.mem_release(chunk)
        grant.release_spill_file(left_file)
        grant.release_spill_file(right_file)


def join_batches(
    plan: Join, left: Batch, right: Batch, ctx: ExecContext
) -> Batch:
    """Join two materialised batches.

    Output rows are ordered by left row (then right row within a key).
    """
    if plan.left_keys:
        left_vectors = [k(left, ctx) for k in plan.left_keys]
        right_vectors = [k(right, ctx) for k in plan.right_keys]
        left_codes, right_codes = hashing.factorize_columns(
            list(zip(left_vectors, right_vectors)), plan.null_safe
        )
        # build side: the hashed right rows plus per-row table state
        build_est = batch_bytes(right) + HASH_ROW_BYTES * right.length
        if ctx.mem_reserve(build_est, "join.build", plan):
            try:
                lp, rp = _equi_join_positions(
                    left_codes, right_codes, plan.kind
                )
            finally:
                ctx.mem_release(build_est)
        else:
            lp, rp = _grace_join_positions(
                plan, left_codes, right_codes, ctx
            )
    else:
        if plan.kind not in ("cross", "inner"):
            raise SQLExecutionError(
                f"{plan.kind} join requires at least one equality condition"
            )
        lp = np.repeat(np.arange(left.length, dtype=np.int64), right.length)
        rp = np.tile(np.arange(right.length, dtype=np.int64), left.length)

    columns: dict[str, Vector] = {}
    for key, vec in left.columns.items():
        columns[key] = gather(vec, lp, missing_null=True)
    for key, vec in right.columns.items():
        columns[key] = gather(vec, rp, missing_null=True)
    batch = Batch(len(lp), columns)

    if plan.residual is not None:
        if plan.kind not in ("inner", "cross"):
            raise SQLExecutionError(
                "non-equality conditions on outer joins are not supported"
            )
        predicate = plan.residual(batch, ctx)
        positions = truthy_rows(predicate)
        batch = Batch(
            len(positions),
            {k: gather(v, positions) for k, v in batch.columns.items()},
        )
    return batch


def _exec_join(plan: Join, ctx: ExecContext) -> Batch:
    left = execute_plan(plan.left, ctx)
    right = execute_plan(plan.right, ctx)
    return join_batches(plan, left, right, ctx)


# ---------------------------------------------------------------------------
# aggregation
# ---------------------------------------------------------------------------


def aggregate_item_inputs(
    item: AggregateItem, child: Batch, ctx: ExecContext, codes: np.ndarray
) -> tuple[np.ndarray, Optional[Vector]]:
    """(group codes, argument vector) for one aggregate, FILTER applied."""
    arg = item.arg(child, ctx) if item.arg is not None else None
    item_codes = codes
    if item.where is not None:
        # FILTER (WHERE ...) drops rows from this aggregate's input only;
        # dropping (rather than null-masking) keeps count(*)/array_agg
        # semantics right, since both observe null inputs
        predicate = item.where(child, ctx)
        kept = truthy_rows(predicate)
        item_codes = codes[kept]
        if arg is not None:
            arg = gather(arg, kept)
    return item_codes, arg


def aggregate_batch(plan: Aggregate, child: Batch, ctx: ExecContext) -> Batch:
    group_vectors = [expr(child, ctx) for _, expr in plan.groups]
    if group_vectors:
        # accumulator state scales with input rows (codes, argsorts,
        # per-group buffers); scalar aggregates are O(1) and never spill
        table_est = batch_bytes(child) + HASH_ROW_BYTES * child.length
        if not ctx.mem_reserve(table_est, "agg.hashtable", plan):
            return _spill_aggregate(plan, child, ctx, group_vectors)
        try:
            codes, positions = hashing.group_codes(group_vectors)
            n_groups = len(positions)
            return _aggregate_output(
                plan, child, ctx, group_vectors, codes, positions, n_groups
            )
        finally:
            ctx.mem_release(table_est)
    codes = np.zeros(child.length, dtype=np.int64)
    positions = np.zeros(0, dtype=np.int64)
    return _aggregate_output(
        plan, child, ctx, group_vectors, codes, positions, 1
    )


def _aggregate_output(
    plan: Aggregate,
    child: Batch,
    ctx: ExecContext,
    group_vectors: list[Vector],
    codes: np.ndarray,
    positions: np.ndarray,
    n_groups: int,
) -> Batch:
    columns: dict[str, Vector] = {}
    for (out, _), vec in zip(plan.groups, group_vectors):
        columns[out.key] = gather(vec, positions)
    for item in plan.aggregates:
        item_codes, arg = aggregate_item_inputs(item, child, ctx, codes)
        columns[item.out.key] = functions.compute_aggregate(
            item.func, arg, item_codes, n_groups, item.distinct
        )
    return Batch(n_groups, columns)


def _spill_aggregate(
    plan: Aggregate,
    child: Batch,
    ctx: ExecContext,
    group_vectors: list[Vector],
) -> Batch:
    """Partitioned aggregation, byte-identical to the in-memory twin.

    The global group codes double as the output ordering (dense ids in
    ascending combined-code order — exactly what the in-memory path
    emits) and as the partitioning function, so every group's rows land
    wholly in one partition and partition-local aggregation sees the
    same inputs, in the same row order, as the global pass.  Partition
    outputs are stitched back by their global group ids.
    """
    grant = ctx.memory
    chunk = ctx.mem_chunk()
    ctx.mem_require(chunk, "agg.partition", plan)
    part_file = grant.spill_file("agg")
    try:
        codes, positions = hashing.group_codes(group_vectors)
        n_groups = len(positions)
        for part in range(_SPILL_PARTITIONS):
            sel = np.flatnonzero(codes % _SPILL_PARTITIONS == part)
            if not len(sel):
                continue
            payload = (
                sel,
                {
                    key: (vec.values[sel], vec.nulls[sel])
                    for key, vec in child.columns.items()
                },
            )
            _spill_append(ctx, plan, part_file, payload, "agg.partition")

        # group-key output columns come straight from the global first
        # positions — no per-partition work needed
        columns: dict[str, Vector] = {}
        for (out, _), vec in zip(plan.groups, group_vectors):
            columns[out.key] = gather(vec, positions)

        group_ids: list[np.ndarray] = []
        item_parts: dict[str, list[Vector]] = {
            item.out.key: [] for item in plan.aggregates
        }
        for sel, part_columns in _spill_records(ctx, part_file):
            sub = Batch(
                len(sel),
                {
                    key: Vector(values, nulls)
                    for key, (values, nulls) in part_columns.items()
                },
            )
            # local dense codes keep their global ascending order, so
            # local group g is global group uniq[g]
            uniq, local = np.unique(codes[sel], return_inverse=True)
            local = local.astype(np.int64, copy=False)
            group_ids.append(uniq)
            for item in plan.aggregates:
                item_codes, arg = aggregate_item_inputs(item, sub, ctx, local)
                item_parts[item.out.key].append(
                    functions.compute_aggregate(
                        item.func, arg, item_codes, len(uniq), item.distinct
                    )
                )
            ctx.check_cancelled()
        if group_ids:
            all_ids = np.concatenate(group_ids)
            order = np.argsort(all_ids, kind="stable")
            for item in plan.aggregates:
                merged = concat_vectors(item_parts[item.out.key])
                columns[item.out.key] = gather(merged, order)
        else:  # no input rows: no partitions were written
            for item in plan.aggregates:
                item_codes, arg = aggregate_item_inputs(item, child, ctx, codes)
                columns[item.out.key] = functions.compute_aggregate(
                    item.func, arg, item_codes, n_groups, item.distinct
                )
        return Batch(n_groups, columns)
    finally:
        ctx.mem_release(chunk)
        grant.release_spill_file(part_file)


# ---------------------------------------------------------------------------
# pipeline breakers
# ---------------------------------------------------------------------------


def _exec_distinct(plan: Distinct, ctx: ExecContext) -> Batch:
    child = execute_plan(plan.child, ctx)
    if child.length == 0:
        return child
    vectors = [child.columns[out.key] for out in plan.schema]
    table_est = HASH_ROW_BYTES * child.length
    if ctx.mem_reserve(table_est, "distinct.hashtable", plan):
        try:
            _, positions = hashing.group_codes(vectors)
        finally:
            ctx.mem_release(table_est)
    else:
        positions = _spill_distinct_positions(plan, vectors, ctx)
    columns = {k: gather(v, positions) for k, v in child.columns.items()}
    return Batch(len(positions), columns)


def _spill_distinct_positions(
    plan: Distinct, vectors: list[Vector], ctx: ExecContext
) -> np.ndarray:
    """Partitioned DISTINCT: the first position of every group, ordered by
    ascending combined code — exactly :func:`hashing.group_codes`' output.

    Groups live wholly in one partition and partitions preserve row
    order, so a partition-local first occurrence is the global one.
    """
    grant = ctx.memory
    chunk = ctx.mem_chunk()
    ctx.mem_require(chunk, "distinct.partition", plan)
    part_file = grant.spill_file("distinct")
    try:
        codes, _ = hashing.group_codes(vectors)
        for part in range(_SPILL_PARTITIONS):
            sel = np.flatnonzero(codes % _SPILL_PARTITIONS == part)
            if not len(sel):
                continue
            _spill_append(
                ctx, plan, part_file, (codes[sel], sel), "distinct.partition"
            )
        ids: list[np.ndarray] = []
        firsts: list[np.ndarray] = []
        for part_codes, sel in _spill_records(ctx, part_file):
            uniq, first = np.unique(part_codes, return_index=True)
            ids.append(uniq)
            firsts.append(sel[first])
            ctx.check_cancelled()
        all_ids = np.concatenate(ids)
        all_firsts = np.concatenate(firsts)
        return all_firsts[np.argsort(all_ids, kind="stable")]
    finally:
        ctx.mem_release(chunk)
        grant.release_spill_file(part_file)


def _exec_sort(plan: Sort, ctx: ExecContext) -> Batch:
    child = execute_plan(plan.child, ctx)
    sort_est = SORT_KEY_BYTES * child.length * max(1, len(plan.keys))
    if ctx.mem_reserve(sort_est, "sort.buffer", plan):
        try:
            positions = _in_memory_sort_positions(plan, child, ctx)
        finally:
            ctx.mem_release(sort_est)
    else:
        positions = _external_sort_positions(plan, child, ctx)
    columns = {k: gather(v, positions) for k, v in child.columns.items()}
    return Batch(child.length, columns)


def _in_memory_sort_positions(
    plan: Sort, child: Batch, ctx: ExecContext
) -> np.ndarray:
    order = list(range(child.length))
    # multi-key sort with per-key direction: stable sorts from last key first
    for expr, asc, nulls_first in reversed(plan.keys):
        vec = expr(child, ctx)
        # PostgreSQL default: NULLS LAST for ASC, NULLS FIRST for DESC
        nf = (not asc) if nulls_first is None else nulls_first
        # marker for null rows relative to the 0 of non-null rows, chosen so
        # that after the per-key ``reverse`` nulls land on the requested side
        marker = (-1 if nf else 1) if asc else (1 if nf else -1)

        def single_key(i: int, v=vec, m=marker):
            if v.nulls[i]:
                return (m, None)
            return (0, v.values[i])

        try:
            order.sort(key=single_key, reverse=not asc)
        except TypeError:
            order.sort(key=lambda i, v=vec, m=marker: (
                m if v.nulls[i] else 0,
                "" if v.nulls[i] else str(v.values[i]),
            ), reverse=not asc)
    return np.asarray(order, dtype=np.int64)


class _Desc:
    """Order-inverting comparison wrapper for descending sort keys.

    Sequences of stable single-key sorts with ``reverse=True`` are
    equivalent to one stable sort on the composite key with each
    descending component's order inverted — which is what lets the
    external sort produce byte-identical output in a single pass.
    """

    __slots__ = ("key",)

    def __init__(self, key: Any) -> None:
        self.key = key

    def __lt__(self, other: "_Desc") -> bool:
        return other.key < self.key

    def __eq__(self, other: object) -> bool:
        return isinstance(other, _Desc) and other.key == self.key


def _key_needs_str(vec: Vector, force: bool) -> bool:
    """Should this key use the in-memory path's ``str()`` fallback?

    The in-memory sort falls back per key when a comparison raises
    ``TypeError``.  The external sort must decide *before* decorating
    runs: mixed-type object columns always raise there, single exotic
    types only raise if their values are incomparable (*force* is set
    after an attempt actually raised).
    """
    if vec.values.dtype != object:
        return False
    types = {
        type(value)
        for value, null in zip(vec.values, vec.nulls)
        if not null
    }
    if not types or types == {str}:
        return False
    if all(t in (int, float, bool) for t in types):
        return False
    if len(types) > 1:
        return True
    return force


#: rows framed together in one external-sort spill record, so the merge
#: holds one block per run instead of whole runs
_SORT_BLOCK_ROWS = 256


def _external_sort_positions(
    plan: Sort, child: Batch, ctx: ExecContext
) -> np.ndarray:
    try:
        return _external_sort_attempt(plan, child, ctx, force_str=False)
    except TypeError:
        # some key's values are incomparable: redo with the in-memory
        # path's str() fallback applied to the ambiguous keys
        return _external_sort_attempt(plan, child, ctx, force_str=True)


def _external_sort_attempt(
    plan: Sort, child: Batch, ctx: ExecContext, force_str: bool
) -> np.ndarray:
    """External merge sort: run generation + k-way merge.

    Runs are consecutive row ranges sorted in memory on the composite
    key and spilled as (key, row) records; the merge is keyed on
    ``(composite key, run index, in-run position)`` so ties resolve to
    original row order — the stability contract of the in-memory sort.
    """
    import heapq

    n = child.length
    if n == 0:
        return np.empty(0, dtype=np.int64)
    specs = []
    for expr, asc, nulls_first in plan.keys:
        vec = expr(child, ctx)
        nf = (not asc) if nulls_first is None else nulls_first
        marker = (-1 if nf else 1) if asc else (1 if nf else -1)
        specs.append((vec, asc, marker, _key_needs_str(vec, force_str)))

    def composite(i: int) -> tuple:
        parts = []
        for vec, asc, marker, use_str in specs:
            if vec.nulls[i]:
                base: tuple = (marker, "") if use_str else (marker, None)
            else:
                value = vec.values[i]
                base = (0, str(value)) if use_str else (0, value)
            parts.append(base if asc else _Desc(base))
        return tuple(parts)

    grant = ctx.memory
    chunk = ctx.mem_chunk()
    ctx.mem_require(chunk, "sort.run", plan)
    run_rows = max(1, chunk // (SORT_KEY_BYTES * max(1, len(specs))))
    runs = []
    try:
        for lo in range(0, n, run_rows):
            hi = min(n, lo + run_rows)
            decorated = [(composite(i), i) for i in range(lo, hi)]
            decorated.sort(key=lambda pair: pair[0])  # TypeError → retry
            run = grant.spill_file(f"sort-run-{len(runs)}")
            runs.append(run)
            for block_lo in range(0, len(decorated), _SORT_BLOCK_ROWS):
                _spill_append(
                    ctx, plan, run,
                    decorated[block_lo : block_lo + _SORT_BLOCK_ROWS],
                    "sort.run",
                )

        def run_stream(run):
            for block in _spill_records(ctx, run):
                yield from block

        heap: list = []
        streams = []
        for run_idx, run in enumerate(runs):
            stream = run_stream(run)
            streams.append(stream)
            first = next(stream, None)
            if first is not None:
                heapq.heappush(heap, (first[0], run_idx, first[1]))
        order = np.empty(n, dtype=np.int64)
        out = 0
        while heap:
            key, run_idx, row = heapq.heappop(heap)
            order[out] = row
            out += 1
            nxt = next(streams[run_idx], None)
            if nxt is not None:
                heapq.heappush(heap, (nxt[0], run_idx, nxt[1]))
            if out % 4096 == 0:
                ctx.check_cancelled()
        return order
    finally:
        ctx.mem_release(chunk)
        for run in runs:
            grant.release_spill_file(run)


def _exec_limit(plan: Limit, ctx: ExecContext) -> Batch:
    child = execute_plan(plan.child, ctx)
    start = plan.offset
    stop = child.length if plan.count is None else min(start + plan.count, child.length)
    positions = np.arange(start, max(stop, start), dtype=np.int64)
    columns = {k: gather(v, positions) for k, v in child.columns.items()}
    return Batch(len(positions), columns)


def _exec_window(plan: Window, ctx: ExecContext) -> Batch:
    child = execute_plan(plan.child, ctx)
    columns = dict(child.columns)
    n = child.length
    # partition codes + per-partition order state.  Ranking windows
    # stream one partition at a time, so under pressure the hold shrinks
    # to a working chunk instead of failing the query
    window_est = (HASH_ROW_BYTES + SORT_KEY_BYTES) * n * max(
        1, len(plan.windows)
    )
    if ctx.mem_reserve(window_est, "window.partition", plan):
        held = window_est
    else:
        held = ctx.mem_chunk()
        ctx.mem_require(held, "window.partition", plan)
    try:
        return _window_output(plan, child, ctx, columns, n)
    finally:
        ctx.mem_release(held)


def _window_output(
    plan: Window, child: Batch, ctx: ExecContext,
    columns: dict[str, Vector], n: int,
) -> Batch:
    for item in plan.windows:
        if item.partition:
            part_codes, _ = hashing.group_codes(
                [expr(child, ctx) for expr in item.partition]
            )
        else:
            part_codes = np.zeros(n, dtype=np.int64)
        order_vectors = [(expr(child, ctx), asc) for expr, asc in item.order]
        positions = list(range(n))
        # stable multi-key sort: last key first, partition last
        for vec, asc in reversed(order_vectors):
            positions.sort(
                key=lambda i, v=vec: (
                    (1 if v.nulls[i] else 0, v.values[i])
                    if not v.nulls[i]
                    else (1, None)
                ),
                reverse=not asc,
            )
        positions.sort(key=lambda i: part_codes[i])

        def order_key(i: int) -> tuple:
            return tuple(
                (bool(vec.nulls[i]), None if vec.nulls[i] else vec.values[i])
                for vec, _ in order_vectors
            )

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
            key = order_key(i)
            if key != previous_key:
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
    return Batch(n, columns)


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
