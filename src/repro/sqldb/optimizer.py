"""The plan path every query takes after the planner: column pruning,
constant folding and index access paths — one path, no switch.

Pruning removes projection items (and aggregate outputs) whose keys are not
needed upstream.  It flows through inlined views/CTEs, filters and joins —
this is the "holistic query optimisation" that makes the VIEW mode faster
than the CTE mode in PostgreSQL (§6.6 of the paper) — and deliberately
stops at materialised-CTE boundaries (:class:`CteRef`), which is exactly
PostgreSQL 12's optimisation barrier.

:func:`fold_select` folds literal-only predicate subtrees on the AST, using
the very vector kernels the executor would run (so folded values are
bit-compatible with computed ones).  :func:`optimize_select_plan` turns a
filtered base-table scan into an index probe wherever an index covers an
equality, ``IN`` or (with ``ANALYZE`` statistics) selective range
conjunct; a probe returns the rows a scan + filter would, in the same
order; an equality or ``IN`` value may be a statement parameter, read
when the probe runs.  :func:`estimate_plan_rows` gives the row estimates
``EXPLAIN`` prints.

Fired rules (``constant-folding``, ``index-scan``) are append-logged by
name so ``EXPLAIN ANALYZE`` can report them.
"""

from __future__ import annotations

from typing import Any, Optional

from repro.sqldb import ast_nodes as ast
from repro.sqldb import vector
from repro.sqldb.catalog import Catalog, probe_compatible
from repro.sqldb.plan import (
    Aggregate,
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
    combine_conjuncts,
)

__all__ = [
    "estimate_plan_rows",
    "fold_select",
    "optimize_select_plan",
    "prune_plan",
    "prune_shared_plans",
]


def _collect_shared_needs(plan: PlanNode, needs: dict[int, set[str]]) -> None:
    """Record which output keys each shared CTE/view plan must provide.

    Does not descend into the shared plans themselves — they are processed
    separately in reverse creation order (references only ever point from
    newer plans to older ones).
    """
    if isinstance(plan, CteRef):
        entry = needs.setdefault(id(plan.plan), set())
        if plan.barrier:
            # optimisation barrier: the full width must be computed
            entry.update(out.key for out in plan.plan.schema)
        else:
            entry.update(plan.rename.keys())
        return
    for child in plan.children():
        _collect_shared_needs(child, needs)


def prune_shared_plans(
    top: PlanNode,
    shared_plans: list[tuple[str, PlanNode, bool]],
    subquery_plans: list[PlanNode],
) -> None:
    """Holistically prune shared CTE/view plans by their combined needs.

    Non-barrier plans (inlined CTEs, views) are pruned to the union of all
    reference requirements; barrier plans (PG12-materialised CTEs) stay at
    full width.  Each shared plan is executed exactly once per query by the
    executor's plan cache.
    """
    needs: dict[int, set[str]] = {}
    _collect_shared_needs(top, needs)
    for sub in subquery_plans:
        _collect_shared_needs(sub, needs)
    for _, plan, barrier in reversed(shared_plans):
        needed = needs.get(id(plan))
        if needed is None:
            continue  # never referenced -> never executed
        if not barrier:
            prune_plan(plan, set(needed))
        _collect_shared_needs(plan, needs)


def prune_plan(plan: PlanNode, needed: set[str]) -> PlanNode:
    """Return *plan* with unneeded columns removed.

    Every node's schema shrinks to the keys its consumer reads (scans,
    too: a scan reads only the stored columns left in its ``keys``), and
    the executor emits exactly a node's schema — so a column no consumer
    reads is never produced.  Mutates nodes in place (plans are
    single-use) and returns the root.
    """
    if isinstance(plan, (ScanTable, ScanSnapshot, IndexScan)):
        plan.keys = {
            name: key for name, key in plan.keys.items() if key in needed
        }
        plan.schema = [out for out in plan.schema if out.key in needed]
        return plan

    if isinstance(plan, OneRow):
        return plan

    if isinstance(plan, CteRef):
        # optimisation barrier: the shared CTE plan is computed in full.
        # Only this reference's rename map shrinks.
        plan.rename = {
            src: dst for src, dst in plan.rename.items() if dst in needed
        }
        plan.schema = [out for out in plan.schema if out.key in needed]
        return plan

    if isinstance(plan, Project):
        # a batch carries its row count, so a Project nothing reads from
        # keeps no item and still has its child's rows
        kept = [
            (out, expr)
            for out, expr in plan.items
            if out.key in needed or out.key in plan.unnest_keys
        ]
        plan.items = kept
        plan.schema = [out for out, _ in kept]
        child_needed: set[str] = set()
        for _, expr in kept:
            child_needed |= expr.refs
        plan.child = prune_plan(plan.child, child_needed)
        return plan

    if isinstance(plan, Filter):
        plan.schema = [out for out in plan.schema if out.key in needed]
        plan.child = prune_plan(plan.child, needed | set(plan.predicate.refs))
        return plan

    if isinstance(plan, Join):
        child_needed = set(needed)
        for key_expr in plan.left_keys:
            child_needed |= key_expr.refs
        for key_expr in plan.right_keys:
            child_needed |= key_expr.refs
        if plan.residual is not None:
            child_needed |= plan.residual.refs
        left_keys = {out.key for out in plan.left.schema}
        right_keys = {out.key for out in plan.right.schema}
        plan.schema = [out for out in plan.schema if out.key in needed]
        plan.left = prune_plan(plan.left, child_needed & left_keys)
        plan.right = prune_plan(plan.right, child_needed & right_keys)
        return plan

    if isinstance(plan, Aggregate):
        plan.aggregates = [
            item for item in plan.aggregates if item.out.key in needed
        ]
        child_needed = set()
        for _, expr in plan.groups:
            child_needed |= expr.refs
        for item in plan.aggregates:
            if item.arg is not None:
                child_needed |= item.arg.refs
            if item.where is not None:
                child_needed |= item.where.refs
        plan.schema = [out for out, _ in plan.groups] + [
            item.out for item in plan.aggregates
        ]
        plan.child = prune_plan(plan.child, child_needed)
        return plan

    if isinstance(plan, Distinct):
        # DISTINCT semantics depend on the full row: no pruning through it
        plan.child = prune_plan(
            plan.child, {out.key for out in plan.child.schema}
        )
        return plan

    if isinstance(plan, Sort):
        child_needed = set(needed)
        for expr, _, _ in plan.keys:
            child_needed |= expr.refs
        plan.schema = [out for out in plan.schema if out.key in needed]
        plan.child = prune_plan(plan.child, child_needed)
        return plan

    if isinstance(plan, Limit):
        plan.schema = [out for out in plan.schema if out.key in needed]
        plan.child = prune_plan(plan.child, needed)
        return plan

    if isinstance(plan, Window):
        plan.windows = [w for w in plan.windows if w.out.key in needed]
        child_needed = set(needed) - {w.out.key for w in plan.windows}
        for item in plan.windows:
            for expr in item.partition:
                child_needed |= expr.refs
            for expr, _ in item.order:
                child_needed |= expr.refs
        plan.schema = [out for out in plan.schema if out.key in needed]
        plan.child = prune_plan(plan.child, child_needed)
        return plan

    if isinstance(plan, UnionAll):
        # positional correspondence across arms: keep everything
        for part in plan.parts:
            prune_plan(part, {out.key for out in part.schema})
        return plan

    return plan


# ---------------------------------------------------------------------------
# constant folding (AST level)
# ---------------------------------------------------------------------------

#: sentinel for "this subtree cannot be folded"
_NO_FOLD = object()


def _scalar(out: vector.Vector) -> Any:
    """Python value of a length-1 vector (None when null)."""
    return None if out.nulls[0] else out.item(0)


def _eval_binary(op: str, left: Any, right: Any) -> Any:
    a = vector.constant(left, 1)
    b = vector.constant(right, 1)
    try:
        if op in ("+", "-", "*", "/", "%", "||"):
            return _scalar(vector.arithmetic(op, a, b))
        if op in ("=", "<>", "<", "<=", ">", ">="):
            return _scalar(vector.compare(op, a, b))
        if op == "and":
            return _scalar(vector.logical_and(a, b))
        if op == "or":
            return _scalar(vector.logical_or(a, b))
    except Exception:
        return _NO_FOLD
    return _NO_FOLD


class _Folder:
    """Non-mutating constant folder over predicate expressions.

    Literal-only subtrees are evaluated through the same vector kernels
    the executor would run on them row-by-row, so a folded literal is
    indistinguishable from the computed value at execution time.  Only
    type-safe short-circuits are applied to mixed subtrees (``x AND
    FALSE``, ``x OR TRUE``); identities like ``x AND TRUE -> x`` are
    deliberately skipped because they could change the column's dtype.
    """

    def __init__(self) -> None:
        self.changed = False

    def _mark(self, value: Any) -> ast.Literal:
        self.changed = True
        return ast.Literal(value)

    def expr(self, e: ast.Expr) -> ast.Expr:
        if isinstance(e, ast.BinaryOp):
            left = self.expr(e.left)
            right = self.expr(e.right)
            if isinstance(left, ast.Literal) and isinstance(right, ast.Literal):
                value = _eval_binary(e.op, left.value, right.value)
                if value is not _NO_FOLD:
                    return self._mark(value)
            if e.op == "and":
                for side in (left, right):
                    if isinstance(side, ast.Literal) and side.value is False:
                        return self._mark(False)
            if e.op == "or":
                for side in (left, right):
                    if isinstance(side, ast.Literal) and side.value is True:
                        return self._mark(True)
            if left is not e.left or right is not e.right:
                return ast.BinaryOp(e.op, left, right)
            return e
        if isinstance(e, ast.UnaryOp):
            operand = self.expr(e.operand)
            if isinstance(operand, ast.Literal):
                if e.op == "not":
                    try:
                        value = _scalar(
                            vector.logical_not(vector.constant(operand.value, 1))
                        )
                        return self._mark(value)
                    except Exception:
                        pass
                elif e.op == "-":
                    value = _eval_binary("*", operand.value, -1)
                    if value is not _NO_FOLD:
                        return self._mark(value)
            if operand is not e.operand:
                return ast.UnaryOp(e.op, operand)
            return e
        if isinstance(e, ast.IsNull):
            operand = self.expr(e.operand)
            if isinstance(operand, ast.Literal):
                return self._mark((operand.value is None) != e.negated)
            if operand is not e.operand:
                return ast.IsNull(operand, e.negated)
            return e
        if isinstance(e, ast.Between):
            operand = self.expr(e.operand)
            low = self.expr(e.low)
            high = self.expr(e.high)
            if all(
                isinstance(part, ast.Literal) for part in (operand, low, high)
            ):
                lo = _eval_binary(">=", operand.value, low.value)
                hi = _eval_binary("<=", operand.value, high.value)
                if lo is not _NO_FOLD and hi is not _NO_FOLD:
                    value = _eval_binary("and", lo, hi)
                    if value is not _NO_FOLD:
                        if e.negated:
                            value = _scalar(
                                vector.logical_not(vector.constant(value, 1))
                            )
                        return self._mark(value)
            if (
                operand is not e.operand
                or low is not e.low
                or high is not e.high
            ):
                return ast.Between(operand, low, high, e.negated)
            return e
        if isinstance(e, ast.InList):
            operand = self.expr(e.operand)
            items = tuple(self.expr(item) for item in e.items)
            if isinstance(operand, ast.Literal) and all(
                isinstance(item, ast.Literal) for item in items
            ):
                result: Any = None
                folded = True
                for position, item in enumerate(items):
                    hit = _eval_binary("=", operand.value, item.value)
                    if hit is _NO_FOLD:
                        folded = False
                        break
                    result = (
                        hit
                        if position == 0
                        else _eval_binary("or", result, hit)
                    )
                    if result is _NO_FOLD:
                        folded = False
                        break
                if folded:
                    if e.negated:
                        result = _scalar(
                            vector.logical_not(vector.constant(result, 1))
                        )
                    return self._mark(result)
            if operand is not e.operand or any(
                new is not old for new, old in zip(items, e.items)
            ):
                return ast.InList(operand, items, e.negated)
            return e
        if isinstance(e, ast.Case):
            whens = tuple(
                (self.expr(cond), self.expr(result))
                for cond, result in e.whens
            )
            else_ = self.expr(e.else_) if e.else_ is not None else None
            if else_ is not e.else_ or any(
                new_c is not old_c or new_r is not old_r
                for (new_c, new_r), (old_c, old_r) in zip(whens, e.whens)
            ):
                return ast.Case(whens, else_)
            return e
        if isinstance(e, ast.Cast):
            operand = self.expr(e.operand)
            if operand is not e.operand:
                return ast.Cast(operand, e.type_name)
            return e
        if isinstance(e, ast.FuncCall):
            args = tuple(self.expr(arg) for arg in e.args)
            filter_where = (
                self.expr(e.filter_where)
                if e.filter_where is not None
                else None
            )
            if filter_where is not e.filter_where or any(
                new is not old for new, old in zip(args, e.args)
            ):
                return ast.FuncCall(
                    e.name, args, e.star, e.distinct, filter_where
                )
            return e
        if isinstance(e, ast.ScalarSubquery):
            query = self.select(e.query)
            if query is not e.query:
                return ast.ScalarSubquery(query)
            return e
        return e

    def _source(self, source: ast.TableSource) -> ast.TableSource:
        if isinstance(source, ast.SubquerySource):
            query = self.select(source.query)
            if query is not source.query:
                return ast.SubquerySource(query, source.alias)
            return source
        if isinstance(source, ast.JoinSource):
            left = self._source(source.left)
            right = self._source(source.right)
            condition = (
                self.expr(source.condition)
                if source.condition is not None
                else None
            )
            if (
                left is not source.left
                or right is not source.right
                or condition is not source.condition
            ):
                return ast.JoinSource(left, right, source.kind, condition)
            return source
        return source

    def select(self, select: ast.Select) -> ast.Select:
        """Fold WHERE/HAVING/ON predicates, recursing into nested queries.

        Select items, GROUP BY and ORDER BY expressions are left alone:
        the planner matches GROUP BY expressions against items by
        structural equality, and folding only one side would break it.
        """
        ctes = [
            ast.Cte(cte.name, self.select(cte.query), cte.materialized)
            for cte in select.ctes
        ]
        sources = [self._source(source) for source in select.sources]
        where = self.expr(select.where) if select.where is not None else None
        having = self.expr(select.having) if select.having is not None else None
        union = [self.select(arm) for arm in select.union_all]
        unchanged = (
            where is select.where
            and having is select.having
            and all(new is old for new, old in zip(union, select.union_all))
            and all(new is old for new, old in zip(ctes, select.ctes))
            and all(new is old for new, old in zip(sources, select.sources))
        )
        if unchanged:
            return select
        return ast.Select(
            items=select.items,
            ctes=ctes,
            sources=sources,
            where=where,
            group_by=select.group_by,
            having=having,
            order_by=select.order_by,
            limit=select.limit,
            offset=select.offset,
            distinct=select.distinct,
            union_all=union,
        )


def fold_select(select: ast.Select) -> tuple[ast.Select, bool]:
    """Constant-fold a SELECT statement's predicates without mutating it.

    Returns ``(folded, changed)``; when nothing folds, *select* itself is
    returned so cached statements are never copied needlessly.
    """
    folder = _Folder()
    return folder.select(select), folder.changed


# ---------------------------------------------------------------------------
# statistics: provenance, selectivity, cardinality estimation
# ---------------------------------------------------------------------------

#: textbook fallbacks used when a referenced column has no ANALYZE stats
_DEFAULT_SELECTIVITY = {
    "=": 0.1,
    "<>": 0.9,
    "isnull": 0.05,
    "notnull": 0.95,
    "in": 0.2,
    "between": 0.25,
    "<": 1.0 / 3.0,
    "<=": 1.0 / 3.0,
    ">": 1.0 / 3.0,
    ">=": 1.0 / 3.0,
}


def _provenance(
    plan: PlanNode, memo: dict[int, dict[str, tuple[str, str]]]
) -> dict[str, tuple[str, str]]:
    """Map batch keys to their originating ``(table, column)`` where the
    key is a pure pass-through of a base-table column."""
    cached = memo.get(id(plan))
    if cached is not None:
        return cached
    prov: dict[str, tuple[str, str]] = {}
    if isinstance(plan, (ScanTable, IndexScan)):
        prov = {
            key: (plan.table_name, column) for column, key in plan.keys.items()
        }
    elif isinstance(plan, Project):
        child = _provenance(plan.child, memo)
        for out, expr in plan.items:
            if (
                expr.is_column is not None
                and expr.is_column in child
                and out.key not in plan.unnest_keys
            ):
                prov[out.key] = child[expr.is_column]
    elif isinstance(plan, (Filter, Sort, Distinct, Limit, Window)):
        prov = _provenance(plan.child, memo)
    elif isinstance(plan, Join):
        prov = {
            **_provenance(plan.left, memo),
            **_provenance(plan.right, memo),
        }
    elif isinstance(plan, Aggregate):
        child = _provenance(plan.child, memo)
        for out, expr in plan.groups:
            if expr.is_column is not None and expr.is_column in child:
                prov[out.key] = child[expr.is_column]
    elif isinstance(plan, CteRef):
        body = _provenance(plan.plan, memo)
        for src, dst in plan.rename.items():
            if src in body:
                prov[dst] = body[src]
    memo[id(plan)] = prov
    return prov


def _range_fraction(value: Any, lo: Any, hi: Any) -> Optional[float]:
    for part in (value, lo, hi):
        if isinstance(part, bool) or not isinstance(part, (int, float)):
            return None
    if hi <= lo:
        return 0.5
    return min(1.0, max(0.0, (value - lo) / (hi - lo)))


def _conjunct_selectivity(
    expr: CompiledExpr,
    prov: dict[str, tuple[str, str]],
    catalog: Catalog,
) -> float:
    """Estimated fraction of rows a conjunct keeps (1.0 = keeps all)."""
    cmp = expr.cmp
    if cmp is None:
        return 0.25
    op, key, operand = cmp
    if op == "const":
        return 0.0 if operand is None or operand is False else 1.0
    stats = None
    source = prov.get(key) if key is not None else None
    if source is not None:
        table_stats = catalog.table_stats(source[0])
        if table_stats is not None:
            stats = table_stats.columns.get(source[1])
    if stats is None:
        return _DEFAULT_SELECTIVITY.get(op, 0.25)
    notnull = 1.0 - stats.null_fraction
    ndv = max(stats.ndv, 1)
    if op == "=":
        return notnull / ndv if stats.ndv else 0.0
    if op == "<>":
        return notnull * (1.0 - 1.0 / ndv)
    if op == "isnull":
        return stats.null_fraction
    if op == "notnull":
        return notnull
    if op == "in":
        return min(1.0, len(operand) / ndv) * notnull
    if op in ("<", "<=", ">", ">="):
        fraction = _range_fraction(operand, stats.min_value, stats.max_value)
        if fraction is None:
            return _DEFAULT_SELECTIVITY[op]
        return (fraction if op in ("<", "<=") else 1.0 - fraction) * notnull
    if op == "between":
        low, high = operand
        f_low = _range_fraction(low, stats.min_value, stats.max_value)
        f_high = _range_fraction(high, stats.min_value, stats.max_value)
        if f_low is None or f_high is None:
            return _DEFAULT_SELECTIVITY["between"]
        return max(0.0, f_high - f_low) * notnull
    return 0.25


def _column_ndv(
    expr: CompiledExpr,
    prov: dict[str, tuple[str, str]],
    catalog: Catalog,
) -> float:
    """Distinct-value count of a pass-through key expression (0 = unknown)."""
    if expr.is_column is None:
        return 0.0
    source = prov.get(expr.is_column)
    if source is None:
        return 0.0
    table_stats = catalog.table_stats(source[0])
    if table_stats is None:
        return 0.0
    column = table_stats.columns.get(source[1])
    if column is None:
        return 0.0
    return float(max(column.ndv, 0))


def _table_rows(catalog: Catalog, table_name: str) -> float:
    stats = catalog.table_stats(table_name)
    if stats is not None:
        return float(stats.n_rows)
    try:
        return float(catalog.table(table_name).n_rows)
    except Exception:
        return 0.0


def _index_lookup_selectivity(
    plan: IndexScan, catalog: Catalog
) -> float:
    """Fraction of the table an index probe is expected to return."""
    kind, operand = plan.lookup
    stats = None
    try:
        index = catalog.index(plan.index_name)
        table_stats = catalog.table_stats(plan.table_name)
        if table_stats is not None:
            stats = table_stats.columns.get(index.columns[0])
        unique = index.unique
        first_column = index.columns[0]
    except Exception:
        return _DEFAULT_SELECTIVITY.get("=", 0.1)
    if kind == "eq":
        if unique:
            rows = _table_rows(catalog, plan.table_name)
            return 1.0 / rows if rows else 0.0
        if stats is not None and stats.ndv:
            return (1.0 - stats.null_fraction) / max(stats.ndv, 1)
        return _DEFAULT_SELECTIVITY["="]
    if kind == "in":
        if stats is not None and stats.ndv:
            return min(
                1.0, len(operand) / max(stats.ndv, 1)
            ) * (1.0 - stats.null_fraction)
        return _DEFAULT_SELECTIVITY["in"]
    if kind == "range":
        lo, _, hi, _ = operand
        if stats is not None:
            f_lo = (
                0.0
                if lo is None
                else _range_fraction(lo, stats.min_value, stats.max_value)
            )
            f_hi = (
                1.0
                if hi is None
                else _range_fraction(hi, stats.min_value, stats.max_value)
            )
            if f_lo is not None and f_hi is not None:
                return max(0.0, f_hi - f_lo) * (1.0 - stats.null_fraction)
        return _DEFAULT_SELECTIVITY["between"]
    return 0.25


def _equi_join_rows(
    left_rows: float,
    right_rows: float,
    key_pairs: list[tuple[float, float]],
) -> float:
    """|L JOIN R| under the standard independence model.

    Each equi-key pair divides the cross product by ``max(ndv_l, ndv_r)``;
    unknown distinct counts (0) fall back to a small default so empty or
    never-ANALYZEd columns can never divide by zero.
    """
    rows = left_rows * right_rows
    for ndv_l, ndv_r in key_pairs:
        factor = max(ndv_l, ndv_r)
        if factor <= 0:
            factor = 10.0  # both unknown: textbook default, never zero
        rows /= max(factor, 1.0)
    return rows


def estimate_plan_rows(plan: PlanNode, catalog: Catalog) -> dict[int, float]:
    """Estimate output rows for every node, keyed by ``id(node)``.

    Uses ANALYZE statistics where available and live table sizes
    otherwise; shared CTE bodies are estimated once.
    """
    estimates: dict[int, float] = {}
    prov_memo: dict[int, dict[str, tuple[str, str]]] = {}
    _estimate(plan, catalog, estimates, prov_memo)
    return estimates


def _estimate(
    plan: PlanNode,
    catalog: Catalog,
    estimates: dict[int, float],
    prov_memo: dict[int, dict[str, tuple[str, str]]],
) -> float:
    cached = estimates.get(id(plan))
    if cached is not None:
        return cached
    rows: float
    if isinstance(plan, ScanTable):
        stats = catalog.table_stats(plan.table_name)
        if stats is not None:
            rows = float(stats.n_rows)
        else:
            try:
                rows = float(catalog.table(plan.table_name).n_rows)
            except Exception:
                rows = 0.0
    elif isinstance(plan, ScanSnapshot):
        try:
            snapshot = catalog.resolve(plan.view_name).snapshot
            rows = float(snapshot[2]) if snapshot is not None else 1000.0
        except Exception:
            rows = 1000.0
    elif isinstance(plan, CteRef):
        rows = _estimate(plan.plan, catalog, estimates, prov_memo)
    elif isinstance(plan, Filter):
        rows = _estimate(plan.child, catalog, estimates, prov_memo)
        prov = _provenance(plan.child, prov_memo)
        for conjunct in plan.conjuncts:
            rows *= _conjunct_selectivity(conjunct, prov, catalog)
    elif isinstance(plan, Project):
        rows = _estimate(plan.child, catalog, estimates, prov_memo)
    elif isinstance(plan, IndexScan):
        rows = _table_rows(catalog, plan.table_name) * min(
            1.0, max(_index_lookup_selectivity(plan, catalog), 0.0)
        )
    elif isinstance(plan, Join):
        left = _estimate(plan.left, catalog, estimates, prov_memo)
        right = _estimate(plan.right, catalog, estimates, prov_memo)
        if plan.left_keys:
            prov_left = _provenance(plan.left, prov_memo)
            prov_right = _provenance(plan.right, prov_memo)
            pairs = [
                (
                    _column_ndv(le, prov_left, catalog),
                    _column_ndv(re, prov_right, catalog),
                )
                for le, re in zip(plan.left_keys, plan.right_keys)
            ]
            if any(ndv_l or ndv_r for ndv_l, ndv_r in pairs):
                inner = _equi_join_rows(left, right, pairs)
            else:
                # no usable distinct counts on any key: stay conservative
                inner = max(left, right)
        else:
            inner = left * right
        if plan.kind == "left":
            rows = max(inner, left)
        elif plan.kind == "right":
            rows = max(inner, right)
        elif plan.kind == "full":
            rows = max(inner, left + right)
        else:
            rows = inner
    elif isinstance(plan, Aggregate):
        child = _estimate(plan.child, catalog, estimates, prov_memo)
        if not plan.groups:
            rows = 1.0
        else:
            prov = _provenance(plan.child, prov_memo)
            product = 1.0
            known = True
            for _, expr in plan.groups:
                source = (
                    prov.get(expr.is_column)
                    if expr.is_column is not None
                    else None
                )
                column = None
                if source is not None:
                    table_stats = catalog.table_stats(source[0])
                    if table_stats is not None:
                        column = table_stats.columns.get(source[1])
                if column is None:
                    known = False
                    break
                product *= max(column.ndv + (1 if column.n_nulls else 0), 1)
            rows = min(child, product) if known else child
    elif isinstance(plan, (Distinct, Sort, Window)):
        rows = _estimate(plan.child, catalog, estimates, prov_memo)
    elif isinstance(plan, Limit):
        child = _estimate(plan.child, catalog, estimates, prov_memo)
        rows = max(child - plan.offset, 0.0)
        if plan.count is not None:
            rows = min(rows, float(plan.count))
    elif isinstance(plan, UnionAll):
        rows = sum(
            _estimate(part, catalog, estimates, prov_memo)
            for part in plan.parts
        )
    elif isinstance(plan, OneRow):
        rows = 1.0
    else:
        rows = 1000.0
    # at least one row, as PostgreSQL's clamp_row_est: a selectivity
    # product never proves a result empty
    rows = max(rows, 1.0)
    estimates[id(plan)] = rows
    return rows


# ---------------------------------------------------------------------------
# index access paths
# ---------------------------------------------------------------------------

def _probes(value: Any, storage: str) -> bool:
    """An equality / ``IN`` value an index may answer: a compatible
    literal, or a parameter (whose bound value the scan checks)."""
    return isinstance(value, ast.Parameter) or probe_compatible(value, storage)


def _try_index_scan(
    filt: Filter,
    scan: ScanTable,
    catalog: Catalog,
    rewrites: list[str],
    use_stats: bool,
) -> Optional[PlanNode]:
    """Convert ``Filter(ScanTable)`` into an index probe when an index
    covers some of the conjuncts; unmatched conjuncts stay as a residual
    filter above the probe.  Returns None when no index applies."""
    indexes = catalog.indexes_on(scan.table_name)
    if not indexes:
        return None
    try:
        table = catalog.table(scan.table_name)
    except Exception:
        return None
    key_to_column = {key: column for column, key in scan.keys.items()}

    #: per storage column: candidate probes harvested from cmp metadata
    eq: dict[str, tuple[int, Any]] = {}
    in_lists: dict[str, tuple[int, tuple]] = {}
    lowers: dict[str, tuple[int, Any, bool]] = {}
    uppers: dict[str, tuple[int, Any, bool]] = {}
    for position, conjunct in enumerate(filt.conjuncts):
        cmp = conjunct.cmp
        if cmp is None or cmp[1] is None:
            continue
        op, key, operand = cmp
        column = key_to_column.get(key)
        if column is None:
            continue
        storage = table.storage_of(column)
        if op == "=" and _probes(operand, storage):
            eq.setdefault(column, (position, operand))
        elif op == "in" and operand and all(
            _probes(v, storage) for v in operand
        ):
            in_lists.setdefault(column, (position, tuple(operand)))
        elif op in (">", ">=") and probe_compatible(operand, storage):
            lowers.setdefault(column, (position, operand, op == ">="))
        elif op in ("<", "<=") and probe_compatible(operand, storage):
            uppers.setdefault(column, (position, operand, op == "<="))
        elif op == "between":
            low, high = operand
            if probe_compatible(low, storage) and probe_compatible(
                high, storage
            ):
                lowers.setdefault(column, (position, low, True))
                uppers.setdefault(column, (position, high, True))

    best: Optional[tuple[tuple, Any, tuple, set[int]]] = None
    for index in indexes:
        candidate: Optional[tuple[tuple, Any, tuple, set[int]]] = None
        if all(column in eq for column in index.columns):
            used = {eq[column][0] for column in index.columns}
            values = tuple(eq[column][1] for column in index.columns)
            score = (0 if index.unique else 1, -len(index.columns))
            candidate = (score, index, ("eq", values), used)
        elif len(index.columns) == 1 and index.columns[0] in in_lists:
            position, values = in_lists[index.columns[0]]
            candidate = ((2, 0), index, ("in", values), {position})
        elif (
            index.method == "sorted"
            and len(index.columns) == 1
            and (index.columns[0] in lowers or index.columns[0] in uppers)
        ):
            column = index.columns[0]
            low = lowers.get(column)
            high = uppers.get(column)
            fraction = _range_probe_fraction(
                catalog, scan.table_name, column, low, high, use_stats
            )
            if fraction is not None and fraction <= 0.25:
                used = set()
                lo_value = lo_inclusive = None
                hi_value = hi_inclusive = None
                if low is not None:
                    used.add(low[0])
                    lo_value, lo_inclusive = low[1], low[2]
                if high is not None:
                    used.add(high[0])
                    hi_value, hi_inclusive = high[1], high[2]
                lookup = (
                    "range",
                    (lo_value, bool(lo_inclusive), hi_value, bool(hi_inclusive)),
                )
                candidate = ((3, 0), index, lookup, used)
        if candidate is not None and (best is None or candidate[0] < best[0]):
            best = candidate

    if best is None:
        return None
    _, index, lookup, used = best
    absorbed = [filt.conjuncts[position] for position in sorted(used)]
    rest = [
        conjunct
        for position, conjunct in enumerate(filt.conjuncts)
        if position not in used
    ]
    # the probe keeps what the consumer and the residual read; a key only
    # the absorbed conjuncts read is not gathered
    needed = {out.key for out in filt.schema}.union(
        *(conjunct.refs for conjunct in rest)
    )
    read = frozenset().union(*(conjunct.refs for conjunct in absorbed))
    probe = IndexScan(
        scan.table_name,
        index.name,
        lookup,
        schema=[out for out in scan.schema if out.key in needed],
        keys={c: key for c, key in scan.keys.items() if key in needed},
        conjuncts=absorbed,
        conjunct_keys={c: key for c, key in scan.keys.items() if key in read},
    )
    rewrites.append("index-scan")
    if not rest:
        return probe
    return Filter(
        probe,
        combine_conjuncts(rest),
        schema=list(filt.schema),
        conjuncts=rest,
    )


def _range_probe_fraction(
    catalog: Catalog,
    table_name: str,
    column: str,
    low: Optional[tuple],
    high: Optional[tuple],
    use_stats: bool,
) -> Optional[float]:
    """Estimated kept fraction of a range probe; None = not estimable.

    Range probes are only worth taking when selective, and selectivity is
    only credible with ANALYZE statistics — without them this returns
    None and the scan+filter plan stands.
    """
    if not use_stats or (low is None and high is None):
        return None
    table_stats = catalog.table_stats(table_name)
    if table_stats is None:
        return None
    stats = table_stats.columns.get(column)
    if stats is None:
        return None
    f_low = (
        0.0
        if low is None
        else _range_fraction(low[1], stats.min_value, stats.max_value)
    )
    f_high = (
        1.0
        if high is None
        else _range_fraction(high[1], stats.min_value, stats.max_value)
    )
    if f_low is None or f_high is None:
        return None
    return max(0.0, f_high - f_low) * (1.0 - stats.null_fraction)


def _apply_access_paths(
    plan: PlanNode,
    catalog: Catalog,
    rewrites: list[str],
    use_stats: bool,
    memo: dict[int, PlanNode],
) -> PlanNode:
    """Bottom-up walk converting filtered scans into index probes.

    Shared CTE bodies (reached through ``CteRef``) are rewritten once and
    every reference is repointed at the same rewritten body, preserving
    the compute-once contract."""
    cached = memo.get(id(plan))
    if cached is not None:
        return cached
    original = plan
    if isinstance(plan, CteRef):
        plan.plan = _apply_access_paths(
            plan.plan, catalog, rewrites, use_stats, memo
        )
    elif isinstance(plan, Join):
        plan.left = _apply_access_paths(
            plan.left, catalog, rewrites, use_stats, memo
        )
        plan.right = _apply_access_paths(
            plan.right, catalog, rewrites, use_stats, memo
        )
    elif isinstance(plan, UnionAll):
        plan.parts = [
            _apply_access_paths(part, catalog, rewrites, use_stats, memo)
            for part in plan.parts
        ]
    elif isinstance(plan, Filter):
        plan.child = _apply_access_paths(
            plan.child, catalog, rewrites, use_stats, memo
        )
        if isinstance(plan.child, ScanTable):
            replaced = _try_index_scan(
                plan, plan.child, catalog, rewrites, use_stats
            )
            if replaced is not None:
                plan = replaced
    elif hasattr(plan, "child"):
        plan.child = _apply_access_paths(
            plan.child, catalog, rewrites, use_stats, memo  # type: ignore[attr-defined]
        )
    memo[id(original)] = plan
    return plan


def optimize_select_plan(
    top: PlanNode,
    subquery_plans: list[PlanNode],
    catalog: Catalog,
    rewrites: list[str],
) -> PlanNode:
    """Turn every filtered base-table scan an index covers into a probe.

    Mutates the plan in place (plans are single-use until cached) and
    returns the possibly-new root; ``index-scan`` is appended to
    *rewrites* per probe.  Scalar-subquery roots are never replaced —
    their compiled closures capture the root object (the planner
    guarantees those roots are Project-like).  Equality and membership
    probes are taken without statistics; a range probe needs ``ANALYZE``
    data to show it is selective.
    """
    use_stats = bool(catalog.analyzed_tables)
    memo: dict[int, PlanNode] = {}
    top = _apply_access_paths(top, catalog, rewrites, use_stats, memo)
    for sub in subquery_plans:
        _apply_access_paths(sub, catalog, rewrites, use_stats, memo)
    return top
