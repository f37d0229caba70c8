"""The plan path every query takes after the planner: column pruning,
constant folding and index access paths — one path, no switch.

Pruning removes projection items (and aggregate outputs) whose keys are not
needed upstream.  It flows through inlined views/CTEs, filters and joins —
this is the "holistic query optimisation" that makes the VIEW mode faster
than the CTE mode in PostgreSQL (§6.6 of the paper) — and deliberately
stops at materialised-CTE boundaries (:class:`CteRef`), which is exactly
PostgreSQL 12's optimisation barrier.

:func:`fold_select` folds the constant subtrees of every expression
position on the AST by compiling them with the planner and running them
on one row, so a folded value is the one execution would compute.
:func:`optimize_select_plan` turns a filtered base-table scan into an
index probe wherever an index covers an equality, ``IN`` or (with
``ANALYZE`` statistics) selective range conjunct; a probe returns the
rows a scan + filter would, in the same order; an equality or ``IN``
value may be a statement parameter, read when the probe runs.  :func:`estimate_plan_rows` gives the row estimates
``EXPLAIN`` prints.

Fired rules (``constant-folding``, ``index-scan``) are append-logged by
name so ``EXPLAIN ANALYZE`` can report them.
"""

from __future__ import annotations

from typing import Any, Optional, get_args

from repro.sqldb import ast_nodes as ast
from repro.sqldb import vector
from repro.sqldb.catalog import Catalog, probe_compatible
from repro.sqldb.functions import is_aggregate
from repro.sqldb.plan import (
    Aggregate,
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
    combine_conjuncts,
)
from repro.sqldb.planner import Planner, Scope, _item_name

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

#: the expressions computed from their children alone: not a literal
#: (folded already), nor one that reads a row, a parameter or a query, or
#: is computed over many rows (an aggregate call is told apart by name)
_COMPUTED = frozenset(get_args(ast.Expr)) - {
    ast.Literal, ast.ColumnRef, ast.Parameter, ast.Star,
    ast.ScalarSubquery, ast.WindowCall,
}


def _evaluate(expr: ast.Expr, planner: Planner) -> Optional[ast.Literal]:
    """*expr* (whose children are literals) as the literal the planner's
    compiled expression computes on one row; None when it raises, when
    the literal would not rebuild the computed vector's dtype and
    text-ness (a typed NULL), or when the value is no scalar (an array,
    or mixed-type object cells)."""
    try:
        computed = planner.compile_expr(expr, Scope(), {})(Batch(1), None)
        value = computed.item(0)
        rebuilt = vector.constant(value, 1)
    except Exception:
        return None
    if (
        rebuilt.values.dtype != computed.values.dtype
        or rebuilt.values.dtype == object
        or computed.is_array
        or rebuilt.is_text != computed.is_text
    ):
        return None
    return ast.Literal(value)


def _fold_computed(expr: ast.Expr, planner: Planner) -> ast.Expr:
    """*expr* (its children folded) as a literal where it folds."""
    parts = ast.children(expr)
    if all(type(part) is ast.Literal for part in parts) and not (
        type(expr) is ast.FuncCall and is_aggregate(expr.name)
    ):
        literal = _evaluate(expr, planner)
        if literal is not None:
            return literal
    if type(expr) is ast.BinaryOp and expr.op in ("and", "or"):
        absorbing = expr.op == "or"  # FALSE absorbs AND, TRUE absorbs OR
        for part in parts:
            if type(part) is ast.Literal and part.value is absorbing:
                return part
    return expr


def fold_select(
    select: ast.Select, planner: Planner
) -> tuple[ast.Select, bool]:
    """Constant-fold every expression position of a SELECT (items, WHERE,
    ON, GROUP BY, HAVING, ORDER BY, window specs, CTE bodies, subqueries,
    UNION ALL arms) without mutating it: cached ASTs are shared.

    Bottom-up, like PostgreSQL's ``eval_const_expressions``: a node whose
    children are all literals is compiled by *planner* and run on one
    row, so a folded literal is the value execution would compute, and
    GROUP BY still matches the select list and HAVING because every
    position folds alike.  ``x AND FALSE`` and ``x OR TRUE`` short-circuit.
    An unaliased item that folds keeps the name it had.  Returns
    ``(folded, changed)``; when nothing folds, *select* itself.
    """

    def fold(node: Any) -> Any:
        new = ast.map_children(node, fold)
        kind = type(new)
        if kind in _COMPUTED:
            return _fold_computed(new, planner)
        if kind is ast.SelectItem and new is not node and new.alias is None:
            new.alias = _item_name(node)
        return new

    folded = fold(select)
    return folded, folded is not select


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


def _column_stats(
    key: Optional[str], prov: dict[str, tuple[str, str]], catalog: Catalog
):
    """``ANALYZE`` statistics of the base column batch key *key* passes
    through, None when unknown."""
    source = prov.get(key) if key is not None else None
    if source is None:
        return None
    table_stats = catalog.table_stats(source[0])
    return None if table_stats is None else table_stats.columns.get(source[1])


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
    stats = _column_stats(key, prov, catalog)
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
    column = _column_stats(expr.is_column, prov, catalog)
    return 0.0 if column is None else float(max(column.ndv, 0))


def _table_rows(catalog: Catalog, table_name: str) -> float:
    stats = catalog.table_stats(table_name)
    if stats is not None:
        return float(stats.n_rows)
    try:
        return float(catalog.table(table_name).n_rows)
    except Exception:
        return 0.0


def _index_scan_rows(plan: IndexScan, catalog: Catalog) -> float:
    """Rows an index probe is expected to return: the table's rows times
    what its absorbed conjuncts keep (a unique equality probe: one)."""
    kind, operand = plan.lookup
    if kind == "eq" and any(
        index.name == plan.index_name and index.unique
        for index in catalog.indexes_on(plan.table_name)
    ):
        return 1.0
    rows = _table_rows(catalog, plan.table_name)
    prov = {
        key: (plan.table_name, column)
        for column, key in {**plan.keys, **plan.conjunct_keys}.items()
    }
    if kind == "range":
        lo, _, hi, _ = operand
        column = prov[plan.conjuncts[0].cmp[1]][1]
        fraction = _range_probe_fraction(catalog, plan.table_name, column, lo, hi)
        return rows * (
            _DEFAULT_SELECTIVITY["between"] if fraction is None else fraction
        )
    for conjunct in plan.conjuncts:
        rows *= _conjunct_selectivity(conjunct, prov, catalog)
    return rows


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
        rows = _table_rows(catalog, plan.table_name)
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
        rows = _index_scan_rows(plan, catalog)
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
                column = _column_stats(expr.is_column, prov, catalog)
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
        elif len(index.columns) == 1 and (
            index.columns[0] in lowers or index.columns[0] in uppers
        ):
            column = index.columns[0]
            low = lowers.get(column)
            high = uppers.get(column)
            lo_value, lo_inclusive = low[1:] if low else (None, False)
            hi_value, hi_inclusive = high[1:] if high else (None, False)
            fraction = _range_probe_fraction(
                catalog, scan.table_name, column, lo_value, hi_value
            )
            if fraction is not None and fraction <= 0.25:
                bounds = (lo_value, lo_inclusive, hi_value, hi_inclusive)
                used = {bound[0] for bound in (low, high) if bound}
                candidate = ((3, 0), index, ("range", bounds), used)
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
    low: Any,
    high: Any,
) -> Optional[float]:
    """Estimated kept fraction of a range probe; None = not estimable.

    Range probes are only worth taking when selective, and selectivity is
    only credible with ANALYZE statistics — without them this returns
    None and the scan+filter plan stands.
    """
    if low is None and high is None:
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
        else _range_fraction(low, stats.min_value, stats.max_value)
    )
    f_high = (
        1.0
        if high is None
        else _range_fraction(high, stats.min_value, stats.max_value)
    )
    if f_low is None or f_high is None:
        return None
    return max(0.0, f_high - f_low) * (1.0 - stats.null_fraction)


def _apply_access_paths(
    plan: PlanNode,
    catalog: Catalog,
    rewrites: list[str],
    memo: dict[int, PlanNode],
) -> PlanNode:
    """Bottom-up walk converting filtered scans into index probes.

    Shared CTE bodies (reached through ``CteRef``) are rewritten once and
    every reference is repointed at the same rewritten body, preserving
    the compute-once contract."""
    cached = memo.get(id(plan))
    if cached is not None:
        return cached

    def visit(node: PlanNode) -> PlanNode:
        return _apply_access_paths(node, catalog, rewrites, memo)

    original = plan
    if isinstance(plan, CteRef):
        plan.plan = visit(plan.plan)
    elif isinstance(plan, Join):
        plan.left, plan.right = visit(plan.left), visit(plan.right)
    elif isinstance(plan, UnionAll):
        plan.parts = [visit(part) for part in plan.parts]
    elif isinstance(plan, Filter):
        plan.child = visit(plan.child)
        if isinstance(plan.child, ScanTable):
            replaced = _try_index_scan(plan, plan.child, catalog, rewrites)
            if replaced is not None:
                plan = replaced
    elif hasattr(plan, "child"):
        plan.child = visit(plan.child)  # type: ignore[attr-defined]
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
    memo: dict[int, PlanNode] = {}
    top = _apply_access_paths(top, catalog, rewrites, memo)
    for sub in subquery_plans:
        _apply_access_paths(sub, catalog, rewrites, memo)
    return top
