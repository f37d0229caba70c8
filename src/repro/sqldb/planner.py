"""Binder and planner: SQL AST → executable plan.

Responsibilities:

* name resolution (tables, views, CTEs, columns, ``*`` expansion);
* CTE strategy: a CTE is either *inlined* (planned afresh at every
  reference, allowing holistic optimisation — Umbra's behaviour and
  PostgreSQL's for ``NOT MATERIALIZED``) or *materialised* (planned once,
  computed once per query, and acting as an optimisation barrier —
  PostgreSQL 12's default, see §3.4.1 of the paper);
* compilation of scalar expressions to vectorised closures;
* decomposition of join conditions into (null-safe) equi-keys plus a
  residual predicate;
* grouping/aggregation rewriting.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional

import numpy as np

from repro.errors import SQLBindError
from repro.sqldb import ast_nodes as ast
from repro.sqldb import functions, vector
from repro.sqldb.catalog import CTID, Catalog, Table, View
from repro.sqldb.plan import (
    Aggregate,
    AggregateItem,
    Batch,
    CompiledExpr,
    CteRef,
    Distinct,
    Filter,
    Join,
    Limit,
    OneRow,
    OutputColumn,
    PlanNode,
    Project,
    ScanSnapshot,
    ScanTable,
    Sort,
    UnionAll,
    column_passthrough,
    combine_conjuncts,
    parameter_value,
)
from repro.sqldb.profile import Profile
from repro.sqldb.vector import Vector, constant

__all__ = ["Planner", "check_row_expression"]


@dataclass
class ScopeEntry:
    alias: Optional[str]
    name: str
    key: str
    hidden: bool = False


@dataclass
class Scope:
    entries: list[ScopeEntry] = field(default_factory=list)

    def resolve(self, name: str, table: Optional[str] = None) -> str:
        hits = [
            e
            for e in self.entries
            if e.name == name and (table is None or e.alias == table)
        ]
        if not hits:
            where = f"{table}.{name}" if table else name
            raise SQLBindError(f"column {where!r} does not exist")
        if len(hits) > 1 and table is None:
            raise SQLBindError(f"column reference {name!r} is ambiguous")
        return hits[0].key

    def expand_star(self, table: Optional[str] = None) -> list[tuple[str, str]]:
        out = [
            (e.name, e.key)
            for e in self.entries
            if not e.hidden and (table is None or e.alias == table)
        ]
        if table is not None and not out:
            raise SQLBindError(f"unknown table alias {table!r} in star expansion")
        return out

    def merged_with(self, other: "Scope") -> "Scope":
        return Scope(self.entries + other.entries)


@dataclass
class _CteInfo:
    name: str
    select: ast.Select
    barrier: bool  # True = materialised CTE (PG12 optimisation barrier)
    env: dict[str, "_CteInfo"]
    plan: Optional[PlanNode] = None  # shared plan, built lazily on first use


def _split_conjuncts(expr: ast.Expr) -> list[ast.Expr]:
    if isinstance(expr, ast.BinaryOp) and expr.op == "and":
        return _split_conjuncts(expr.left) + _split_conjuncts(expr.right)
    return [expr]


#: comparison operator when the column moves to the left-hand side
_FLIP = {"=": "=", "<>": "<>", "<": ">", "<=": ">=", ">": "<", ">=": "<="}


def _is_value(expr: ast.Expr) -> bool:
    """A literal or a statement parameter: a comparison operand whose
    value is known when the statement runs (``cmp`` metadata)."""
    return isinstance(expr, (ast.Literal, ast.Parameter))


def _value(expr: ast.Literal | ast.Parameter) -> Any:
    """A literal's value; a parameter stands for itself until bound."""
    return expr.value if isinstance(expr, ast.Literal) else expr


def _collect_aggregates(expr: ast.Expr, found: list[ast.FuncCall]) -> None:
    """Gather top-level aggregate calls (not descending into subqueries
    or window calls)."""
    if type(expr) is ast.FuncCall and functions.is_aggregate(expr.name):
        if expr not in found:
            found.append(expr)
        nested: list[ast.FuncCall] = []
        for arg in expr.args:
            _collect_aggregates(arg, nested)
        if nested:
            raise SQLBindError("aggregate calls cannot be nested")
        return
    if not isinstance(expr, (ast.ScalarSubquery, ast.WindowCall)):
        for child in ast.children(expr):
            _collect_aggregates(child, found)


def check_row_expression(expr: ast.Expr) -> None:
    """Raise unless *expr* is computed row by row: an UPDATE assignment,
    which runs as a select item, must not aggregate or window."""
    if isinstance(expr, ast.WindowCall):
        raise SQLBindError(
            "window functions are only allowed as top-level select items"
        )
    found: list[ast.FuncCall] = []
    _collect_aggregates(expr, found)
    if found:
        raise SQLBindError(
            f"aggregate {found[0].name}() is not allowed in this context"
        )


def _item_name(item: ast.SelectItem) -> str:
    if item.alias:
        return item.alias
    if isinstance(item.expr, ast.ColumnRef):
        return item.expr.name
    if isinstance(item.expr, (ast.FuncCall, ast.WindowCall)):
        return item.expr.name
    return "?column?"


class Planner:
    """Stateful planner; one instance per statement execution."""

    def __init__(self, catalog: Catalog, profile: Profile) -> None:
        self._catalog = catalog
        self._profile = profile
        self._counter = 0
        #: shared CTE/view plans in creation order: (name, plan, barrier)
        self.shared_plans: list[tuple[str, PlanNode, bool]] = []
        #: scalar-subquery plans (for post-pass pruning of shared plans)
        self.subquery_plans: list[PlanNode] = []
        self._view_plans: dict[str, PlanNode] = {}

    def _fresh(self) -> str:
        self._counter += 1
        return f"c{self._counter}"

    def _shared_ref(
        self, name: str, plan: PlanNode, binding: str, barrier: bool
    ) -> tuple[PlanNode, Scope]:
        """Build a CteRef to a shared plan with fresh output keys."""
        rename: dict[str, str] = {}
        schema: list[OutputColumn] = []
        entries: list[ScopeEntry] = []
        for out in plan.schema:
            key = self._fresh()
            rename[out.key] = key
            schema.append(OutputColumn(out.name, key, out.hidden))
            entries.append(ScopeEntry(binding, out.name, key, out.hidden))
        node = CteRef(name, plan, rename, schema, barrier)
        return node, Scope(entries)

    # -- public entry ------------------------------------------------------

    def plan_select(
        self, select: ast.Select, env: Optional[dict[str, _CteInfo]] = None
    ) -> PlanNode:
        env = dict(env or {})
        for cte in select.ctes:
            barrier = cte.materialized
            if barrier is None:
                barrier = self._profile.materialize_ctes_by_default
            env[cte.name] = _CteInfo(cte.name, cte.query, barrier, dict(env))
        return self._plan_query_body(select, env)

    # -- FROM clause ----------------------------------------------------------

    def _plan_named_table(
        self, source: ast.NamedTable, env: dict[str, _CteInfo]
    ) -> tuple[PlanNode, Scope]:
        binding = source.binding_name
        info = env.get(source.name)
        if info is not None:
            if info.plan is None:
                info.plan = self.plan_select(info.select, info.env)
                self.shared_plans.append((info.name, info.plan, info.barrier))
            return self._shared_ref(
                source.name, info.plan, binding, info.barrier
            )
        relation = self._catalog.resolve(source.name)
        if isinstance(relation, Table):
            keys = {name: self._fresh() for name in relation.column_names}
            keys[CTID] = self._fresh()
            schema = [
                OutputColumn(name, keys[name]) for name in relation.column_names
            ]
            schema.append(OutputColumn(CTID, keys[CTID], hidden=True))
            node = ScanTable(relation.name, schema, keys)
            entries = [
                ScopeEntry(binding, out.name, out.key, out.hidden) for out in schema
            ]
            return node, Scope(entries)
        view: View = relation
        if view.materialized:
            if view.snapshot is None:
                raise SQLBindError(
                    f"materialized view {view.name!r} has not been populated"
                )
            names, _, _ = view.snapshot
            keys = {name: self._fresh() for name in names}
            schema = [OutputColumn(name, keys[name]) for name in names]
            node = ScanSnapshot(view.name, schema, keys)
            entries = [ScopeEntry(binding, n, keys[n]) for n in names]
            return node, Scope(entries)
        plan = self._view_plans.get(view.name)
        if plan is None:
            # a stored body folds like the statement around it (a lazy
            # import: the optimizer imports this module at load time)
            from repro.sqldb.optimizer import fold_select

            plan = self.plan_select(fold_select(view.query, self)[0], {})
            self._view_plans[view.name] = plan
            self.shared_plans.append((view.name, plan, False))
        return self._shared_ref(view.name, plan, binding, barrier=False)

    def _plan_source(
        self, source: ast.TableSource, env: dict[str, _CteInfo]
    ) -> tuple[PlanNode, Scope]:
        if isinstance(source, ast.NamedTable):
            return self._plan_named_table(source, env)
        if isinstance(source, ast.SubquerySource):
            plan = self.plan_select(source.query, env)
            entries = [
                ScopeEntry(source.alias, out.name, out.key, out.hidden)
                for out in plan.schema
            ]
            return plan, Scope(entries)
        if isinstance(source, ast.JoinSource):
            return self._plan_join(source, env)
        raise SQLBindError(f"unsupported FROM element {type(source).__name__}")

    def _plan_join(
        self, source: ast.JoinSource, env: dict[str, _CteInfo]
    ) -> tuple[PlanNode, Scope]:
        left, left_scope = self._plan_source(source.left, env)
        right, right_scope = self._plan_source(source.right, env)
        combined = left_scope.merged_with(right_scope)
        left_keys: list[CompiledExpr] = []
        right_keys: list[CompiledExpr] = []
        null_safe: list[bool] = []
        residuals: list[ast.Expr] = []
        if source.condition is not None:
            left_key_set = {out.key for out in left.schema}
            right_key_set = {out.key for out in right.schema}
            for conjunct in _split_conjuncts(source.condition):
                pair = self._match_equi(conjunct)
                if pair is not None:
                    a_expr, b_expr, is_null_safe = pair
                    a = self.compile_expr(a_expr, combined, env)
                    b = self.compile_expr(b_expr, combined, env)
                    if a.refs <= left_key_set and b.refs <= right_key_set:
                        left_keys.append(a)
                        right_keys.append(b)
                        null_safe.append(is_null_safe)
                        continue
                    if a.refs <= right_key_set and b.refs <= left_key_set:
                        left_keys.append(b)
                        right_keys.append(a)
                        null_safe.append(is_null_safe)
                        continue
                residuals.append(conjunct)
        residual = None
        if residuals:
            combined_expr = residuals[0]
            for extra in residuals[1:]:
                combined_expr = ast.BinaryOp("and", combined_expr, extra)
            residual = self.compile_expr(combined_expr, combined, env)
        # the join's key columns in batches are produced by evaluating the
        # key expressions; the executor evaluates them on each side
        node = Join(
            left,
            right,
            source.kind,
            left_keys,  # type: ignore[arg-type]
            right_keys,  # type: ignore[arg-type]
            null_safe,
            residual,
            schema=left.schema + right.schema,
        )
        return node, combined

    @staticmethod
    def _match_equi(
        conjunct: ast.Expr,
    ) -> Optional[tuple[ast.Expr, ast.Expr, bool]]:
        """Recognise ``a = b`` and the null-safe ``a = b OR (a IS NULL AND b IS NULL)``."""
        if isinstance(conjunct, ast.BinaryOp) and conjunct.op == "=":
            return conjunct.left, conjunct.right, False
        if isinstance(conjunct, ast.BinaryOp) and conjunct.op == "or":
            eq, nulls = conjunct.left, conjunct.right
            if not (isinstance(eq, ast.BinaryOp) and eq.op == "="):
                eq, nulls = nulls, eq
            if (
                isinstance(eq, ast.BinaryOp)
                and eq.op == "="
                and isinstance(nulls, ast.BinaryOp)
                and nulls.op == "and"
                and {nulls.left, nulls.right}
                == {ast.IsNull(eq.left), ast.IsNull(eq.right)}
            ):
                return eq.left, eq.right, True
        return None

    # -- query body ---------------------------------------------------------------

    def _plan_query_body(
        self, select: ast.Select, env: dict[str, _CteInfo]
    ) -> PlanNode:
        if select.sources:
            child, scope = self._plan_source(select.sources[0], env)
            for extra in select.sources[1:]:
                right, right_scope = self._plan_source(extra, env)
                child = Join(
                    child,
                    right,
                    "cross",
                    schema=child.schema + right.schema,
                )
                scope = scope.merged_with(right_scope)
        else:
            child, scope = OneRow(schema=[]), Scope()

        if select.where is not None:
            conjuncts = [
                self.compile_expr(part, scope, env)
                for part in _split_conjuncts(select.where)
            ]
            child = Filter(
                child,
                combine_conjuncts(conjuncts),
                schema=child.schema,
                conjuncts=conjuncts,
            )

        agg_calls: list[ast.FuncCall] = []
        for item in select.items:
            _collect_aggregates(item.expr, agg_calls)
        if select.having is not None:
            _collect_aggregates(select.having, agg_calls)

        replace: dict[ast.Expr, str] = {}
        if select.group_by or agg_calls:
            child, scope, replace = self._plan_aggregate(
                child, scope, select, agg_calls, env
            )

        child = self._plan_projection(child, scope, select, replace, env)

        if select.distinct:
            child = Distinct(child, schema=child.schema)

        if select.union_all:
            width = sum(not out.hidden for out in child.schema)
            parts = [child]
            for arm in select.union_all:
                other = self._plan_query_body(arm, env)
                if sum(not out.hidden for out in other.schema) != width:
                    raise SQLBindError("UNION ALL arms have different arity")
                parts.append(other)
            child = UnionAll(parts, schema=child.schema)

        if select.order_by:
            child = self._plan_order_by(child, scope, select, replace, env)

        if select.limit is not None or select.offset is not None:
            child = Limit(
                child, select.limit, select.offset or 0, schema=child.schema
            )
        return child

    def _plan_aggregate(
        self,
        child: PlanNode,
        scope: Scope,
        select: ast.Select,
        agg_calls: list[ast.FuncCall],
        env: dict[str, _CteInfo],
    ) -> tuple[PlanNode, Scope, dict[ast.Expr, str]]:
        groups: list[tuple[OutputColumn, CompiledExpr]] = []
        replace: dict[ast.Expr, str] = {}
        for i, expr in enumerate(select.group_by):
            compiled = self.compile_expr(expr, scope, env)
            name = expr.name if isinstance(expr, ast.ColumnRef) else f"group_{i}"
            out = OutputColumn(name, self._fresh())
            groups.append((out, compiled))
            replace[expr] = out.key
            if isinstance(expr, ast.ColumnRef) and expr.table is not None:
                # allow unqualified references to a qualified group key
                replace.setdefault(ast.ColumnRef(expr.name), out.key)
        aggregates: list[AggregateItem] = []
        for call in agg_calls:
            arg = None
            if not call.star:
                if len(call.args) != 1:
                    raise SQLBindError(
                        f"aggregate {call.name} takes exactly one argument"
                    )
                arg = self.compile_expr(call.args[0], scope, env)
            where = None
            if call.filter_where is not None:
                nested: list[ast.FuncCall] = []
                _collect_aggregates(call.filter_where, nested)
                if nested:
                    raise SQLBindError(
                        "aggregate functions are not allowed in FILTER"
                    )
                where = self.compile_expr(call.filter_where, scope, env)
            out = OutputColumn(call.name, self._fresh())
            aggregates.append(
                AggregateItem(out, call.name, arg, call.distinct, where)
            )
            replace[call] = out.key
        schema = [out for out, _ in groups] + [item.out for item in aggregates]
        node = Aggregate(child, groups, aggregates, schema=schema)
        # post-aggregation scope exposes only the grouped keys by name
        agg_scope = Scope(
            [ScopeEntry(None, out.name, out.key) for out, _ in groups]
        )
        if select.having is not None:
            conjuncts = [
                self.compile_expr(part, agg_scope, env, replace)
                for part in _split_conjuncts(select.having)
            ]
            filtered = Filter(
                node,
                combine_conjuncts(conjuncts),
                schema=node.schema,
                conjuncts=conjuncts,
            )
            return filtered, agg_scope, replace
        return node, agg_scope, replace

    def _plan_order_by(
        self,
        child: PlanNode,
        scope: Scope,
        select: ast.Select,
        replace: dict[ast.Expr, str],
        env: dict[str, _CteInfo],
    ) -> PlanNode:
        """Sort on output columns, falling back to input columns.

        SQL allows ``ORDER BY`` to reference both the select-list outputs
        and the underlying input columns; for the latter the projection is
        extended with hidden pass-through items (PostgreSQL does the same
        internally).
        """
        out_scope = Scope(
            [ScopeEntry(None, o.name, o.key, o.hidden) for o in child.schema]
        )
        keys: list[tuple[CompiledExpr, bool, Optional[bool]]] = []
        for order in select.order_by:
            try:
                compiled = self.compile_expr(order.expr, out_scope, env)
            except SQLBindError:
                compiled = self.compile_expr(order.expr, scope, env, replace)
                if isinstance(child, Project):
                    present = {out.key for out in child.schema}
                    for ref in sorted(compiled.refs - present):
                        out = OutputColumn(f"_order_{ref}", ref, hidden=True)
                        child.items.append((out, self._column_passthrough(ref)))
                        child.schema.append(out)
                else:
                    raise
            keys.append((compiled, order.ascending, order.nulls_first))
        return Sort(child, keys, schema=child.schema)

    _WINDOW_FUNCS = {"rank", "dense_rank", "row_number"}

    def _plan_window_items(
        self,
        child: PlanNode,
        scope: Scope,
        select: ast.Select,
        replace: dict[ast.Expr, str],
        env: dict[str, _CteInfo],
    ) -> tuple[PlanNode, dict[ast.Expr, str]]:
        """Insert a Window node for rank/row_number select items."""
        from repro.sqldb.plan import Window, WindowItem

        items: list[WindowItem] = []
        window_replace = dict(replace)
        for item in select.items:
            expr = item.expr
            if not isinstance(expr, ast.WindowCall):
                continue
            if expr.name not in self._WINDOW_FUNCS:
                raise SQLBindError(
                    f"unsupported window function {expr.name!r}"
                )
            out = OutputColumn(item.alias or expr.name, self._fresh())
            items.append(
                WindowItem(
                    out,
                    expr.name,
                    [
                        self.compile_expr(p, scope, env, replace)
                        for p in expr.partition_by
                    ],
                    [
                        (self.compile_expr(o, scope, env, replace), asc)
                        for o, asc in expr.order_by
                    ],
                )
            )
            window_replace[expr] = out.key
        if not items:
            return child, replace
        node = Window(
            child, items, schema=child.schema + [i.out for i in items]
        )
        return node, window_replace

    def _plan_projection(
        self,
        child: PlanNode,
        scope: Scope,
        select: ast.Select,
        replace: dict[ast.Expr, str],
        env: dict[str, _CteInfo],
    ) -> PlanNode:
        child, replace = self._plan_window_items(
            child, scope, select, replace, env
        )
        items: list[tuple[OutputColumn, CompiledExpr]] = []
        unnest_keys: list[str] = []
        names_seen: dict[str, int] = {}

        def _add(name: str, compiled: CompiledExpr, hidden: bool = False) -> OutputColumn:
            names_seen[name] = names_seen.get(name, 0) + 1
            out = OutputColumn(name, self._fresh(), hidden)
            items.append((out, compiled))
            return out

        for item in select.items:
            if isinstance(item.expr, ast.Star):
                for name, key in scope.expand_star(item.expr.table):
                    _add(name, self._column_passthrough(key))
                continue
            expr = item.expr
            if (
                isinstance(expr, ast.FuncCall)
                and expr.name == "unnest"
                and not expr.star
            ):
                if len(expr.args) != 1:
                    raise SQLBindError("unnest takes exactly one argument")
                compiled = self.compile_expr(expr.args[0], scope, env, replace)
                out = _add(item.alias or "unnest", compiled)
                unnest_keys.append(out.key)
                continue
            compiled = self.compile_expr(expr, scope, env, replace)
            _add(_item_name(item), compiled)
        schema = [out for out, _ in items]
        return Project(child, items, unnest_keys, schema=schema)

    @staticmethod
    def _column_passthrough(key: str) -> CompiledExpr:
        return column_passthrough(key)

    # -- expression compilation --------------------------------------------------

    def compile_expr(
        self,
        expr: ast.Expr,
        scope: Scope,
        env: dict[str, _CteInfo],
        replace: Optional[dict[ast.Expr, str]] = None,
    ) -> CompiledExpr:
        if replace:
            try:
                key = replace.get(expr)
            except TypeError:
                key = None
            if key is not None:
                return self._column_passthrough(key)

        if isinstance(expr, ast.Literal):
            value = expr.value

            def fn_literal(batch: Batch, ctx: Any) -> Vector:
                return constant(value, batch.length)

            return CompiledExpr(
                fn_literal, frozenset(), text=repr(value), cmp=("const", None, value)
            )

        if isinstance(expr, ast.Parameter):
            index = expr.index

            def fn_param(batch: Batch, ctx: Any) -> Vector:
                return constant(
                    parameter_value(ctx.params, index), batch.length
                )

            return CompiledExpr(fn_param, frozenset(), text=f"${index + 1}")

        if isinstance(expr, ast.ColumnRef):
            key = scope.resolve(expr.name, expr.table)
            written = f"{expr.table}.{expr.name}" if expr.table else expr.name
            return column_passthrough(key, written)

        if isinstance(expr, ast.BinaryOp):
            return self._compile_binary(expr, scope, env, replace)

        if isinstance(expr, ast.UnaryOp):
            operand = self.compile_expr(expr.operand, scope, env, replace)
            if expr.op == "not":
                return CompiledExpr(
                    lambda b, c: vector.logical_not(operand(b, c)),
                    operand.refs,
                    text=f"NOT {operand.text}",
                )
            if expr.op == "-":
                minus_one = CompiledExpr(
                    lambda b, c: constant(-1, b.length), frozenset()
                )
                return CompiledExpr(
                    lambda b, c: vector.arithmetic("*", operand(b, c), minus_one(b, c)),
                    operand.refs,
                    text=f"-{operand.text}",
                )
            raise SQLBindError(f"unsupported unary operator {expr.op!r}")

        if isinstance(expr, ast.IsNull):
            operand = self.compile_expr(expr.operand, scope, env, replace)
            negated = expr.negated

            def fn_isnull(batch: Batch, ctx: Any) -> Vector:
                value = operand(batch, ctx)
                flags = value.nulls.copy()
                if negated:
                    flags = ~flags
                return Vector(flags, np.zeros(len(flags), dtype=bool))

            cmp = None
            if operand.is_column is not None:
                cmp = ("notnull" if negated else "isnull", operand.is_column, None)
            return CompiledExpr(
                fn_isnull, operand.refs, text=f"{operand.text} IS NULL", cmp=cmp
            )

        if isinstance(expr, ast.InList):
            return self._compile_in_list(expr, scope, env, replace)

        if isinstance(expr, ast.Between):
            operand = self.compile_expr(expr.operand, scope, env, replace)
            low = self.compile_expr(expr.low, scope, env, replace)
            high = self.compile_expr(expr.high, scope, env, replace)
            negated = expr.negated

            def fn_between(batch: Batch, ctx: Any) -> Vector:
                value = operand(batch, ctx)
                result = vector.logical_and(
                    vector.compare(">=", value, low(batch, ctx)),
                    vector.compare("<=", value, high(batch, ctx)),
                )
                return vector.logical_not(result) if negated else result

            cmp = None
            if (
                not negated
                and operand.is_column is not None
                and isinstance(expr.low, ast.Literal)
                and isinstance(expr.high, ast.Literal)
            ):
                cmp = (
                    "between",
                    operand.is_column,
                    (expr.low.value, expr.high.value),
                )
            return CompiledExpr(
                fn_between,
                operand.refs | low.refs | high.refs,
                text="BETWEEN",
                cmp=cmp,
            )

        if isinstance(expr, ast.Case):
            return self._compile_case(expr, scope, env, replace)

        if isinstance(expr, ast.Cast):
            return self._compile_cast(expr, scope, env, replace)

        if isinstance(expr, ast.FuncCall):
            return self._compile_func(expr, scope, env, replace)

        if isinstance(expr, ast.ScalarSubquery):
            return self._compile_scalar_subquery(expr, env)

        if isinstance(expr, ast.WindowCall):
            raise SQLBindError(
                "window functions are only allowed as top-level select items"
            )
        if isinstance(expr, ast.Star):
            raise SQLBindError("'*' is only allowed in the select list")
        raise SQLBindError(f"unsupported expression {type(expr).__name__}")

    def _compile_binary(
        self,
        expr: ast.BinaryOp,
        scope: Scope,
        env: dict[str, _CteInfo],
        replace: Optional[dict[ast.Expr, str]],
    ) -> CompiledExpr:
        left = self.compile_expr(expr.left, scope, env, replace)
        right = self.compile_expr(expr.right, scope, env, replace)
        refs = left.refs | right.refs
        op = expr.op
        text = f"({left.text} {op} {right.text})"
        if op == "and":
            return CompiledExpr(
                lambda b, c: vector.logical_and(left(b, c), right(b, c)), refs, text
            )
        if op == "or":
            return CompiledExpr(
                lambda b, c: vector.logical_or(left(b, c), right(b, c)), refs, text
            )
        if op in ("=", "<>", "<", "<=", ">", ">="):
            cmp = None
            if left.is_column is not None and _is_value(expr.right):
                cmp = (op, left.is_column, _value(expr.right))
            elif right.is_column is not None and _is_value(expr.left):
                cmp = (_FLIP[op], right.is_column, _value(expr.left))
            return CompiledExpr(
                lambda b, c: vector.compare(op, left(b, c), right(b, c)),
                refs,
                text,
                cmp=cmp,
            )
        if op == "like":
            return CompiledExpr(
                lambda b, c: functions.like(left(b, c), right(b, c)), refs, text
            )
        if op in ("+", "-", "*", "/", "%", "||"):
            return CompiledExpr(
                lambda b, c: vector.arithmetic(op, left(b, c), right(b, c)), refs, text
            )
        raise SQLBindError(f"unsupported binary operator {op!r}")

    def _compile_in_list(
        self,
        expr: ast.InList,
        scope: Scope,
        env: dict[str, _CteInfo],
        replace: Optional[dict[ast.Expr, str]],
    ) -> CompiledExpr:
        operand = self.compile_expr(expr.operand, scope, env, replace)
        items = [self.compile_expr(i, scope, env, replace) for i in expr.items]
        refs = operand.refs.union(*[i.refs for i in items]) if items else operand.refs
        negated = expr.negated

        def fn_in(batch: Batch, ctx: Any) -> Vector:
            value = operand(batch, ctx)
            result = None
            for item in items:
                comparison = vector.compare("=", value, item(batch, ctx))
                result = (
                    comparison
                    if result is None
                    else vector.logical_or(result, comparison)
                )
            assert result is not None
            return vector.logical_not(result) if negated else result

        cmp = None
        if (
            not negated
            and operand.is_column is not None
            and all(map(_is_value, expr.items))
        ):
            cmp = ("in", operand.is_column, tuple(map(_value, expr.items)))
        return CompiledExpr(fn_in, refs, text="IN (...)", cmp=cmp)

    def _compile_case(
        self,
        expr: ast.Case,
        scope: Scope,
        env: dict[str, _CteInfo],
        replace: Optional[dict[ast.Expr, str]],
    ) -> CompiledExpr:
        whens = [
            (
                self.compile_expr(cond, scope, env, replace),
                self.compile_expr(result, scope, env, replace),
            )
            for cond, result in expr.whens
        ]
        else_compiled = (
            self.compile_expr(expr.else_, scope, env, replace)
            if expr.else_ is not None
            else None
        )
        refs: frozenset[str] = frozenset()
        for cond, result in whens:
            refs = refs | cond.refs | result.refs
        if else_compiled is not None:
            refs = refs | else_compiled.refs

        def fn_case(batch: Batch, ctx: Any) -> Vector:
            remaining = np.ones(batch.length, dtype=bool)
            out_values: Optional[np.ndarray] = None
            out_nulls = np.ones(batch.length, dtype=bool)

            def assign(mask: np.ndarray, branch: Vector) -> None:
                nonlocal out_values, out_nulls
                if out_values is None:
                    if branch.dictionary is not None:
                        out_values = np.zeros(batch.length, dtype=np.int32)
                    elif branch.values.dtype.kind in ("f", "i", "u"):
                        out_values = np.full(batch.length, np.nan)
                    elif branch.values.dtype.kind == "b":
                        out_values = np.zeros(batch.length, dtype=bool)
                    else:
                        out_values = np.empty(batch.length, dtype=object)
                if out_values.dtype != object and branch.values.dtype == object:
                    out_values = out_values.astype(object)
                if out_values.dtype == object and branch.values.dtype != object:
                    out_values[mask] = branch.values.astype(object)[mask]
                else:
                    out_values[mask] = branch.values.astype(
                        out_values.dtype, copy=False
                    )[mask]
                out_nulls[mask] = branch.nulls[mask]

            picks: list[tuple[np.ndarray, Vector]] = []
            for cond, result in whens:
                if not remaining.any():
                    break
                predicate = cond(batch, ctx)
                hit = predicate.values.astype(bool) & ~predicate.nulls & remaining
                if hit.any():
                    picks.append((hit, result(batch, ctx)))
                remaining = remaining & ~hit
            if else_compiled is not None and remaining.any():
                picks.append((remaining, else_compiled(batch, ctx)))
            if any(branch.is_array for _, branch in picks):
                # arrays: each row's run of elements from its branch
                which = np.full(batch.length, -1, dtype=np.int64)
                for k, (mask, _) in enumerate(picks):
                    which[mask] = k
                return vector.choose([branch for _, branch in picks], which)
            # text branches meet in one dictionary before their rows mix
            branches = vector.align([branch for _, branch in picks])
            for (mask, _), branch in zip(picks, branches):
                assign(mask, branch)
            if out_values is None:
                out_values = np.full(batch.length, np.nan)
            dictionary = branches[0].dictionary if branches else None
            return Vector(out_values, out_nulls, dictionary)

        return CompiledExpr(fn_case, refs, text="CASE")

    def _compile_cast(
        self,
        expr: ast.Cast,
        scope: Scope,
        env: dict[str, _CteInfo],
        replace: Optional[dict[ast.Expr, str]],
    ) -> CompiledExpr:
        operand = self.compile_expr(expr.operand, scope, env, replace)
        storage = vector.normalise_type(expr.type_name)  # raises at plan time
        return CompiledExpr(
            lambda b, c: vector.assign(operand(b, c), storage),
            operand.refs,
            text=f"{operand.text}::{expr.type_name}",
        )

    def _compile_func(
        self,
        expr: ast.FuncCall,
        scope: Scope,
        env: dict[str, _CteInfo],
        replace: Optional[dict[ast.Expr, str]],
    ) -> CompiledExpr:
        if functions.is_aggregate(expr.name):
            raise SQLBindError(
                f"aggregate {expr.name}() is not allowed in this context"
            )
        if expr.filter_where is not None:
            raise SQLBindError(
                f"FILTER is not allowed for the non-aggregate {expr.name}()"
            )
        if expr.name == "unnest":
            raise SQLBindError("unnest() is only allowed as a top-level select item")
        impl = functions.SCALAR_FUNCTIONS.get(expr.name)
        if impl is None:
            raise SQLBindError(f"unknown function {expr.name!r}")
        args = [self.compile_expr(a, scope, env, replace) for a in expr.args]
        refs: frozenset[str] = frozenset()
        for arg in args:
            refs = refs | arg.refs

        def fn_call(batch: Batch, ctx: Any) -> Vector:
            return impl([a(batch, ctx) for a in args])

        return CompiledExpr(fn_call, refs, text=f"{expr.name}(...)")

    def _compile_scalar_subquery(
        self, expr: ast.ScalarSubquery, env: dict[str, _CteInfo]
    ) -> CompiledExpr:
        plan = self.plan_select(expr.query, env)
        from repro.sqldb.optimizer import prune_plan

        plan = prune_plan(plan, {out.key for out in plan.schema if not out.hidden})
        self.subquery_plans.append(plan)

        def fn_subquery(batch: Batch, ctx: Any) -> Vector:
            value = ctx.scalar_subquery(plan)
            return constant(value, batch.length)

        return CompiledExpr(fn_subquery, frozenset(), text="(subquery)")
