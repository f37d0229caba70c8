"""Physical plan representation shared by planner and executor.

Concurrency contract: once built (and pruned by the optimizer), a plan is
immutable.  The executor never mutates plan nodes, which is what makes a
cached plan safe to re-execute — including concurrently from several
sessions' threads.  Per-execution state lives in ``ExecContext`` and
``Batch`` objects only.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Optional

from repro.errors import SQLBindError
from repro.sqldb.vector import Vector

__all__ = [
    "Aggregate",
    "AggregateItem",
    "Batch",
    "CompiledExpr",
    "CteRef",
    "column_passthrough",
    "combine_conjuncts",
    "Distinct",
    "Filter",
    "IndexScan",
    "Join",
    "Limit",
    "OneRow",
    "OutputColumn",
    "PlanNode",
    "Project",
    "ScanSnapshot",
    "ScanTable",
    "Sort",
    "UnionAll",
    "Window",
    "WindowItem",
]


@dataclass
class Batch:
    """A set of equally long column vectors keyed by unique plan keys."""

    length: int
    columns: dict[str, Vector] = field(default_factory=dict)


@dataclass(frozen=True)
class OutputColumn:
    """SQL-visible column name plus its unique key inside batches."""

    name: str
    key: str
    hidden: bool = False  # system columns (ctid) excluded from SELECT *


def parameter_value(params: tuple, index: int) -> Any:
    """The value bound to statement parameter ``$index+1``."""
    try:
        return params[index]
    except IndexError:
        raise SQLBindError(
            f"statement parameter ${index + 1} was not bound",
            sqlstate="42P02",  # undefined_parameter
        ) from None


@dataclass
class CompiledExpr:
    """A bound scalar expression: batch -> vector, with its key footprint."""

    fn: Callable
    refs: frozenset[str]
    text: str = "?"  # best-effort SQL text for EXPLAIN output
    #: source batch key when this expression is a bare column pass-through;
    #: lets row estimates trace a key back to its base-table column
    is_column: Optional[str] = None
    #: shape metadata for selectivity estimation and index matching:
    #: ``(op, key, operand)`` where op is a comparison operator,
    #: "isnull"/"notnull", "between" (operand = (lo, hi)), "in" (operand =
    #: tuple of values) or "const" (operand = the literal value); a
    #: comparison or "in" value may be an ``ast.Parameter``, bound later
    cmp: Optional[tuple] = None

    def __call__(self, batch: Batch, ctx) -> Vector:
        return self.fn(batch, ctx)


class PlanNode:
    """Base class; every node carries an output schema."""

    schema: list[OutputColumn]

    def children(self) -> list["PlanNode"]:
        return []

    def label(self) -> str:
        return type(self).__name__

    def to_text(self, indent: int = 0) -> str:
        lines = ["  " * indent + self.label()]
        for child in self.children():
            lines.append(child.to_text(indent + 1))
        return "\n".join(lines)


@dataclass
class ScanTable(PlanNode):
    table_name: str
    schema: list[OutputColumn] = field(default_factory=list)
    #: column name in storage -> batch key
    keys: dict[str, str] = field(default_factory=dict)

    def label(self) -> str:
        return f"ScanTable({self.table_name})"


@dataclass
class IndexScan(PlanNode):
    """Base-table access through a secondary index.

    The executor probes the index and gathers only the matching rows; the
    ascending-position contract of :class:`~repro.sqldb.catalog.Index`
    lookups makes the output row order identical to ``ScanTable`` +
    ``Filter`` over the same predicate.  An ``eq`` / ``in`` value may be a
    statement parameter (``ast.Parameter``), read from the bound
    parameters when the scan runs; a bound value that cannot probe (NULL,
    or text against a numeric key) runs the scan and the *conjuncts* the
    probe stands for instead.
    """

    table_name: str
    index_name: str
    #: probe spec: ``("eq", (v, ...))`` one value per index column,
    #: ``("in", (v, ...))`` membership over a single-column index, or
    #: ``("range", (lo, lo_incl, hi, hi_incl))`` over a sorted index
    lookup: tuple = ()
    schema: list[OutputColumn] = field(default_factory=list)
    #: column name in storage -> batch key
    keys: dict[str, str] = field(default_factory=dict)
    #: the filter conjuncts the probe answers, and the stored columns they
    #: read (storage name -> batch key), which *keys* need not hold
    conjuncts: list[CompiledExpr] = field(default_factory=list)
    conjunct_keys: dict[str, str] = field(default_factory=dict)

    def label(self) -> str:
        kind = self.lookup[0] if self.lookup else "?"
        return (
            f"IndexScan({self.table_name} using {self.index_name}, {kind})"
        )


@dataclass
class ScanSnapshot(PlanNode):
    """Scan of a materialised view's cached result."""

    view_name: str
    schema: list[OutputColumn] = field(default_factory=list)
    keys: dict[str, str] = field(default_factory=dict)  # snapshot key -> batch key

    def label(self) -> str:
        return f"ScanSnapshot({self.view_name})"


@dataclass
class CteRef(PlanNode):
    """Reference to a shared CTE/view plan (computed once per query).

    ``barrier=True`` marks a PostgreSQL-12-style materialised CTE: an
    optimisation barrier whose plan is kept at full width (no column
    pruning through it).  ``barrier=False`` marks an inlined CTE or view:
    the shared plan is pruned by the union of all references' needs
    (holistic optimisation).
    """

    cte_name: str
    plan: PlanNode
    #: plan output key -> this reference's fresh key
    rename: dict[str, str] = field(default_factory=dict)
    schema: list[OutputColumn] = field(default_factory=list)
    barrier: bool = True

    def children(self) -> list[PlanNode]:
        return [self.plan]

    def label(self) -> str:
        kind = "materialized" if self.barrier else "inlined"
        return f"CteRef({self.cte_name}, {kind})"


@dataclass
class Project(PlanNode):
    child: PlanNode
    items: list[tuple[OutputColumn, CompiledExpr]] = field(default_factory=list)
    #: keys of items wrapped in unnest() requiring row expansion
    unnest_keys: list[str] = field(default_factory=list)
    schema: list[OutputColumn] = field(default_factory=list)

    def children(self) -> list[PlanNode]:
        return [self.child]

    def label(self) -> str:
        names = ", ".join(out.name for out, _ in self.items[:8])
        suffix = ", ..." if len(self.items) > 8 else ""
        kind = "ProjectUnnest" if self.unnest_keys else "Project"
        return f"{kind}({names}{suffix})"


@dataclass
class Filter(PlanNode):
    child: PlanNode
    predicate: CompiledExpr = None  # type: ignore[assignment]
    schema: list[OutputColumn] = field(default_factory=list)
    #: AND-split predicate parts, in query order; with two or more entries
    #: the executor evaluates them sequentially (each on the survivors of
    #: the previous one), which keeps results identical to the combined
    #: predicate, and an index probe can take over some of them
    conjuncts: list[CompiledExpr] = field(default_factory=list)

    def __post_init__(self) -> None:
        if not self.conjuncts and self.predicate is not None:
            self.conjuncts = [self.predicate]

    def children(self) -> list[PlanNode]:
        return [self.child]

    def label(self) -> str:
        return f"Filter({self.predicate.text})"


def column_passthrough(key: str, text: Optional[str] = None) -> CompiledExpr:
    """A compiled expression that reads one batch column unchanged; *text*
    is the column as the query wrote it (``a``, ``t.a``) for EXPLAIN."""

    def fn(batch: Batch, ctx) -> Vector:
        return batch.columns[key]

    return CompiledExpr(
        fn, frozenset([key]), text=key if text is None else text, is_column=key
    )


def combine_conjuncts(conjuncts: list[CompiledExpr]) -> CompiledExpr:
    """AND-fold compiled conjuncts into one predicate expression.

    Left-folding over :func:`~repro.sqldb.vector.logical_and` matches what
    compiling the original ``AND`` tree produces (Kleene AND is associative
    and ``logical_and`` emits the normalised values/nulls representation).
    """
    if len(conjuncts) == 1:
        return conjuncts[0]
    from repro.sqldb.vector import logical_and

    refs = frozenset().union(*[c.refs for c in conjuncts])
    parts = list(conjuncts)

    def fn(batch: Batch, ctx) -> Vector:
        out = parts[0](batch, ctx)
        for part in parts[1:]:
            out = logical_and(out, part(batch, ctx))
        return out

    text = "(" + " and ".join(c.text for c in conjuncts) + ")"
    return CompiledExpr(fn, refs, text=text)


@dataclass
class Join(PlanNode):
    left: PlanNode
    right: PlanNode
    kind: str  # inner | left | right | full | cross
    #: key expressions evaluated against the respective side's batch
    left_keys: list[CompiledExpr] = field(default_factory=list)
    right_keys: list[CompiledExpr] = field(default_factory=list)
    null_safe: list[bool] = field(default_factory=list)
    residual: Optional[CompiledExpr] = None
    schema: list[OutputColumn] = field(default_factory=list)

    def children(self) -> list[PlanNode]:
        return [self.left, self.right]

    def label(self) -> str:
        return f"Join({self.kind}, keys={len(self.left_keys)})"


@dataclass
class AggregateItem:
    out: OutputColumn
    func: str
    arg: Optional[CompiledExpr]  # None for count(*)
    distinct: bool = False
    #: aggregate FILTER (WHERE ...) predicate; rows failing it are dropped
    #: from this aggregate's input only
    where: Optional[CompiledExpr] = None


@dataclass
class Aggregate(PlanNode):
    child: PlanNode
    groups: list[tuple[OutputColumn, CompiledExpr]] = field(default_factory=list)
    aggregates: list[AggregateItem] = field(default_factory=list)
    schema: list[OutputColumn] = field(default_factory=list)

    def children(self) -> list[PlanNode]:
        return [self.child]

    def label(self) -> str:
        aggs = ", ".join(f"{item.func}" for item in self.aggregates)
        return f"Aggregate(groups={len(self.groups)}, [{aggs}])"


@dataclass
class Distinct(PlanNode):
    child: PlanNode
    schema: list[OutputColumn] = field(default_factory=list)

    def children(self) -> list[PlanNode]:
        return [self.child]


@dataclass
class Sort(PlanNode):
    child: PlanNode
    #: (expr, ascending, nulls_first) — ``nulls_first=None`` means the
    #: PostgreSQL default (NULLS LAST when ascending, NULLS FIRST when
    #: descending)
    keys: list[tuple[CompiledExpr, bool, Optional[bool]]] = field(
        default_factory=list
    )
    schema: list[OutputColumn] = field(default_factory=list)

    def children(self) -> list[PlanNode]:
        return [self.child]


@dataclass
class Limit(PlanNode):
    child: PlanNode
    count: Optional[int] = None
    offset: int = 0
    schema: list[OutputColumn] = field(default_factory=list)

    def children(self) -> list[PlanNode]:
        return [self.child]

    def label(self) -> str:
        return f"Limit({self.count}, offset={self.offset})"


@dataclass
class WindowItem:
    out: OutputColumn
    func: str  # rank | dense_rank | row_number
    partition: list[CompiledExpr] = field(default_factory=list)
    order: list[tuple[CompiledExpr, bool]] = field(default_factory=list)


@dataclass
class Window(PlanNode):
    """Appends window-function columns (rank/row_number) to the child."""

    child: PlanNode = None  # type: ignore[assignment]
    windows: list[WindowItem] = field(default_factory=list)
    schema: list[OutputColumn] = field(default_factory=list)

    def children(self) -> list[PlanNode]:
        return [self.child]

    def label(self) -> str:
        funcs = ", ".join(item.func for item in self.windows)
        return f"Window({funcs})"


@dataclass
class OneRow(PlanNode):
    """Single-row, zero-column input for FROM-less selects."""

    schema: list[OutputColumn] = field(default_factory=list)


@dataclass
class UnionAll(PlanNode):
    parts: list[PlanNode] = field(default_factory=list)
    schema: list[OutputColumn] = field(default_factory=list)

    def children(self) -> list[PlanNode]:
        return list(self.parts)
