"""Abstract syntax tree of the supported SQL dialect.

All nodes are frozen-ish dataclasses (mutable where the planner annotates).
Structural equality on expressions is used by the planner to match GROUP BY
expressions against select items.

Every walk over a tree goes through :func:`children` / :func:`walk` /
:func:`map_children`, which read one per-class table of the fields that
can hold nodes, so no walker lists the node types itself.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field, fields, is_dataclass, replace
from functools import cached_property
from typing import Any, Callable, Iterator, Optional, Sequence, Union

__all__ = [
    "Analyze",
    "Begin",
    "Between",
    "BinaryOp",
    "Case",
    "Cast",
    "Checkpoint",
    "ColumnRef",
    "ColumnDef",
    "Commit",
    "Copy",
    "CreateIndex",
    "CreateTable",
    "CreateView",
    "Cte",
    "Delete",
    "Drop",
    "DropIndex",
    "DropModel",
    "Explain",
    "Expr",
    "FuncCall",
    "InList",
    "Insert",
    "IsNull",
    "JoinSource",
    "Literal",
    "NamedTable",
    "OrderItem",
    "Parameter",
    "ReleaseSavepoint",
    "Rollback",
    "RollbackTo",
    "Savepoint",
    "ScalarSubquery",
    "Select",
    "SelectItem",
    "Star",
    "Statement",
    "SubquerySource",
    "TableSource",
    "Train",
    "UnaryOp",
    "Update",
    "WindowCall",
    "children",
    "map_children",
    "walk",
]


# -- expressions -------------------------------------------------------------


@dataclass(frozen=True)
class Literal:
    value: Any  # int | float | str | bool | None


@dataclass(frozen=True)
class Parameter:
    """Positional statement parameter (``?`` / ``%s``), bound at execution."""

    index: int


@dataclass(frozen=True)
class ColumnRef:
    name: str
    table: Optional[str] = None


@dataclass(frozen=True)
class Star:
    """``*`` or ``alias.*`` select item."""

    table: Optional[str] = None


@dataclass(frozen=True)
class FuncCall:
    name: str
    args: tuple["Expr", ...] = ()
    star: bool = False  # count(*)
    distinct: bool = False  # count(DISTINCT x)
    #: aggregate FILTER (WHERE ...) clause, None when absent
    filter_where: Optional["Expr"] = None


@dataclass(frozen=True)
class BinaryOp:
    op: str  # arithmetic, comparison, 'and', 'or', 'like', '||'
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class UnaryOp:
    op: str  # 'not', '-', '+'
    operand: "Expr"


@dataclass(frozen=True)
class IsNull:
    operand: "Expr"
    negated: bool = False


@dataclass(frozen=True)
class InList:
    operand: "Expr"
    items: tuple["Expr", ...]
    negated: bool = False


@dataclass(frozen=True)
class Between:
    operand: "Expr"
    low: "Expr"
    high: "Expr"
    negated: bool = False


@dataclass(frozen=True)
class Case:
    whens: tuple[tuple["Expr", "Expr"], ...]
    else_: Optional["Expr"] = None


@dataclass(frozen=True)
class Cast:
    operand: "Expr"
    type_name: str


@dataclass(frozen=True)
class ScalarSubquery:
    query: "Select"

    def __hash__(self) -> int:
        return self._hash

    @cached_property
    def _hash(self) -> int:
        # a Select is a mutable dataclass, so unhashable; the planner keys
        # dicts by expression (an aggregate or window call may contain a
        # subquery), and equal subqueries have equal reprs.  Parsed ASTs
        # are never mutated (the plan cache shares them), so it is cached
        return hash(repr(self.query))


@dataclass(frozen=True)
class WindowCall:
    """``func() OVER (PARTITION BY ... ORDER BY ...)`` (rank/row_number)."""

    name: str
    partition_by: tuple["Expr", ...] = ()
    order_by: tuple[tuple["Expr", bool], ...] = ()  # (expr, ascending)


Expr = Union[
    Literal,
    Parameter,
    ColumnRef,
    Star,
    FuncCall,
    BinaryOp,
    UnaryOp,
    IsNull,
    InList,
    Between,
    Case,
    Cast,
    ScalarSubquery,
    WindowCall,
]


# -- query structure ----------------------------------------------------------


@dataclass
class SelectItem:
    expr: Expr
    alias: Optional[str] = None


@dataclass
class NamedTable:
    name: str
    alias: Optional[str] = None

    @property
    def binding_name(self) -> str:
        return self.alias or self.name


@dataclass
class SubquerySource:
    query: "Select"
    alias: str


@dataclass
class JoinSource:
    left: "TableSource"
    right: "TableSource"
    kind: str  # 'inner' | 'left' | 'right' | 'full' | 'cross'
    condition: Optional[Expr] = None


TableSource = Union[NamedTable, SubquerySource, JoinSource]


@dataclass
class OrderItem:
    expr: Expr
    ascending: bool = True
    #: explicit NULLS FIRST (True) / NULLS LAST (False); None = PostgreSQL
    #: default (NULLS LAST for ASC, NULLS FIRST for DESC)
    nulls_first: Optional[bool] = None


@dataclass
class Cte:
    name: str
    query: "Select"
    materialized: Optional[bool] = None  # None = engine default


@dataclass
class Select:
    items: list[SelectItem] = field(default_factory=list)
    ctes: list[Cte] = field(default_factory=list)
    sources: list[TableSource] = field(default_factory=list)
    where: Optional[Expr] = None
    group_by: list[Expr] = field(default_factory=list)
    having: Optional[Expr] = None
    order_by: list[OrderItem] = field(default_factory=list)
    limit: Optional[int] = None
    offset: Optional[int] = None
    distinct: bool = False
    #: the arms after this one of a ``UNION ALL`` chain (each without CTEs,
    #: ORDER BY or LIMIT: those belong to this head and apply to the union)
    union_all: list["Select"] = field(default_factory=list)


# -- statements ---------------------------------------------------------------


@dataclass
class ColumnDef:
    name: str
    type_name: str  # normalised lower-case type


@dataclass
class CreateTable:
    name: str
    columns: list[ColumnDef]


@dataclass
class CreateView:
    name: str
    query: Select
    materialized: bool = False
    #: the query's source text (what checkpoints store for the view)
    sql: str = ""


@dataclass
class Insert:
    table: str
    columns: list[str]
    rows: list[list[Expr]]


@dataclass
class Copy:
    table: str
    columns: list[str]
    path: str
    delimiter: str = ","
    null_text: str = ""
    header: bool = False


@dataclass
class Drop:
    kind: str  # 'table' | 'view'
    name: str
    if_exists: bool = False


@dataclass
class CreateIndex:
    """``CREATE [UNIQUE] INDEX name ON table [USING method] (cols)``."""

    name: str
    table: str
    columns: list[str]
    unique: bool = False
    #: the USING name: 'btree' and 'hash' both name the one sorted index
    method: Optional[str] = None


@dataclass
class DropIndex:
    """``DROP INDEX [IF EXISTS] name``."""

    name: str
    if_exists: bool = False


@dataclass
class Update:
    """``UPDATE table SET col = expr, ... [WHERE pred]``."""

    table: str
    assignments: list[tuple[str, Expr]]
    where: Optional[Expr] = None


@dataclass
class Delete:
    """``DELETE FROM table [WHERE pred]``."""

    table: str
    where: Optional[Expr] = None


@dataclass
class Train:
    """``TRAIN name USING (SELECT ...) WITH (key = value, ...)``.

    SQLFlow-inspired in-database training: the query supplies the feature
    table, the options choose the estimator and hyperparameters, and the
    fitted model lands in the catalog under *name*.
    """

    name: str
    query: Select
    #: WITH-clause options in source order; values are literal expressions
    options: list[tuple[str, Expr]] = field(default_factory=list)


@dataclass
class DropModel:
    """``DROP MODEL [IF EXISTS] name``."""

    name: str
    if_exists: bool = False


@dataclass
class Explain:
    """``EXPLAIN [ANALYZE] select`` — the query's plan as text, one row
    per line; with ANALYZE the query runs and each operator reports its
    actual rows, calls and time."""

    query: Select
    analyze: bool = False


@dataclass
class Analyze:
    """``ANALYZE [table]`` — collect planner statistics (PostgreSQL-style)."""

    table: Optional[str] = None  # None = every base table


# -- transaction control -------------------------------------------------------


@dataclass(frozen=True)
class Begin:
    """``BEGIN [TRANSACTION|WORK]`` — open an explicit transaction."""


@dataclass(frozen=True)
class Commit:
    """``COMMIT [TRANSACTION|WORK]`` — commit the open transaction."""


@dataclass(frozen=True)
class Rollback:
    """``ROLLBACK [TRANSACTION|WORK]`` — abort the open transaction."""


@dataclass(frozen=True)
class Savepoint:
    """``SAVEPOINT name`` — set a savepoint in the open transaction."""

    name: str


@dataclass(frozen=True)
class RollbackTo:
    """``ROLLBACK TO [SAVEPOINT] name`` — partial rollback; the savepoint
    itself survives and can be rolled back to again."""

    name: str


@dataclass(frozen=True)
class ReleaseSavepoint:
    """``RELEASE [SAVEPOINT] name`` — drop the savepoint (and any set
    after it), keeping its effects."""

    name: str


@dataclass(frozen=True)
class Checkpoint:
    """``CHECKPOINT`` — snapshot the catalog and reset the WAL (durable
    databases only; outside any transaction)."""


Statement = Union[
    Select,
    CreateTable,
    CreateView,
    CreateIndex,
    Insert,
    Copy,
    Update,
    Delete,
    Drop,
    DropIndex,
    Train,
    DropModel,
    Analyze,
    Explain,
    Begin,
    Commit,
    Rollback,
    Savepoint,
    RollbackTo,
    ReleaseSavepoint,
    Checkpoint,
]


# -- traversal ------------------------------------------------------------------

#: a field holds nodes when its annotation names a node type
_NODE_ANNOTATION = re.compile(
    r"\b(?:Expr|Select|SelectItem|TableSource|OrderItem|Cte)\b"
)

#: per node class, the fields that can hold nodes (alone, in a list or
#: tuple, or inside tuples such as ``Case.whens``), in field order
_CHILD_FIELDS: dict[type, tuple[str, ...]] = {
    cls: tuple(f.name for f in fields(cls) if _NODE_ANNOTATION.search(f.type))
    for cls in list(globals().values())
    if isinstance(cls, type) and is_dataclass(cls)
}


def _nodes_in(value: Any, out: list) -> None:
    if type(value) in _CHILD_FIELDS:
        out.append(value)
    elif type(value) in (list, tuple):
        for item in value:
            _nodes_in(item, out)


def children(node: Any) -> list:
    """The nodes directly below *node* — sub-expressions, selects, items,
    order items, CTEs and sources — in field order."""
    out: list = []
    for name in _CHILD_FIELDS[type(node)]:
        _nodes_in(getattr(node, name), out)
    return out


def walk(node: Any) -> Iterator[Any]:
    """*node* and every node below it, parents first (a loop, not a
    recursion: a UNION ALL chain of thousands of arms is one level)."""
    stack = [node]
    while stack:
        node = stack.pop()
        yield node
        stack.extend(reversed(children(node)))


def _map_value(value: Any, fn: Callable[[Any], Any]) -> Any:
    if type(value) in _CHILD_FIELDS:
        return fn(value)
    if type(value) not in (list, tuple):
        return value  # None, or a flag beside a node (``(expr, asc)``)
    mapped = None  # a copy from the first changed item on
    for index, item in enumerate(value):
        new = _map_value(item, fn)
        if new is not item and mapped is None:
            mapped = list(value)
        if mapped is not None:
            mapped[index] = new
    return value if mapped is None else type(value)(mapped)


def map_children(node: Any, fn: Callable[[Any], Any]) -> Any:
    """*node* with *fn* applied to each child; a copy only when some child
    changed (by identity), *node* itself otherwise — never mutated."""
    changes: Optional[dict[str, Any]] = None
    for name in _CHILD_FIELDS[type(node)]:
        old = getattr(node, name)
        if old is None:
            continue
        new = fn(old) if type(old) in _CHILD_FIELDS else _map_value(old, fn)
        if new is not old:
            if changes is None:
                changes = {}
            changes[name] = new
    return node if changes is None else replace(node, **changes)
