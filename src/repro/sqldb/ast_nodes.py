"""Abstract syntax tree of the supported SQL dialect.

All nodes are frozen-ish dataclasses (mutable where the planner annotates).
Structural equality on expressions is used by the planner to match GROUP BY
expressions against select items.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional, Sequence, Union

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
    header: bool = True


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
    #: 'sorted' (btree-style, bisect lookups) or 'hash'; None = pick by
    #: column count (sorted for one column, hash for composites)
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
    Begin,
    Commit,
    Rollback,
    Savepoint,
    RollbackTo,
    ReleaseSavepoint,
    Checkpoint,
]
