"""SQLQueryContainer: ordered collection of generated table expressions.

As in the paper (§3.4/§4): every translated pipeline line becomes one table
expression, representable either as a view (created eagerly in the DBMS,
optionally materialised) or as a CTE (prefixed to every query).  The
container can always emit a complete executable query for any registered
expression — the property the paper highlights for debugging.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from repro.errors import TranslationError
from repro.core.connectors import DBConnector
from repro.sqldb.engine import Result

__all__ = ["SQLQueryContainer"]


@dataclass
class _Block:
    name: str
    body: str
    materialization_candidate: bool = False


@dataclass
class SQLQueryContainer:
    """Holds DDL plus the chain of table expressions for one pipeline."""

    connector: DBConnector
    mode: str = "CTE"  # 'CTE' | 'VIEW'
    materialize: bool = False
    #: emit "AS NOT MATERIALIZED" on every CTE (§6.1's ablation: removes
    #: PostgreSQL 12's materialisation barrier)
    cte_not_materialized: bool = False
    ddl: list[str] = field(default_factory=list)
    blocks: list[_Block] = field(default_factory=list)
    #: log of every inspection/extraction query issued (for to_sql output)
    issued_queries: list[str] = field(default_factory=list)

    def __post_init__(self) -> None:
        if self.mode not in ("CTE", "VIEW"):
            raise TranslationError("mode must be 'CTE' or 'VIEW'")

    # -- registration -----------------------------------------------------

    def add_ddl(self, sql: str) -> None:
        """Execute a DDL/load statement immediately and remember it."""
        self.ddl.append(sql)
        self.connector.run(sql)

    def add_block(
        self, name: str, body: str, materialization_candidate: bool = False
    ) -> None:
        """Register one table expression (one translated pipeline line)."""
        if any(block.name == name for block in self.blocks):
            raise TranslationError(f"duplicate table expression {name!r}")
        block = _Block(name, body, materialization_candidate)
        self.blocks.append(block)
        if self.mode == "VIEW":
            materialized = self.materialize
            keyword = "MATERIALIZED VIEW" if materialized else "VIEW"
            self.connector.run(f"CREATE {keyword} {name} AS {body}")

    # -- query assembly ------------------------------------------------------

    def _with_prefix(self, upto: str | None = None) -> str:
        keyword = "AS NOT MATERIALIZED" if self.cte_not_materialized else "AS"
        parts = []
        for block in self.blocks:
            parts.append(f"{block.name} {keyword} ({block.body})")
            if block.name == upto:
                break
        return "WITH " + ",\n".join(parts) + "\n" if parts else ""

    def wrap_query(self, select_sql: str, upto: str | None = None) -> str:
        """Make *select_sql* executable in the current mode.

        In CTE mode the full chain (optionally truncated after ``upto``) is
        prefixed as a WITH clause; in VIEW mode the views already exist.
        """
        if self.mode == "CTE":
            return self._with_prefix(upto) + select_sql
        return select_sql

    def run_query(
        self,
        select_sql: str,
        upto: str | None = None,
        params: Sequence[object] | None = None,
    ) -> Result:
        sql = self.wrap_query(select_sql, upto)
        self.issued_queries.append(sql)
        return self.connector.run(sql, params)

    # -- script output -----------------------------------------------------------

    def full_script(self, final_select: str | None = None) -> str:
        """The complete generated SQL (the paper's emit-without-running)."""
        parts = [statement.rstrip(";") + ";" for statement in self.ddl]
        if self.mode == "VIEW":
            keyword = "MATERIALIZED VIEW" if self.materialize else "VIEW"
            for block in self.blocks:
                parts.append(f"CREATE {keyword} {block.name} AS {block.body};")
            if final_select:
                parts.append(final_select.rstrip(";") + ";")
            elif self.blocks:
                parts.append(f"SELECT * FROM {self.blocks[-1].name};")
        else:
            select = final_select or (
                f"SELECT * FROM {self.blocks[-1].name}" if self.blocks else None
            )
            if select:
                parts.append(self.wrap_query(select).rstrip(";") + ";")
        return "\n".join(parts) + "\n"
