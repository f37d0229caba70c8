"""The SQL backend for the inspection framework (the paper's contribution).

Every patched pandas/sklearn call is translated to one SQL table expression
(one view or CTE per pipeline line, §4/§5); *dummy objects* — the same
operations executed on a small sample — keep flowing through the Python
pipeline so downstream calls can be intercepted and schemas deduced.  The
SQL mapping (``self.mapping``) associates each dummy with its
:class:`~repro.core.table_info.TableInfo` / :class:`SeriesExpr`.

Inspections are delegated to the database and their results injected
into the same structures the Python backend fills, so checks evaluate
identically.  Each DAG node records which inspections it owes; ``finish()``
evaluates them once the pipeline has run: every histogram of every node in
one ``UNION ALL`` statement (``SQLHistogramForColumns.batch_query``), which
in CTE mode carries the ``WITH`` chain once instead of once per node and
sensitive column, and the row inspections one query per node.

At the extraction boundary (``train_test_split``, ``fit``, ``score``, or
any call without a translation) the real data is fetched from the database
and execution falls back to the original Python functions — the paper's
end-to-end mode.
"""

from __future__ import annotations

import os
from typing import Any, Iterable, Optional

import numpy as np

from repro.core.connectors import DBConnector
from repro.core.csv_schema import sniff_csv
from repro.core.inspections_sql import (
    ColumnOwner,
    SQLHistogramForColumns,
    first_rows_query,
)
from repro.core.naming import NameGenerator
from repro.core.naming import quote_identifier as q
from repro.core.query_container import SQLQueryContainer
from repro.core.table_info import SeriesExpr, TableInfo
from repro.core.translators import pandas_ops, sklearn_ops
from repro.errors import TranslationError
from repro.frame.dataframe import DataFrame
from repro.frame.series import Series
from repro.inspection.inspections import (
    HistogramForColumns,
    Inspection,
    MaterializeFirstOutputRows,
    RowLineage,
)
from repro.inspection.operators import DagNode, OperatorType
from repro.inspection.tracker import PythonBackend
from repro.learn.compose import ColumnTransformer
from repro.learn.impute import SimpleImputer
from repro.learn.preprocessing import (
    Binarizer,
    KBinsDiscretizer,
    OneHotEncoder,
    StandardScaler,
)
from repro.sqldb.vector import Vector, array_lengths, compact, python_cells

__all__ = ["SQLBackend"]

_BINOP_SQL = {
    "__gt__": ">",
    "__ge__": ">=",
    "__lt__": "<",
    "__le__": "<=",
    "__eq__": "=",
    "__ne__": "<>",
    "__add__": "+",
    "__sub__": "-",
    "__mul__": "*",
    "__truediv__": "/",
    "__and__": "AND",
    "__or__": "OR",
}
_REFLECTED = {
    "__radd__": "+",
    "__rsub__": "-",
    "__rmul__": "*",
    "__rtruediv__": "/",
}
_COMPARISONS = {">", ">=", "<", "<=", "=", "<>", "AND", "OR"}


class SQLBackend(PythonBackend):
    """Translate-and-offload backend; falls back to Python when needed."""

    def __init__(
        self,
        inspections: Iterable[Inspection],
        connector: DBConnector,
        mode: str = "CTE",
        materialize: bool = False,
        sample_rows: int = 10,
        cte_not_materialized: bool = False,
    ) -> None:
        super().__init__(inspections)
        connector.reset()
        self.connector = connector
        self.container = SQLQueryContainer(
            connector, mode, materialize, cte_not_materialized
        )
        self.names = NameGenerator()
        self.mapping: dict[int, TableInfo | SeriesExpr] = {}
        self.column_owners: dict[str, ColumnOwner] = {}
        self.sql_histograms = SQLHistogramForColumns(self.column_owners)
        #: inspections owed by table-expression nodes, run by finish()
        self._pending: list[tuple[DagNode, TableInfo, Inspection]] = []
        self.sample_rows = sample_rows
        self.fitted: dict[int, sklearn_ops.FittedTransformer] = {}
        self._materialized: dict[int, Any] = {}
        self._did_extract = False
        self._final_select: Optional[str] = None

    # -- mapping helpers -----------------------------------------------------

    def _info(self, obj: Any) -> TableInfo | SeriesExpr | None:
        return self.mapping.get(id(obj))

    def _table_info(self, obj: Any) -> Optional[TableInfo]:
        info = self._info(obj)
        return info if isinstance(info, TableInfo) else None

    def _register(self, obj: Any, info: TableInfo | SeriesExpr) -> None:
        self.mapping[id(obj)] = info
        self._keepalive.append(obj)

    def generated_sql(self) -> str:
        """The complete generated SQL script (DDL + table expressions)."""
        return self.container.full_script(self._final_select)

    # -- DAG recording; inspections run in finish() ---------------------------------

    def _record_sql(
        self,
        operator_type: OperatorType,
        description: str,
        inputs: list[Any],
        output: Any,
        info: TableInfo | SeriesExpr | None,
        lineno: Optional[int],
        columns: tuple[str, ...] = (),
    ) -> DagNode:
        node = DagNode(
            self._node_counter,
            operator_type,
            description,
            lineno=lineno,
            columns=columns,
        )
        self._node_counter += 1
        self.dag.add_node(node)
        for source in inputs:
            parent = self._object_nodes.get(id(source))
            if parent is not None:
                self.dag.add_edge(parent, node)
        if output is not None:
            self._object_nodes[id(output)] = node
            if info is not None:
                self._register(output, info)
        results: dict[Inspection, Any] = {}
        for inspection in self.inspections:
            # a histogram dict is filled in place by finish()
            histogram = isinstance(inspection, HistogramForColumns)
            results[inspection] = {} if histogram else None
            if isinstance(info, TableInfo):
                self._pending.append((node, info, inspection))
        self.inspection_results[node] = results
        return node

    def _run_histograms(self) -> None:
        """Every owed histogram, from one statement."""
        owed = [
            (node, info, inspection)
            for node, info, inspection in self._pending
            if isinstance(inspection, HistogramForColumns)
        ]
        infos = {node: info for node, info, _ in owed}
        columns = list(
            dict.fromkeys(
                column
                for _, _, inspection in owed
                for column in inspection.sensitive_columns
            )
        )
        query, tags = self.sql_histograms.batch_query(infos.items(), columns)
        if not tags:
            return
        # CTE mode: the chain ends at the last block an arm reads
        read = {infos[node].name for node, _ in tags.values()}
        last = next(
            b.name for b in reversed(self.container.blocks) if b.name in read
        )
        counts: dict[tuple[DagNode, str], dict[Any, int]] = {
            arm: {} for arm in tags.values()
        }
        for row in self.container.run_query(query, upto=last).rows:
            value = next((v for v in row[1:-1] if v is not None), None)
            counts[tags[row[0]]][value] = int(row[-1])
        for node, _, inspection in owed:
            histograms = self.inspection_results[node][inspection]
            for column in inspection.sensitive_columns:
                if (node, column) in counts:
                    histograms[column] = counts[node, column]

    def _run_row_inspection(
        self, inspection: Inspection, info: TableInfo
    ) -> Any:
        if isinstance(inspection, MaterializeFirstOutputRows):
            query = first_rows_query(info, inspection.row_count)
            return self.container.run_query(query, upto=info.name).rows
        if isinstance(inspection, RowLineage):
            ctids = [q(c) for c in info.ctids]
            if not ctids:
                return []
            query = (
                f"SELECT {', '.join(ctids)} FROM {info.name} "
                f"LIMIT {inspection.row_count}"
            )
            result = self.container.run_query(query, upto=info.name)
            return [
                {"lineage": dict(zip(info.ctids, row))} for row in result.rows
            ]
        return None

    # -- extraction (materialisation boundary) ------------------------------------------

    def materialize_object(self, obj: Any) -> Any:
        """Fetch the real data behind a dummy object from the database."""
        info = self._info(obj)
        if info is None:
            return obj
        if id(obj) in self._materialized:
            return self._materialized[id(obj)]
        self._did_extract = True
        if isinstance(info, SeriesExpr):
            order = _order_by_ctids(info.parent)
            query = (
                f"SELECT {info.sql} AS value FROM {info.parent.name}{order}"
            )
            result = self.container.run_query(query, upto=info.parent.name)
            [values] = result.vectors
            real: Any = Series(list(python_cells(values)), name=info.name)
        elif info.is_matrix:
            columns = ", ".join(q(c) for c in info.columns)
            query = f"SELECT {columns} FROM {info.name}{_order_by_ctids(info)}"
            result = self.container.run_query(query, upto=info.name)
            real = _columns_to_matrix(result.vectors, result.rowcount)
        else:
            columns = ", ".join(q(c) for c in info.columns)
            query = f"SELECT {columns} FROM {info.name}{_order_by_ctids(info)}"
            result = self.container.run_query(query, upto=info.name)
            real = DataFrame(
                {
                    name: list(python_cells(vector))
                    for name, vector in zip(info.columns, result.vectors)
                }
            )
        self._materialized[id(obj)] = real
        self._keepalive.append(real)
        return real

    def finish(self) -> None:
        """Force execution of the final table expression when the pipeline
        never reached an extraction boundary (preprocessing-only runs), then
        evaluate every inspection the DAG nodes owe."""
        if not self._did_extract and self.container.blocks:
            last = self.container.blocks[-1].name
            self._final_select = f"SELECT * FROM {last}"
            self.container.run_query(self._final_select, upto=last)
        self._run_histograms()
        for node, info, inspection in self._pending:
            if not isinstance(inspection, HistogramForColumns):
                self.inspection_results[node][inspection] = (
                    self._run_row_inspection(inspection, info)
                )
        self._pending = []

    # -- pandas hooks --------------------------------------------------------------------

    def read_csv(self, original, path, na_values, lineno):
        op_id = self.names.next_op_id()
        base = os.path.splitext(os.path.basename(str(path)))[0]
        table = self.names.table_name(base, lineno, op_id)
        schema = sniff_csv(str(path), na_values, sample_limit=1000)
        column_defs = ", ".join(
            f"{q(c.name)} {c.sql_type}" for c in schema.columns
        )
        self.container.add_ddl(f"CREATE TABLE {table} ({column_defs})")
        copy_columns = ", ".join(q(c.name) for c in schema.columns)
        null_text = na_values if isinstance(na_values, str) else ""
        self.container.add_ddl(
            f"COPY {table} ({copy_columns}) FROM '{path}' WITH "
            f"(DELIMITER ',', NULL '{null_text}', FORMAT CSV, HEADER TRUE)"
        )
        ctid_view = self.names.ctid_column(table)
        self.container.add_block(
            ctid_view, f"SELECT *, ctid AS {q(ctid_view)} FROM {table}"
        )
        visible = [c.name for c in schema.columns if c.name != "index_"]
        info = TableInfo(
            ctid_view,
            visible,
            {c.name: c.sql_type for c in schema.columns},
            {ctid_view: False},
            {c.name for c in schema.columns if c.nullable},
            index_column="index_" if schema.has_index_column else None,
        )
        for column in visible:
            self.sql_histograms.register_column(
                column, ColumnOwner(ctid_view, ctid_view, info.type_of(column))
            )
        with self.suppress():
            dummy = original(path, na_values=na_values, nrows=self.sample_rows)
        self._record_sql(
            OperatorType.DATA_SOURCE,
            f"read_csv({os.path.basename(str(path))})",
            [],
            dummy,
            info,
            lineno,
            tuple(visible),
        )
        return dummy

    def frame_getitem(self, original, frame, key, lineno):
        info = self._table_info(frame)
        if info is None:
            return super().frame_getitem(original, frame, key, lineno)
        with self.suppress():
            dummy = original(frame, key)
        if isinstance(key, str):
            expr = SeriesExpr(
                info,
                q(key),
                name=key,
                sql_type=info.type_of(key),
                nullable=key in info.nullable,
            )
            self._record_sql(
                OperatorType.PROJECTION,
                f"projection: [{key!r}]",
                [frame],
                dummy,
                expr,
                lineno,
                (key,),
            )
            return dummy
        if isinstance(key, (list, tuple)):
            name = self.names.block_name(self.names.next_op_id(), lineno)
            body, out = pandas_ops.translate_projection(info, list(key), name)
            self.container.add_block(name, body)
            self._record_sql(
                OperatorType.PROJECTION,
                f"projection: {list(key)}",
                [frame],
                dummy,
                out,
                lineno,
                tuple(key),
            )
            return dummy
        mask = self._info(key)
        if not isinstance(mask, SeriesExpr) or mask.parent.name != info.name:
            raise TranslationError(
                "selection mask must be an expression over the same table"
            )
        name = self.names.block_name(self.names.next_op_id(), lineno)
        body, out = pandas_ops.translate_selection(info, mask, name)
        self.container.add_block(name, body)
        self._record_sql(
            OperatorType.SELECTION,
            "selection",
            [frame, key],
            dummy,
            out,
            lineno,
            tuple(out.columns),
        )
        return dummy

    def frame_setitem(self, original, frame, key, value, lineno):
        info = self._table_info(frame)
        if info is None:
            return super().frame_setitem(original, frame, key, value, lineno)
        value_info = self._info(value)
        if isinstance(value_info, SeriesExpr):
            if value_info.parent.name != info.name:
                # §5.1.8 row-wise assignment across tables: join on index_
                with self.suppress():
                    original(frame, key, value)
                name = self.names.block_name(self.names.next_op_id(), lineno)
                body, out = pandas_ops.translate_rowwise_setitem(
                    info, key, value_info, name
                )
                self.container.add_block(name, body)
                self._record_sql(
                    OperatorType.PROJECTION_MODIFY,
                    f"row-wise assign column {key!r}",
                    [frame, value],
                    frame,
                    out,
                    lineno,
                    tuple(out.columns),
                )
                return None
            expr = value_info
        elif value is None or np.isscalar(value):
            expr = SeriesExpr(
                info,
                pandas_ops.sql_literal(value),
                sql_type="TEXT" if isinstance(value, str) else "DOUBLE PRECISION",
                nullable=value is None,
            )
        else:
            raise TranslationError(
                "only expression/scalar column assignments are translatable"
            )
        with self.suppress():
            original(frame, key, value)
        name = self.names.block_name(self.names.next_op_id(), lineno)
        body, out = pandas_ops.translate_setitem(info, key, expr, name)
        self.container.add_block(name, body)
        self._record_sql(
            OperatorType.PROJECTION_MODIFY,
            f"assign column {key!r}",
            [frame, value],
            frame,
            out,
            lineno,
            tuple(out.columns),
        )

    def frame_merge(self, original, left, right, on, how, suffixes, lineno):
        left_info = self._table_info(left)
        right_info = self._table_info(right)
        if left_info is None or right_info is None:
            return super().frame_merge(
                original, left, right, on, how, suffixes, lineno
            )
        keys = [on] if isinstance(on, str) else list(on or [])
        if not keys:
            raise TranslationError("cross merges have no SQL translation")
        name = self.names.block_name(self.names.next_op_id(), lineno)
        body, out = pandas_ops.translate_merge(
            left_info, right_info, keys, how, suffixes, name
        )
        self.container.add_block(name, body)
        with self.suppress():
            dummy = original(left, right, on=on, how=how, suffixes=suffixes)
        self._record_sql(
            OperatorType.JOIN,
            f"merge on {keys!r} ({how})",
            [left, right],
            dummy,
            out,
            lineno,
            tuple(out.columns),
        )
        return dummy

    def frame_dropna(self, original, frame, subset, lineno):
        info = self._table_info(frame)
        if info is None:
            return super().frame_dropna(original, frame, subset, lineno)
        if subset is not None:
            raise TranslationError("dropna(subset=...) is not translated")
        name = self.names.block_name(self.names.next_op_id(), lineno)
        body, out = pandas_ops.translate_dropna(info, name)
        self.container.add_block(name, body)
        with self.suppress():
            dummy = original(frame, subset=subset)
        self._record_sql(
            OperatorType.SELECTION,
            "dropna",
            [frame],
            dummy,
            out,
            lineno,
            tuple(out.columns),
        )
        return dummy

    def frame_replace(self, original, obj, to_replace, value, regex, lineno):
        info = self._info(obj)
        if info is None:
            return super().frame_replace(
                original, obj, to_replace, value, regex, lineno
            )
        with self.suppress():
            dummy = original(obj, to_replace, value, regex=regex)
        if isinstance(info, SeriesExpr):
            pattern = to_replace if regex else f"^{to_replace}$"
            expr = SeriesExpr(
                info.parent,
                f"REGEXP_REPLACE({info.sql}, "
                f"{pandas_ops.sql_literal(pattern)}, "
                f"{pandas_ops.sql_literal(value)})",
                name=info.name,
                sql_type="TEXT",
                nullable=info.nullable,
            )
            self._record_sql(
                OperatorType.PROJECTION_MODIFY,
                f"replace({to_replace!r})",
                [obj],
                dummy,
                expr,
                lineno,
            )
            return dummy
        name = self.names.block_name(self.names.next_op_id(), lineno)
        body, out = pandas_ops.translate_replace(info, to_replace, value, name)
        self.container.add_block(name, body)
        self._record_sql(
            OperatorType.PROJECTION_MODIFY,
            f"replace({to_replace!r})",
            [obj],
            dummy,
            out,
            lineno,
            tuple(out.columns),
        )
        return dummy

    def groupby_agg(self, original, groupby, spec, named, lineno):
        info = self._table_info(groupby.frame)
        if info is None:
            return super().groupby_agg(original, groupby, spec, named, lineno)
        aggregations: list[tuple[str, str, str]] = []
        if spec:
            for column, func in spec.items():
                aggregations.append((column, column, func))
        for out_name, (column, func) in named.items():
            aggregations.append((out_name, column, func))
        name = self.names.block_name(self.names.next_op_id(), lineno)
        body, out = pandas_ops.translate_groupby_agg(
            info, groupby.keys, aggregations, name
        )
        self.container.add_block(name, body)
        with self.suppress():
            dummy = original(groupby, spec, **named)
        self._record_sql(
            OperatorType.GROUP_BY_AGG,
            f"groupby {groupby.keys} agg",
            [groupby.frame],
            dummy,
            out,
            lineno,
            tuple(out.columns),
        )
        return dummy

    # -- series expression hooks (execution-tree condensation, §5.1.4) ------------

    def _operand_sql(self, operand: Any) -> tuple[str, Optional[TableInfo], bool]:
        """(sql, parent, nullable) for one binop operand."""
        info = self._info(operand)
        if isinstance(info, SeriesExpr):
            return info.sql, info.parent, info.nullable
        if isinstance(operand, Series) or isinstance(operand, DataFrame):
            raise TranslationError("operand has no SQL mapping")
        return pandas_ops.sql_literal(operand), None, operand is None

    def series_binop(self, original, op, left, right, lineno):
        sql_op = _BINOP_SQL.get(op) or _REFLECTED.get(op)
        mapped_left = isinstance(self._info(left), SeriesExpr)
        mapped_right = isinstance(self._info(right), SeriesExpr)
        if sql_op is None or not (mapped_left or mapped_right):
            return super().series_binop(original, op, left, right, lineno)
        try:
            left_sql, left_parent, left_null = self._operand_sql(left)
            right_sql, right_parent, right_null = self._operand_sql(right)
        except TranslationError:
            return super().series_binop(original, op, left, right, lineno)
        parent = left_parent or right_parent
        if (
            left_parent is not None
            and right_parent is not None
            and left_parent.name != right_parent.name
        ):
            raise TranslationError(
                "binary operation across different table expressions "
                "requires an index column (§5.1.8), which this pipeline "
                "did not request"
            )
        if op in _REFLECTED:
            left_sql, right_sql = right_sql, left_sql
        sql = f"({left_sql} {sql_op} {right_sql})"
        is_comparison = sql_op in _COMPARISONS
        expr = SeriesExpr(
            parent,
            sql,
            sql_type="BOOLEAN" if is_comparison else "DOUBLE PRECISION",
            nullable=left_null or right_null,
        )
        with self.suppress():
            dummy = original(left, right)
        self._record_sql(
            OperatorType.PROJECTION_MODIFY,
            f"series {op}",
            [left, right],
            dummy,
            expr,
            lineno,
        )
        return dummy

    def series_unop(self, original, op, operand, lineno):
        info = self._info(operand)
        if not isinstance(info, SeriesExpr) or op != "__invert__":
            return super().series_unop(original, op, operand, lineno)
        expr = SeriesExpr(
            info.parent,
            f"(NOT {info.sql})",
            sql_type="BOOLEAN",
            nullable=info.nullable,
        )
        with self.suppress():
            dummy = original(operand)
        self._record_sql(
            OperatorType.PROJECTION_MODIFY,
            f"series {op}",
            [operand],
            dummy,
            expr,
            lineno,
        )
        return dummy

    def series_isin(self, original, series, values, lineno):
        info = self._info(series)
        if not isinstance(info, SeriesExpr):
            return super().series_isin(original, series, values, lineno)
        rendered = ", ".join(pandas_ops.sql_literal(v) for v in values)
        expr = SeriesExpr(
            info.parent,
            f"({info.sql} IN ({rendered}))",
            sql_type="BOOLEAN",
            nullable=info.nullable,
        )
        with self.suppress():
            dummy = original(series, values)
        self._record_sql(
            OperatorType.PROJECTION_MODIFY,
            f"isin({list(values)!r})",
            [series],
            dummy,
            expr,
            lineno,
        )
        return dummy

    # -- sklearn hooks --------------------------------------------------------------------

    def label_binarize(self, original, y, classes, lineno):
        info = self._info(y)
        if not isinstance(info, SeriesExpr):
            return super().label_binarize(original, y, classes, lineno)
        expr_sql = sklearn_ops.label_binarize_expression(info.sql, list(classes))
        name = self.names.block_name(self.names.next_op_id(), lineno)
        ctids = ", ".join(q(c) for c in info.parent.ctids)
        suffix = f", {ctids}" if ctids else ""
        body = f"SELECT {expr_sql} AS \"label\"{suffix}\nFROM {info.parent.name}"
        out = TableInfo(
            name,
            ["label"],
            {"label": "INT"},
            dict(info.parent.ctids),
            set(),
            is_matrix=True,
        )
        self.container.add_block(name, body)
        with self.suppress():
            dummy = original(y, classes=classes)
        self._record_sql(
            OperatorType.PROJECTION_MODIFY,
            f"label_binarize(classes={list(classes)})",
            [y],
            dummy,
            out,
            lineno,
        )
        return dummy

    def transformer_fit_transform(self, original, transformer, X, y, lineno):
        if id(transformer) in self._inflight_transformers:
            return original(transformer, X, y)
        if isinstance(transformer, ColumnTransformer):
            if self._table_info(X) is not None:
                return self._column_transformer(transformer, X, lineno, fit=True)
            return super().transformer_fit_transform(
                original, transformer, X, y, lineno
            )
        info = self._table_info(X)
        if info is None:
            return super().transformer_fit_transform(
                original, transformer, X, y, lineno
            )
        return self._leaf_transform(
            transformer, X, info, lineno, lambda: original(transformer, X, y)
        )

    def transformer_transform(self, original, transformer, X, lineno):
        if id(transformer) in self._inflight_transformers:
            return original(transformer, X)
        if isinstance(transformer, ColumnTransformer):
            if self._table_info(X) is not None:
                return self._column_transformer(transformer, X, lineno, fit=False)
            return super().transformer_transform(original, transformer, X, lineno)
        info = self._table_info(X)
        if info is None:
            return super().transformer_transform(original, transformer, X, lineno)
        return self._leaf_transform(
            transformer, X, info, lineno, lambda: original(transformer, X)
        )

    def _fit_views_for(
        self, transformer: Any, parent: TableInfo, lineno: Optional[int]
    ) -> sklearn_ops.FittedTransformer:
        """Create (or reuse) the fit table expressions of one transformer.

        Fit views are the paper's prime materialisation candidates: they
        are computed once on the fitting data and referenced by every
        transform expression thereafter (Figure 6).
        """
        fitted = self.fitted.get(id(transformer))
        if fitted is not None:
            return fitted
        kind = type(transformer).__name__
        fitted = sklearn_ops.FittedTransformer(kind)
        for column in parent.columns:
            view_name = None
            if isinstance(transformer, SimpleImputer):
                body = sklearn_ops.fit_imputer(
                    parent, column, transformer.strategy, transformer.fill_value
                )
                if body is not None:
                    view_name = self.names.block_name(
                        self.names.next_op_id(), lineno
                    )
                    self.container.add_block(
                        view_name, body, materialization_candidate=True
                    )
            elif isinstance(transformer, OneHotEncoder):
                view_name = self.names.block_name(self.names.next_op_id(), lineno)
                self.container.add_block(
                    view_name,
                    sklearn_ops.fit_onehot(parent, column),
                    materialization_candidate=True,
                )
            elif isinstance(transformer, StandardScaler):
                view_name = self.names.block_name(self.names.next_op_id(), lineno)
                self.container.add_block(
                    view_name,
                    sklearn_ops.fit_scaler(parent, column),
                    materialization_candidate=True,
                )
            elif isinstance(transformer, KBinsDiscretizer):
                view_name = self.names.block_name(self.names.next_op_id(), lineno)
                self.container.add_block(
                    view_name,
                    sklearn_ops.fit_kbins(parent, column),
                    materialization_candidate=True,
                )
            if view_name is not None:
                fitted.fit_views[column] = view_name
        self.fitted[id(transformer)] = fitted
        return fitted

    def _leaf_transform(
        self,
        transformer: Any,
        X: Any,
        parent: TableInfo,
        lineno: Optional[int],
        run_original,
    ):
        """Translate one leaf transformer application to a table expression."""
        if isinstance(transformer, KBinsDiscretizer) and transformer.encode != "ordinal":
            raise TranslationError(
                "KBinsDiscretizer one-hot output has no SQL translation"
            )
        fitted = self._fit_views_for(transformer, parent, lineno)
        items: list[str] = []
        joins: list[str] = []
        out_types: dict[str, str] = {}
        for i, column in enumerate(parent.columns):
            if isinstance(transformer, SimpleImputer):
                expr = sklearn_ops.imputer_expression(
                    column,
                    fitted.fit_views.get(column),
                    transformer.strategy,
                    transformer.fill_value,
                )
                out_types[column] = parent.type_of(column)
            elif isinstance(transformer, OneHotEncoder):
                alias = f"fit{i}"
                view = fitted.fit_views[column]
                joins.append(
                    f"LEFT OUTER JOIN {view} {alias} "
                    f"ON tb.{q(column)} = {alias}.value"
                )
                expr = sklearn_ops.onehot_expression(view, alias)
                out_types[column] = "ARRAY"
            elif isinstance(transformer, StandardScaler):
                expr = sklearn_ops.scaler_expression(
                    column, fitted.fit_views[column]
                )
                out_types[column] = "DOUBLE PRECISION"
            elif isinstance(transformer, KBinsDiscretizer):
                expr = sklearn_ops.kbins_expression(
                    column, fitted.fit_views[column], transformer.n_bins
                )
                out_types[column] = "INT"
            elif isinstance(transformer, Binarizer):
                expr = sklearn_ops.binarize_expression(
                    f"tb.{q(column)}", transformer.threshold
                )
                out_types[column] = "INT"
            else:
                raise TranslationError(
                    f"{type(transformer).__name__} has no SQL translation"
                )
            items.append(f"{expr} AS {q(column)}")
        items += [f"tb.{q(c)}" for c in parent.ctids]
        name = self.names.block_name(self.names.next_op_id(), lineno)
        join_sql = ("\n" + "\n".join(joins)) if joins else ""
        body = f"SELECT {', '.join(items)}\nFROM {parent.name} tb{join_sql}"
        out = TableInfo(
            name,
            list(parent.columns),
            out_types,
            dict(parent.ctids),
            set(),
            is_matrix=True,
        )
        self.container.add_block(name, body)
        self._inflight_transformers.add(id(transformer))
        try:
            with self.suppress():
                dummy = run_original()
        finally:
            self._inflight_transformers.discard(id(transformer))
        self._record_sql(
            OperatorType.TRANSFORMER,
            f"{type(transformer).__name__} (SQL)",
            [X],
            dummy,
            out,
            lineno,
            tuple(parent.columns),
        )
        return dummy

    def _column_transformer(
        self, ct: ColumnTransformer, X: Any, lineno: Optional[int], fit: bool
    ):
        """Translate a ColumnTransformer application.

        Re-implements the fit-each/transform-each/hstack behaviour so each
        nested step passes through the patched functions; the final table
        expression joins the per-transformer blocks back together on the
        shared tuple identifiers.
        """
        self._inflight_transformers.add(id(ct))
        try:
            sub_results: list[tuple[str, TableInfo, Any]] = []
            dummies: list[np.ndarray] = []
            for name_t, transformer, columns in ct.transformers:
                X_slice = X[list(columns)]  # patched: records the projection
                if fit:
                    with self.suppress():
                        transformer.fit(X_slice)
                out = transformer.transform(X_slice)  # patched: builds blocks
                sub_info = self._table_info(out)
                if sub_info is None:
                    raise TranslationError(
                        f"sub-transformer {name_t!r} produced no SQL mapping"
                    )
                sub_results.append((name_t, sub_info, out))
                block = np.asarray(out, dtype=np.float64)
                if block.ndim == 1:
                    block = block.reshape(-1, 1)
                dummies.append(block)
            if fit:
                ct.fitted_ = True
        finally:
            self._inflight_transformers.discard(id(ct))

        base_name, base_info, _ = sub_results[0]
        shared_ctids = dict(base_info.ctids)
        for _, sub_info, _ in sub_results[1:]:
            if set(sub_info.ctids) != set(shared_ctids):
                raise TranslationError(
                    "column transformer branches track different identifiers"
                )
        if any(shared_ctids.values()):
            raise TranslationError(
                "cannot recombine branches over aggregated identifiers"
            )
        items: list[str] = []
        out_columns: list[str] = []
        out_types: dict[str, str] = {}
        for j, (name_t, sub_info, _) in enumerate(sub_results):
            alias = f"tb{j}"
            for column in sub_info.columns:
                out_name = f"{name_t}_{column}"
                items.append(f"{alias}.{q(column)} AS {q(out_name)}")
                out_columns.append(out_name)
                out_types[out_name] = sub_info.type_of(column)
        items += [f"tb0.{q(c)}" for c in shared_ctids]
        from_sql = f"{sub_results[0][1].name} tb0"
        for j, (_, sub_info, _) in enumerate(sub_results[1:], start=1):
            conditions = " AND ".join(
                f"tb0.{q(c)} = tb{j}.{q(c)}" for c in shared_ctids
            )
            from_sql += f"\nINNER JOIN {sub_info.name} tb{j} ON {conditions}"
        name = self.names.block_name(self.names.next_op_id(), lineno)
        body = f"SELECT {', '.join(items)}\nFROM {from_sql}"
        out = TableInfo(
            name, out_columns, out_types, shared_ctids, set(), is_matrix=True
        )
        self.container.add_block(name, body)
        result_dummy = (
            np.hstack(dummies) if dummies else np.zeros((0, 0))
        )
        self._record_sql(
            OperatorType.CONCATENATION,
            "ColumnTransformer (SQL)",
            [X] + [sub for _, _, sub in sub_results],
            result_dummy,
            out,
            lineno,
            tuple(out_columns),
        )
        return result_dummy

    # -- extraction boundaries ------------------------------------------------------------

    def train_test_split(self, original, arrays, kwargs, lineno):
        real = tuple(self.materialize_object(a) for a in arrays)
        return super().train_test_split(original, real, kwargs, lineno)

    def estimator_fit(self, original, estimator, X, y, lineno):
        return super().estimator_fit(
            original,
            estimator,
            self.materialize_object(X),
            self.materialize_object(y),
            lineno,
        )

    def estimator_score(self, original, estimator, X, y, lineno):
        return super().estimator_score(
            original,
            estimator,
            self.materialize_object(X),
            self.materialize_object(y),
            lineno,
        )


def _order_by_ctids(info: TableInfo) -> str:
    """ORDER BY clause aligning extracted rows across table expressions.

    SQL gives no row-order guarantee; ordering by the (plain) tuple
    identifiers makes every extraction of the same provenance rows line up
    — e.g. a feature matrix and its label column.
    """
    plain = [c for c, aggregated in info.ctids.items() if not aggregated]
    if not plain:
        return ""
    return " ORDER BY " + ", ".join(q(c) for c in plain)


def _columns_to_matrix(vectors: list[Vector], n_rows: int) -> np.ndarray:
    """Fetched columns as one float matrix, the values a fetched row
    holds: numbers and bools one column each, arrays one column per
    element, NaN under NULL."""
    if not n_rows:
        return np.zeros((0, 0))
    if not vectors:
        return np.zeros((n_rows, 0))
    return np.hstack([_matrix_block(vector) for vector in vectors])


def _matrix_block(vector: Vector) -> np.ndarray:
    values, elements = vector.values, vector.elements
    if vector.dictionary is None and elements is None and values.dtype.kind in "fb":
        # + 0.0 turns -0.0 into 0.0, as the fetched int 0 would be
        column = values + 0.0
        column[vector.nulls] = np.nan
        return column[:, None]
    if elements is not None and len(vector) and not vector.nulls.any():
        vector = compact(vector)
        elements, lengths = vector.elements, array_lengths(vector)
        if (lengths == lengths[0]).all() and elements.elements is None and (
            elements.dictionary is None and elements.values.dtype.kind in "fb"
        ):
            # arrays of one length (one-hot vectors): their elements are
            # the block, one reshape
            return _matrix_block(elements).reshape(len(vector), int(lengths[0]))
    # anything else (text, ragged or NULL arrays): one flat list a row
    flats = [_flat_cell(cell) for cell in python_cells(vector)]
    if len(set(map(len, flats))) > 1:
        raise ValueError("array cells of different lengths in one matrix")
    return np.array(flats, dtype=np.float64).reshape(len(flats), -1)


def _flat_cell(cell: Any) -> list[float]:
    if isinstance(cell, list):
        return [float(v) for v in cell]
    if cell is None:
        return [float("nan")]
    if isinstance(cell, bool):
        return [1.0 if cell else 0.0]
    return [float(cell)]
