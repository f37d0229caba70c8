"""Python inspection backend: DAG extraction, lineage, row-wise inspections.

This is the mlinspect-equivalent execution mode: every patched call runs
the original library function, lineage annotations are propagated alongside
(the Python counterpart of the propagated ctid columns), and every
registered inspection visits the operator's output.
"""

from __future__ import annotations

import os
from typing import Any, Iterable, Optional

import numpy as np

from repro.frame import missing
from repro.frame.dataframe import DataFrame
from repro.frame.merge import merge_from_positions, merge_with_positions
from repro.frame.series import Series
from repro.inspection.annotations import Lineage
from repro.inspection.backend import InspectionBackend
from repro.inspection.inspections import Inspection
from repro.inspection.operators import DagNode, OperatorType
from repro.learn.model_selection import _take, split_positions

__all__ = ["PythonBackend"]


class PythonBackend(InspectionBackend):
    """Runs the pipeline natively while building DAG + inspection results."""

    def __init__(self, inspections: Iterable[Inspection]) -> None:
        super().__init__()
        self.inspections = list(inspections)
        # imported on first use: networkx costs ~21 MB and ~0.2 s, which a
        # process that only imports the package (the SQL engine's users,
        # every connector) should not pay
        import networkx as nx

        self.dag = nx.DiGraph()
        self.inspection_results: dict[DagNode, dict[Inspection, Any]] = {}
        self._node_counter = 0
        self._object_nodes: dict[int, DagNode] = {}
        self._lineages: dict[int, Lineage] = {}
        self._keepalive: list[Any] = []  # pin ids so they stay unique
        self._source_columns: dict[str, dict[str, np.ndarray]] = {}
        self._column_sources: dict[str, str] = {}
        self._source_counter = 0
        #: transformer instances currently inside a recorded call, so the
        #: internal fit_transform -> transform re-entry records one node
        self._inflight_transformers: set[int] = set()

    # -- SourceResolver protocol ------------------------------------------------

    def column_source(self, column: str) -> Optional[str]:
        return self._column_sources.get(column)

    def source_values(self, source: str, column: str) -> np.ndarray:
        return self._source_columns[source][column]

    # -- bookkeeping ---------------------------------------------------------------

    def lineage_of(self, obj: Any) -> Optional[Lineage]:
        return self._lineages.get(id(obj))

    def _record(
        self,
        operator_type: OperatorType,
        description: str,
        inputs: list[Any],
        output: Any,
        lineage: Optional[Lineage],
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
            self._keepalive.append(output)
            if lineage is not None:
                self._lineages[id(output)] = lineage
        results: dict[Inspection, Any] = {}
        with self.suppress():  # inspections must not record nodes
            for inspection in self.inspections:
                results[inspection] = inspection.visit(node, output, lineage, self)
        self.inspection_results[node] = results
        return node

    @staticmethod
    def _columns_of(obj: Any) -> tuple[str, ...]:
        if isinstance(obj, DataFrame):
            return tuple(obj.columns)
        if isinstance(obj, Series) and obj.name:
            return (obj.name,)
        return ()

    # -- pandas hooks ---------------------------------------------------------------------

    def _register_source(
        self,
        frame: DataFrame,
        base: str,
        description: str,
        lineno: Optional[int],
    ) -> None:
        source = f"{base}_{self._source_counter}"
        self._source_counter += 1
        self._source_columns[source] = {
            name: frame.column_array(name).copy() for name in frame.columns
        }
        for name in frame.columns:
            self._column_sources.setdefault(name, source)
        lineage = Lineage.source(source, len(frame))
        self._record(
            OperatorType.DATA_SOURCE,
            description,
            [],
            frame,
            lineage,
            lineno,
            self._columns_of(frame),
        )

    def read_csv(self, original, path, na_values, lineno):
        with self.suppress():
            frame = original(path, na_values=na_values)
        base = os.path.splitext(os.path.basename(str(path)))[0]
        self._register_source(
            frame, base, f"read_csv({os.path.basename(str(path))})", lineno
        )
        return frame

    def frame_created(self, frame, lineno):
        self._register_source(frame, "dataframe", "DataFrame(...)", lineno)

    def frame_getitem(self, original, frame, key, lineno):
        result = original(frame, key)
        parent_lineage = self.lineage_of(frame)
        if isinstance(key, str):
            lineage = parent_lineage.copy() if parent_lineage else None
            self._record(
                OperatorType.PROJECTION,
                f"projection: [{key!r}]",
                [frame],
                result,
                lineage,
                lineno,
                self._columns_of(result),
            )
        elif isinstance(key, (list, tuple)):
            lineage = parent_lineage.copy() if parent_lineage else None
            self._record(
                OperatorType.PROJECTION,
                f"projection: {list(key)}",
                [frame],
                result,
                lineage,
                lineno,
                self._columns_of(result),
            )
        else:
            mask = key._bool_values() if isinstance(key, Series) else np.asarray(key)
            positions = np.flatnonzero(mask)
            lineage = (
                parent_lineage.gather(positions) if parent_lineage else None
            )
            self._record(
                OperatorType.SELECTION,
                "selection",
                [frame, key],
                result,
                lineage,
                lineno,
                self._columns_of(result),
            )
        return result

    def frame_setitem(self, original, frame, key, value, lineno):
        original(frame, key, value)
        lineage = self.lineage_of(frame)
        self._record(
            OperatorType.PROJECTION_MODIFY,
            f"assign column {key!r}",
            [frame, value],
            frame,
            lineage.copy() if lineage else None,
            lineno,
            self._columns_of(frame),
        )

    def frame_merge(self, original, left, right, on, how, suffixes, lineno):
        left_pos, right_pos = merge_with_positions(left, right, on=on, how=how)
        with self.suppress():
            result = merge_from_positions(
                left, right, left_pos, right_pos, on, how, suffixes
            )
        left_lineage = self.lineage_of(left)
        right_lineage = self.lineage_of(right)
        lineage = None
        if left_lineage is not None and right_lineage is not None:
            lineage = left_lineage.gather(left_pos).merged_with(
                right_lineage.gather(right_pos), len(left_pos)
            )
        elif left_lineage is not None:
            lineage = left_lineage.gather(left_pos)
        self._record(
            OperatorType.JOIN,
            f"merge on {on!r} ({how})",
            [left, right],
            result,
            lineage,
            lineno,
            self._columns_of(result),
        )
        return result

    def frame_dropna(self, original, frame, subset, lineno):
        with self.suppress():
            result = original(frame, subset=subset)
        names = list(subset) if subset is not None else frame.columns
        keep = np.ones(len(frame), dtype=bool)
        for name in names:
            keep &= ~missing.isnull_array(frame.column_array(name))
        positions = np.flatnonzero(keep)
        parent_lineage = self.lineage_of(frame)
        lineage = parent_lineage.gather(positions) if parent_lineage else None
        self._record(
            OperatorType.SELECTION,
            "dropna",
            [frame],
            result,
            lineage,
            lineno,
            self._columns_of(result),
        )
        return result

    def frame_replace(self, original, obj, to_replace, value, regex, lineno):
        with self.suppress():
            result = original(obj, to_replace, value, regex=regex)
        parent_lineage = self.lineage_of(obj)
        self._record(
            OperatorType.PROJECTION_MODIFY,
            f"replace({to_replace!r})",
            [obj],
            result,
            parent_lineage.copy() if parent_lineage else None,
            lineno,
            self._columns_of(result),
        )
        return result

    def groupby_agg(self, original, groupby, spec, named, lineno):
        with self.suppress():
            result = original(groupby, spec, **named)
        parent_lineage = self.lineage_of(groupby.frame)
        lineage = None
        if parent_lineage is not None:
            lineage = parent_lineage.group(groupby.groups().values())
        self._record(
            OperatorType.GROUP_BY_AGG,
            f"groupby {groupby.keys} agg",
            [groupby.frame],
            result,
            lineage,
            lineno,
            self._columns_of(result),
        )
        return result

    def series_binop(self, original, op, left, right, lineno):
        result = original(left, right)
        tracked = left if isinstance(left, Series) else right
        parent_lineage = self.lineage_of(tracked)
        self._record(
            OperatorType.PROJECTION_MODIFY,
            f"series {op}",
            [left, right],
            result,
            parent_lineage.copy() if parent_lineage else None,
            lineno,
            self._columns_of(result),
        )
        return result

    def series_unop(self, original, op, operand, lineno):
        result = original(operand)
        parent_lineage = self.lineage_of(operand)
        self._record(
            OperatorType.PROJECTION_MODIFY,
            f"series {op}",
            [operand],
            result,
            parent_lineage.copy() if parent_lineage else None,
            lineno,
            self._columns_of(result),
        )
        return result

    def series_isin(self, original, series, values, lineno):
        result = original(series, values)
        parent_lineage = self.lineage_of(series)
        self._record(
            OperatorType.PROJECTION_MODIFY,
            f"isin({list(values)!r})",
            [series],
            result,
            parent_lineage.copy() if parent_lineage else None,
            lineno,
            self._columns_of(result),
        )
        return result

    # -- sklearn hooks --------------------------------------------------------------------

    def transformer_fit_transform(self, original, transformer, X, y, lineno):
        if id(transformer) in self._inflight_transformers:
            return original(transformer, X, y)
        self._inflight_transformers.add(id(transformer))
        try:
            result = original(transformer, X, y)
        finally:
            self._inflight_transformers.discard(id(transformer))
        parent_lineage = self.lineage_of(X)
        self._record(
            OperatorType.TRANSFORMER,
            f"{type(transformer).__name__}.fit_transform",
            [X],
            result,
            parent_lineage.copy() if parent_lineage else None,
            lineno,
            self._columns_of(X),
        )
        return result

    def transformer_transform(self, original, transformer, X, lineno):
        if id(transformer) in self._inflight_transformers:
            return original(transformer, X)
        self._inflight_transformers.add(id(transformer))
        try:
            result = original(transformer, X)
        finally:
            self._inflight_transformers.discard(id(transformer))
        parent_lineage = self.lineage_of(X)
        self._record(
            OperatorType.TRANSFORMER,
            f"{type(transformer).__name__}.transform",
            [X],
            result,
            parent_lineage.copy() if parent_lineage else None,
            lineno,
            self._columns_of(X),
        )
        return result

    def label_binarize(self, original, y, classes, lineno):
        result = original(y, classes=classes)
        parent_lineage = self.lineage_of(y)
        self._record(
            OperatorType.PROJECTION_MODIFY,
            f"label_binarize(classes={list(classes)})",
            [y],
            result,
            parent_lineage.copy() if parent_lineage else None,
            lineno,
            self._columns_of(y),
        )
        return result

    def train_test_split(self, original, arrays, kwargs, lineno):
        n = len(arrays[0])
        train_positions, test_positions = split_positions(
            n,
            kwargs.get("test_size", 0.25),
            kwargs.get("random_state"),
            kwargs.get("shuffle", True),
        )
        outputs: list[Any] = []
        for array in arrays:
            parent_lineage = self.lineage_of(array)
            for positions, part in (
                (train_positions, "train"),
                (test_positions, "test"),
            ):
                piece = _take(array, positions)
                lineage = (
                    parent_lineage.gather(positions) if parent_lineage else None
                )
                self._record(
                    OperatorType.TRAIN_TEST_SPLIT,
                    f"train_test_split ({part})",
                    [array],
                    piece,
                    lineage,
                    lineno,
                    self._columns_of(piece),
                )
                outputs.append(piece)
        return outputs

    def estimator_fit(self, original, estimator, X, y, lineno):
        result = original(estimator, X, y)
        self._record(
            OperatorType.ESTIMATOR,
            f"{type(estimator).__name__}.fit",
            [X, y],
            estimator,
            None,
            lineno,
            self._columns_of(X),
        )
        return result

    def estimator_score(self, original, estimator, X, y, lineno):
        result = original(estimator, X, y)
        self._record(
            OperatorType.SCORE,
            f"{type(estimator).__name__}.score",
            [X, y],
            None,
            None,
            lineno,
        )
        return result
