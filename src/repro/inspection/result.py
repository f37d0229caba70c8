"""Inspection run results."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Optional

from repro.inspection.checks import Check, CheckResult, CheckStatus
from repro.inspection.inspections import Inspection
from repro.inspection.operators import DagNode

if TYPE_CHECKING:
    import networkx as nx

__all__ = ["InspectorResult"]


@dataclass
class InspectorResult:
    """Everything an inspected pipeline run produces.

    ``dag`` is the extracted dataflow DAG; the two dictionaries mirror
    mlinspect's interface (§4): one maps each DAG node to its inspection
    results, the other maps each check to its verdict.  For SQL-backed
    runs, ``sql_source`` holds the generated SQL script.
    """

    dag: nx.DiGraph
    dag_node_to_inspection_results: dict[DagNode, dict[Inspection, Any]]
    check_to_check_results: dict[Check, CheckResult]
    sql_source: Optional[str] = None
    extras: dict[str, Any] = field(default_factory=dict)

    @property
    def checks_passed(self) -> bool:
        return all(
            result.status is CheckStatus.SUCCESS
            for result in self.check_to_check_results.values()
        )

    def nodes_in_order(self) -> list[DagNode]:
        return sorted(self.dag.nodes, key=lambda node: node.node_id)

    def histograms_for(self, inspection: Inspection) -> dict[DagNode, Any]:
        """All per-node results of one inspection, in DAG-node order."""
        out = {}
        for node in self.nodes_in_order():
            results = self.dag_node_to_inspection_results.get(node, {})
            if inspection in results:
                out[node] = results[inspection]
        return out
