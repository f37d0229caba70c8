"""Per-operator runtime statistics (the EXPLAIN ANALYZE substrate).

An :class:`ExecStats` instance rides along in the execution context and
accumulates, per plan node, how often the operator ran, how many rows it
produced and how much wall time it spent — one sample per operator
dispatch.

The recorder is thread-safe: it is published on the ``Database``
(``last_exec_stats``, folded into ``operator_counters``) where every
session's thread can reach it.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Optional

from repro.sqldb.plan import PlanNode

__all__ = ["ExecStats", "OpStats", "merge_operator_counters"]


@dataclass
class OpStats:
    """Accumulated counters for one plan node."""

    label: str
    calls: int = 0
    rows: int = 0
    seconds: float = 0.0
    #: largest memory reservation this operator held at once
    peak_bytes: int = 0
    #: bytes this operator wrote to spill files
    spilled_bytes: int = 0


@dataclass
class ExecStats:
    """Thread-safe per-operator counters for one (or many) executions."""

    nodes: dict[int, OpStats] = field(default_factory=dict)
    #: wall-clock seconds of the whole execution (set by the caller)
    wall_seconds: float = 0.0
    _lock: threading.Lock = field(default_factory=threading.Lock, repr=False)

    def record(self, plan: PlanNode, rows: int, seconds: float) -> None:
        """Add one operator execution sample."""
        key = id(plan)
        with self._lock:
            entry = self.nodes.get(key)
            if entry is None:
                entry = OpStats(plan.label())
                self.nodes[key] = entry
            entry.calls += 1
            entry.rows += rows
            entry.seconds += seconds

    def record_memory(
        self, plan: PlanNode, peak_bytes: int = 0, spilled_bytes: int = 0
    ) -> None:
        """Attach memory accounting to *plan*'s entry (peak max, spill sum)."""
        key = id(plan)
        with self._lock:
            entry = self.nodes.get(key)
            if entry is None:
                entry = OpStats(plan.label())
                self.nodes[key] = entry
            if peak_bytes > entry.peak_bytes:
                entry.peak_bytes = peak_bytes
            entry.spilled_bytes += spilled_bytes

    # -- reporting -----------------------------------------------------------

    def annotate(
        self,
        plan: PlanNode,
        indent: int = 0,
        estimates: Optional[dict[int, float]] = None,
    ) -> str:
        """The plan tree as text with per-node actual counters.

        With *estimates* (a ``{id(node): rows}`` map from the optimizer's
        cardinality model) each line also carries the planner's estimated
        row count, PostgreSQL-style, ahead of the actual counters.
        """
        entry = self.nodes.get(id(plan))
        line = "  " * indent + plan.label()
        if estimates is not None and id(plan) in estimates:
            line += f"  (estimated rows={estimates[id(plan)]:.0f})"
        if entry is not None:
            line += (
                f"  (actual rows={entry.rows} calls={entry.calls} "
                f"time={entry.seconds * 1000.0:.3f}ms"
            )
            if entry.peak_bytes:
                line += f" peak_bytes={entry.peak_bytes}"
            if entry.spilled_bytes:
                line += f" spilled_bytes={entry.spilled_bytes}"
            line += ")"
        else:
            line += "  (never executed)"
        lines = [line]
        for child in plan.children():
            lines.append(self.annotate(child, indent + 1, estimates))
        return "\n".join(lines)

    def by_operator(self) -> dict[str, dict]:
        """Counters aggregated by operator label (for backend counters)."""
        out: dict[str, dict] = {}
        with self._lock:
            for entry in self.nodes.values():
                agg = out.setdefault(
                    entry.label,
                    {
                        "calls": 0,
                        "rows": 0,
                        "seconds": 0.0,
                        "peak_bytes": 0,
                        "spilled_bytes": 0,
                    },
                )
                agg["calls"] += entry.calls
                agg["rows"] += entry.rows
                agg["seconds"] += entry.seconds
                agg["peak_bytes"] = max(agg["peak_bytes"], entry.peak_bytes)
                agg["spilled_bytes"] += entry.spilled_bytes
        return out


def merge_operator_counters(
    total: dict[str, dict], new: dict[str, dict]
) -> dict[str, dict]:
    """Fold one execution's ``by_operator`` summary into running totals."""
    for label, counters in new.items():
        agg = total.setdefault(
            label,
            {
                "calls": 0,
                "rows": 0,
                "seconds": 0.0,
                "peak_bytes": 0,
                "spilled_bytes": 0,
            },
        )
        for key, value in counters.items():
            if key == "peak_bytes":
                agg[key] = max(agg.get(key, 0), value)
            else:
                agg[key] = agg.get(key, 0) + value
    return total
