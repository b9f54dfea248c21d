"""Sim-time metrics timelines sampled at control-tick granularity.

A :class:`TimelineRecorder` collects one row per (tick, function):
queue depths, instance counts, the runtime's RPS estimate next to the
trace's oracle rate, cluster-weighted resource usage and the
dispatcher case that applied.  Rows are plain dicts in a fixed column
order so the CSV export is stable and diffs cleanly across runs.
"""

from __future__ import annotations

from typing import Any, Dict, List

from repro.specs import check_choice, reject_unknown_keys

#: fixed column order of the CSV export (and of every sampled row).
TIMELINE_COLUMNS = (
    "t",
    "function",
    "rate_estimate",
    "oracle_rps",
    "pending",
    "queue_depth",
    "live_instances",
    "launching_instances",
    "warm_pool",
    "weighted_usage",
    "dispatch_case",
)


class TimelineRecorder:
    """Accumulates per-tick metric rows for one simulation run."""

    def __init__(self) -> None:
        self.rows: List[Dict[str, Any]] = []

    def sample(self, **row: Any) -> None:
        """Record one (tick, function) observation.

        Missing columns fill with empty strings; unknown keys raise so
        a typo at an instrumentation site cannot silently widen the
        schema.
        """
        reject_unknown_keys(row, TIMELINE_COLUMNS, "timeline column")
        self.rows.append({col: row.get(col, "") for col in TIMELINE_COLUMNS})

    def __len__(self) -> int:
        return len(self.rows)

    def series(self, function: str, column: str) -> List[Any]:
        """One function's values of a column, in tick order."""
        check_choice("timeline column", column, TIMELINE_COLUMNS)
        return [
            row[column] for row in self.rows if row["function"] == function
        ]
