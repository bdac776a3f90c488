"""Plain-text rendering of experiment results.

The paper's figures are line plots; since this repository has no plotting
dependency the benches print the underlying series (same x axis, same y
axis, same competitor set) so the shape of each figure can be compared
directly against the paper.
"""

from __future__ import annotations

from typing import Any, Dict, List, Sequence

from repro.harness.results import SeriesResult


def _format_value(value: Any) -> str:
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 1000 or abs(value) < 0.01:
            return f"{value:.3g}"
        return f"{value:.3f}".rstrip("0").rstrip(".")
    return str(value)


def format_table(rows: Sequence[Dict[str, Any]]) -> str:
    """Format a list of row dicts as an aligned text table."""
    if not rows:
        return "(empty table)"
    columns: List[str] = []
    for row in rows:
        for key in row:
            if key not in columns:
                columns.append(key)
    rendered = [[_format_value(row.get(col, "")) for col in columns] for row in rows]
    widths = [
        max(len(col), *(len(r[i]) for r in rendered)) for i, col in enumerate(columns)
    ]
    header = " | ".join(col.ljust(widths[i]) for i, col in enumerate(columns))
    separator = "-+-".join("-" * widths[i] for i in range(len(columns)))
    body = [
        " | ".join(r[i].ljust(widths[i]) for i in range(len(columns))) for r in rendered
    ]
    return "\n".join([header, separator, *body])


def format_series(series: SeriesResult, max_points: int = 25) -> str:
    """Format a series as a two-column table, sub-sampled to ``max_points`` rows."""
    if len(series) == 0:
        return f"{series.name}: (empty series)"
    indices = list(range(len(series)))
    if len(indices) > max_points:
        step = len(indices) / max_points
        indices = [int(i * step) for i in range(max_points)]
        if indices[-1] != len(series) - 1:
            indices.append(len(series) - 1)
    rows = [
        {series.x_label: series.x[i], f"{series.y_label} [{series.name}]": series.y[i]}
        for i in indices
    ]
    return format_table(rows)


def format_comparison(
    series_by_name: Dict[str, SeriesResult], max_points: int = 25
) -> str:
    """Format several series sharing an x axis as one wide table."""
    if not series_by_name:
        return "(no series)"
    first = next(iter(series_by_name.values()))
    indices = list(range(len(first)))
    if len(indices) > max_points:
        step = len(indices) / max_points
        indices = [int(i * step) for i in range(max_points)]
        if indices and indices[-1] != len(first) - 1:
            indices.append(len(first) - 1)
    rows = []
    for i in indices:
        row: Dict[str, Any] = {first.x_label: first.x[i]}
        for name, series in series_by_name.items():
            row[name] = series.y[i] if i < len(series.y) else ""
        rows.append(row)
    return format_table(rows)
