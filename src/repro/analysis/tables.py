"""ASCII table rendering for benchmark output.

The benchmark harness prints the rows/series each experiment reports in the
same shape a paper table would have; these helpers keep that output aligned
and consistent.
"""

from __future__ import annotations

from typing import Any, Sequence


def _format_cell(value: Any) -> str:
    if isinstance(value, float):
        if value != value:  # NaN
            return "nan"
        if value == float("inf"):
            return "inf"
        if value == float("-inf"):
            return "-inf"
        if value == int(value) and abs(value) < 1e15:
            return f"{value:.1f}"
        return f"{value:.4g}"
    return str(value)


def render_table(
    headers: Sequence[str],
    rows: Sequence[Sequence[Any]],
    title: str | None = None,
) -> str:
    """Render an aligned ASCII table.

    >>> print(render_table(["a", "b"], [[1, 2.5]]))
    a | b
    --+----
    1 | 2.5
    """
    cells = [[_format_cell(v) for v in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in cells:
        if len(row) != len(headers):
            raise ValueError(
                f"row has {len(row)} cells but table has {len(headers)} columns"
            )
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = []
    if title:
        lines.append(title)
    lines.append(" | ".join(h.ljust(w) for h, w in zip(headers, widths)).rstrip())
    lines.append("-+-".join("-" * w for w in widths))
    for row in cells:
        lines.append(" | ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip())
    return "\n".join(lines)


def render_matrix(
    row_labels: Sequence[str],
    col_labels: Sequence[str],
    values: dict[tuple[str, str], Any],
    corner: str = "",
    title: str | None = None,
) -> str:
    """Render a labelled 2-D matrix (rows x columns)."""
    headers = [corner, *col_labels]
    rows = [
        [row, *[values.get((row, col), "") for col in col_labels]]
        for row in row_labels
    ]
    return render_table(headers, rows, title=title)


def render_solvability_matrix(title: str | None = None) -> str:
    """The one-time query's solvability over the standard lattice: one row
    per arrival class, one column per knowledge class, each cell ``yes``,
    ``cond`` or ``NO`` (``repro matrix`` and the report's first section)."""
    from repro.core.classes import standard_lattice
    from repro.core.solvability import Solvable, solvability_matrix

    symbol = {Solvable.YES: "yes", Solvable.CONDITIONAL: "cond",
              Solvable.NO: "NO"}
    matrix = solvability_matrix(standard_lattice())
    cells = {
        (str(system.arrival), str(system.knowledge)): symbol[result.answer]
        for system, result in matrix.items()
    }
    rows = list(dict.fromkeys(row for row, _ in cells))
    cols = list(dict.fromkeys(col for _, col in cells))
    return render_matrix(rows, cols, cells, corner="arrival \\ knowledge",
                         title=title)


#: Default summary columns pulled from an engine result document.
DEFAULT_RESULT_COLUMNS = (
    "trials", "completeness", "fully_complete", "ok", "messages", "latency",
)


def render_result_document(
    document: dict[str, Any],
    columns: Sequence[str] | None = None,
    title: str | None = None,
) -> str:
    """Render a ``repro.engine.results`` JSON document as a summary table.

    One row per grid point; the point coordinates become the leading
    columns and ``columns`` names the per-point summary fields to show
    (see :func:`repro.engine.results.summarize_point` for what exists).
    """
    points = document.get("points", [])
    summary_columns = list(columns if columns is not None else DEFAULT_RESULT_COLUMNS)
    point_keys: list[str] = []
    for entry in points:
        for key in entry.get("point", {}):
            if key not in point_keys:
                point_keys.append(key)
    headers = [*point_keys, *summary_columns]
    rows = []
    for entry in points:
        point = entry.get("point", {})
        summary = entry.get("summary", {})
        rows.append([
            *[point.get(key, "") for key in point_keys],
            *[summary.get(column, "") for column in summary_columns],
        ])
    if title is None:
        title = str(document.get("plan", {}).get("name", "")) or None
    return render_table(headers, rows, title=title)
