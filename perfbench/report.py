"""Quartile statistics and table/csv rendering shared by run and compare."""

from __future__ import annotations

import csv
import io
import statistics


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """``(q1, median, q3)`` as ``statistics.quantiles(values, n=4)`` cuts them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def _cell(value) -> str:
    """Floats with 4 significant digits, everything else as ``str``."""
    if isinstance(value, float):
        return f"{value:.4g}"
    return "" if value is None else str(value)


def format_output(rows: list[dict], columns: list[str], fmt: str, title: str) -> str:
    """Render rows as an aligned table or as csv.

    Args:
        rows: Dicts keyed by column name (missing keys render empty).
        columns: Column names in display order.
        fmt: ``table`` or ``csv``.
        title: Title line for table output.
    """
    if fmt == "csv":
        buffer = io.StringIO()
        writer = csv.writer(buffer)
        writer.writerow(columns)
        for row in rows:
            writer.writerow([row.get(column, "") for column in columns])
        return buffer.getvalue().rstrip()
    if fmt != "table":
        raise ValueError(f"unknown format {fmt!r}")
    cells = [[_cell(row.get(column)) for column in columns] for row in rows]
    widths = [
        max([len(column)] + [len(line[i]) for line in cells])
        for i, column in enumerate(columns)
    ]
    lines = [title] if title else []
    lines.append("  ".join(c.ljust(w) for c, w in zip(columns, widths)))
    lines.append("  ".join("-" * w for w in widths))
    lines.extend(
        "  ".join(c.ljust(w) for c, w in zip(line, widths)) for line in cells
    )
    return "\n".join(lines)
