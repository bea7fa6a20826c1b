"""The aligned plain-text tables every CLI command prints its rows with."""

from __future__ import annotations

from typing import Mapping, Sequence

__all__ = ["render_table", "print_table"]


def _format(value) -> str:
    if isinstance(value, float):
        if value == 0.0:
            return "0"
        if abs(value) >= 1000 or abs(value) < 0.001:
            return f"{value:.3e}"
        return f"{value:.4g}"
    return str(value)


def render_table(title: str, rows: "Sequence[Mapping]") -> str:
    """Render a list of row dicts as an aligned monospace table, one column
    per key any row has (in order of first appearance)."""
    if not rows:
        return f"{title}\n(no rows)"
    columns = list(dict.fromkeys(key for row in rows for key in row))
    cells = [[_format(row.get(col, "")) for col in columns] for row in rows]
    widths = [
        max(len(col), *(len(line[i]) for line in cells)) for i, col in enumerate(columns)
    ]
    header = "  ".join(col.ljust(w) for col, w in zip(columns, widths))
    rule = "-" * len(header)
    body = "\n".join("  ".join(c.ljust(w) for c, w in zip(line, widths)) for line in cells)
    return f"\n{title}\n{rule}\n{header}\n{rule}\n{body}\n{rule}"


def print_table(title: str, rows: "Sequence[Mapping]") -> None:
    """Print a rendered table to stdout."""
    print(render_table(title, rows))
