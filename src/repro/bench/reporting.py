"""Plain-text table rendering for benches.

Every benchmark prints the rows the corresponding part of the survey
reports, in a uniform aligned format, so EXPERIMENTS.md can quote them
verbatim.
"""

from __future__ import annotations


def render_table(
    headers: list[str], rows: list[list[object]], title: str = ""
) -> str:
    """Aligned text table; numeric cells are right-justified."""
    cells = [[_format(cell) for cell in row] for row in rows]
    widths = [
        max(len(headers[i]), *(len(row[i]) for row in cells)) if cells
        else len(headers[i])
        for i in range(len(headers))
    ]

    def line(parts: list[str], row: list[object] | None = None) -> str:
        rendered = []
        for i, part in enumerate(parts):
            numeric = row is not None and isinstance(row[i], (int, float))
            rendered.append(
                part.rjust(widths[i]) if numeric else part.ljust(widths[i])
            )
        return "  ".join(rendered).rstrip()

    out = []
    if title:
        out.append(title)
    out.append(line(headers))
    out.append(line(["-" * width for width in widths]))
    for row, rendered in zip(rows, cells):
        out.append(line(rendered, row))
    return "\n".join(out)


def _format(cell: object) -> str:
    if isinstance(cell, float):
        return f"{cell:.2f}"
    return str(cell)
