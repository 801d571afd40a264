"""ASCII table rendering for ``repro bench run`` and the benchmark suite."""

from __future__ import annotations

from typing import Any, Sequence


def render_table(
    title: str, headers: Sequence[str], rows: Sequence[Sequence[Any]]
) -> str:
    """Render (and return) a titled ASCII table; also prints it."""
    text_rows = [
        ["" if cell is None else _format(cell) for cell in row] for row in rows
    ]
    widths = [
        max(len(headers[i]), *(len(r[i]) for r in text_rows))
        if text_rows
        else len(headers[i])
        for i in range(len(headers))
    ]
    rule = "+" + "+".join("-" * (w + 2) for w in widths) + "+"
    lines = [f"== {title} ==", rule]
    lines.append(
        "|"
        + "|".join(f" {headers[i]:<{widths[i]}} " for i in range(len(headers)))
        + "|"
    )
    lines.append(rule)
    for row in text_rows:
        lines.append(
            "|"
            + "|".join(f" {row[i]:>{widths[i]}} " for i in range(len(headers)))
            + "|"
        )
    lines.append(rule)
    rendered = "\n".join(lines)
    print(rendered)
    return rendered


def _format(value: Any) -> str:
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 1000:
            return f"{value:,.0f}"
        if abs(value) >= 10:
            return f"{value:.1f}"
        return f"{value:.2f}"
    return str(value)

