"""ASCII table rendering shared by experiments and benchmarks."""

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


def render_series(
    title: str,
    series: Sequence["object"],
    height: int = 10,
    width: int = 72,
    unit: str = "",
) -> str:
    """Render one or more time series as an ASCII chart; also prints it.

    ``series`` is a sequence of ``(label, ResourceSeries-like)`` pairs --
    anything with ``times`` and ``values`` lists works.  Each series gets
    its own glyph; values are resampled onto a common time axis.
    """
    glyphs = "*o+x#@"
    labelled = list(series)
    if not labelled:
        return ""
    all_times = [
        t for _label, s in labelled for t in s.times if s.times
    ]
    all_values = [v for _label, s in labelled for v in s.values]
    if not all_times or not all_values:
        return ""
    t_min, t_max = min(all_times), max(all_times)
    v_max = max(all_values) or 1.0
    span = (t_max - t_min) or 1.0

    grid = [[" "] * width for _ in range(height)]
    for index, (_label, s) in enumerate(labelled):
        glyph = glyphs[index % len(glyphs)]
        for t, v in zip(s.times, s.values):
            column = int((t - t_min) / span * (width - 1))
            row = height - 1 - int(min(v, v_max) / v_max * (height - 1))
            grid[row][column] = glyph

    lines = [f"== {title} =="]
    for row_index, row in enumerate(grid):
        level = v_max * (height - 1 - row_index) / (height - 1)
        lines.append(f"{_format(level):>10} |" + "".join(row))
    lines.append(" " * 11 + "+" + "-" * width)
    lines.append(
        " " * 11
        + f"t={_format(t_min)}s"
        + " " * max(1, width - 24)
        + f"t={_format(t_max)}s"
    )
    legend = "   ".join(
        f"{glyphs[i % len(glyphs)]} {label}{(' (' + unit + ')') if unit else ''}"
        for i, (label, _s) in enumerate(labelled)
    )
    lines.append(" " * 11 + legend)
    rendered = "\n".join(lines)
    print(rendered)
    return rendered
