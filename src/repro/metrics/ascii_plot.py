"""Terminal plotting for experiment output.

Benchmarks and examples print series the paper shows as figures;
these helpers render them as sparklines and multi-series line plots
in plain text.

Both renderers tolerate degenerate input — NaN / ±inf values,
empty series, zero-span windows — because detector math feeds them
windows where a rate divides by zero ops or a baseline never formed.
Non-finite samples render as ``·`` (sparklines) or are dropped
(line plots) instead of raising.
"""

from __future__ import annotations

import math
from typing import Dict, List, Sequence, Tuple

_SPARK_LEVELS = "▁▂▃▄▅▆▇█"

#: Placeholder glyph for a NaN/±inf sample in a sparkline.
_SPARK_HOLE = "·"

#: ``line_plot``'s grid size in characters.
PLOT_WIDTH = 72
PLOT_HEIGHT = 14


def _finite(values: Sequence[float]) -> List[float]:
    return [value for value in values if math.isfinite(value)]


def sparkline(values: Sequence[float]) -> str:
    """One-line sparkline of ``values`` (non-finite samples → ``·``)."""
    if not values:
        return ""
    finite = _finite(values)
    if not finite:
        return _SPARK_HOLE * len(values)
    low = min(finite)
    high = max(finite)
    span = high - low
    steps = len(_SPARK_LEVELS) - 1
    out = []
    for value in values:
        if not math.isfinite(value):
            out.append(_SPARK_HOLE)
        elif span <= 0:
            out.append(_SPARK_LEVELS[0])
        else:
            out.append(_SPARK_LEVELS[int(round((value - low) / span * steps))])
    return "".join(out)


def line_plot(
    series: Dict[str, Sequence[Tuple[float, float]]],
) -> str:
    """Plot several (x, y) series on one character grid.

    Each series gets a marker from its name's first character; axes
    are labeled with min/max values.  Points with a non-finite
    coordinate are dropped; a plot with no finite points renders
    empty.
    """
    clean = {
        name: [
            (x, y) for x, y in values
            if math.isfinite(x) and math.isfinite(y)
        ]
        for name, values in series.items()
    }
    points = [(x, y) for values in clean.values() for x, y in values]
    if not points:
        return ""
    xs = [x for x, _ in points]
    ys = [y for _, y in points]
    x_low, x_high = min(xs), max(xs)
    y_low, y_high = min(ys), max(ys)
    x_span = (x_high - x_low) or 1.0
    y_span = (y_high - y_low) or 1.0

    width, height = PLOT_WIDTH, PLOT_HEIGHT
    grid: List[List[str]] = [[" "] * width for _ in range(height)]
    for name, values in clean.items():
        marker = name.strip()[0] if name.strip() else "?"
        for x, y in values:
            column = int((x - x_low) / x_span * (width - 1))
            row = height - 1 - int((y - y_low) / y_span * (height - 1))
            grid[row][column] = marker

    lines = [f"{y_high:>10,.0f} ┤" + "".join(grid[0])]
    for row in grid[1:-1]:
        lines.append(" " * 10 + " │" + "".join(row))
    lines.append(f"{y_low:>10,.0f} ┤" + "".join(grid[-1]))
    lines.append(
        " " * 12 + f"{x_low:<10,.0f}" + " " * max(0, width - 20) + f"{x_high:>10,.0f}"
    )
    legend = "   ".join(f"{name.strip()[0]} = {name}" for name in series)
    lines.append(" " * 12 + legend)
    return "\n".join(lines)
