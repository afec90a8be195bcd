"""Terminal charts: render figure-style results as ASCII.

:func:`bar_chart` renders a label -> value series in plain text, so a
benchmark log can show the *shape* of a figure, not just its numbers.
"""

from __future__ import annotations

from typing import Mapping

__all__ = ["bar_chart"]


def _scaled(value: float, maximum: float, width: int) -> int:
    if maximum <= 0:
        return 0
    return max(0, min(width, int(round(value / maximum * width))))


def bar_chart(values: Mapping[str, float], width: int = 40,
              title: str = "", unit: str = "") -> str:
    """Horizontal bar chart of label -> value.

    >>> print(bar_chart({"a": 2.0, "b": 1.0}, width=4))  # doctest: +SKIP
    a  ████ 2.00
    b  ██   1.00
    """
    if not values:
        raise ValueError("bar_chart needs at least one value")
    label_width = max(len(str(label)) for label in values)
    maximum = max(values.values())
    lines = [title] if title else []
    for label, value in values.items():
        bar = "#" * _scaled(value, maximum, width)
        lines.append(f"{str(label).ljust(label_width)}  {bar.ljust(width)} "
                     f"{value:.2f}{unit}")
    return "\n".join(lines)
