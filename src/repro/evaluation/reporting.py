"""Plain-text reporting helpers: ASCII tables, bars and CSV output.

The paper's artifact produces PDFs via matplotlib/seaborn; this repository
deliberately keeps reporting dependency-free and renders the same data as
text tables and bar strings, plus CSV files for external plotting.
"""

from __future__ import annotations

import csv
import io
from typing import Iterable, List, Optional, Sequence


def format_percent(value: float, digits: int = 1) -> str:
    return f"{value:.{digits}f}%"


def format_ratio(value: float, digits: int = 2) -> str:
    return f"{value:.{digits}f}x"


def ascii_table(headers: Sequence[str], rows: Iterable[Sequence[object]],
                title: Optional[str] = None) -> str:
    """Render a list of rows as a fixed-width ASCII table."""
    materialized: List[List[str]] = [[str(cell) for cell in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in materialized:
        for index, cell in enumerate(row):
            if index < len(widths):
                widths[index] = max(widths[index], len(cell))
            else:
                widths.append(len(cell))

    def render_row(cells: Sequence[str]) -> str:
        padded = [cell.ljust(widths[i]) for i, cell in enumerate(cells)]
        return "| " + " | ".join(padded) + " |"

    separator = "+-" + "-+-".join("-" * w for w in widths) + "-+"
    lines: List[str] = []
    if title:
        lines.append(title)
    lines.append(separator)
    lines.append(render_row(list(headers)))
    lines.append(separator)
    for row in materialized:
        lines.append(render_row(row))
    lines.append(separator)
    return "\n".join(lines)


def text_bar(value: float, maximum: float, width: int = 40, fill: str = "#") -> str:
    """A proportional text bar, e.g. for per-benchmark reduction charts."""
    if maximum <= 0:
        return ""
    length = int(round(width * max(0.0, value) / maximum))
    return fill * min(width, length)


def bar_chart(labels: Sequence[str], values: Sequence[float],
              title: Optional[str] = None, unit: str = "%", width: int = 40) -> str:
    """Render labelled values as a horizontal text bar chart."""
    maximum = max(values) if values else 0.0
    label_width = max((len(label) for label in labels), default=0)
    lines: List[str] = []
    if title:
        lines.append(title)
    for label, value in zip(labels, values):
        bar = text_bar(value, maximum, width)
        lines.append(f"{label.ljust(label_width)}  {value:6.2f}{unit} {bar}")
    return "\n".join(lines)


def cdf_table(positions: Sequence[int], max_position: int = 10) -> List[tuple]:
    """Cumulative distribution of rank positions (Figure 8 data)."""
    total = len(positions)
    rows = []
    cumulative = 0
    for position in range(1, max_position + 1):
        cumulative += sum(1 for p in positions if p == position)
        coverage = 100.0 * cumulative / total if total else 0.0
        rows.append((position, coverage))
    return rows


def to_csv(headers: Sequence[str], rows: Iterable[Sequence[object]]) -> str:
    """Serialise rows to CSV text (the artifact's raw-data format)."""
    buffer = io.StringIO()
    writer = csv.writer(buffer)
    writer.writerow(list(headers))
    for row in rows:
        writer.writerow(list(row))
    return buffer.getvalue()


def write_csv(path: str, headers: Sequence[str], rows: Iterable[Sequence[object]]) -> None:
    with open(path, "w", newline="") as handle:
        handle.write(to_csv(headers, rows))


def geometric_mean(values: Sequence[float]) -> float:
    positive = [v for v in values if v > 0]
    if not positive:
        return 0.0
    product = 1.0
    for value in positive:
        product *= value
    return product ** (1.0 / len(positive))


def arithmetic_mean(values: Sequence[float]) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0
