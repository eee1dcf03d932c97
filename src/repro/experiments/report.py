"""Plain-text table/bar rendering for experiment outputs.

Every experiment module renders its result the way the paper presents it —
as rows of a table or series of a bar chart — so ``repro experiment <id>``
prints directly comparable output, which ``benchmarks/results/<id>.txt``
pins byte for byte (``tests/test_artifacts.py``).
"""

from __future__ import annotations

from typing import Iterable, List, Sequence


class TextTable:
    """Minimal fixed-width text table."""

    def __init__(self, headers: Sequence[str]):
        self.headers = [str(h) for h in headers]
        self.rows: List[List[str]] = []

    def add_row(self, *cells: object) -> None:
        if len(cells) != len(self.headers):
            raise ValueError(
                f"row has {len(cells)} cells, table has {len(self.headers)} columns"
            )
        self.rows.append([_fmt(c) for c in cells])

    def render(self) -> str:
        widths = [len(h) for h in self.headers]
        for row in self.rows:
            for i, cell in enumerate(row):
                widths[i] = max(widths[i], len(cell))
        lines = [
            "  ".join(h.ljust(widths[i]) for i, h in enumerate(self.headers)),
            "  ".join("-" * w for w in widths),
        ]
        for row in self.rows:
            lines.append("  ".join(c.ljust(widths[i]) for i, c in enumerate(row)))
        return "\n".join(lines)


def _fmt(value: object) -> str:
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 100:
            return f"{value:.0f}"
        if abs(value) >= 1:
            return f"{value:.2f}"
        return f"{value:.4f}"
    return str(value)


def stacked_bar(
    parts: Sequence[float], labels: Sequence[str], width: int = 40
) -> str:
    """Render one stacked horizontal bar (e.g. sync/dm/operation split)."""
    total = sum(parts)
    if total <= 0:
        return "(empty)"
    chars = "#=."
    segments = []
    for i, part in enumerate(parts):
        n = int(round(part / total * width))
        segments.append(chars[i % len(chars)] * n)
    bar = "".join(segments)[:width].ljust(width)
    legend = " ".join(
        f"{labels[i]}={parts[i]:.3g}" for i in range(len(parts))
    )
    return f"|{bar}| {legend}"


def format_seconds(value: float) -> str:
    """Human-readable duration."""
    if value >= 1.0:
        return f"{value:.2f} s"
    if value >= 1e-3:
        return f"{value * 1e3:.2f} ms"
    return f"{value * 1e6:.1f} us"


def normalized(values: Iterable[float], reference: float) -> List[float]:
    """Normalize values to ``reference`` (the paper normalizes to Hetero)."""
    if reference <= 0:
        raise ValueError("reference must be positive")
    return [v / reference for v in values]
