"""The fixed-column result table every experiment prints.

One table type for the paper figures (:mod:`repro.exp.figures`), the
cross-trial aggregates (:mod:`repro.exp.aggregate`) and the runtime
benchmarks, so a multi-trial row looks exactly like a single-shot one and
the rendered text can be pinned byte for byte (``tests/data/figures.json``).
"""

from __future__ import annotations

from typing import Dict, List, Sequence


class ExperimentTable:
    """A small fixed-column result table printed by each benchmark.

    Parameters
    ----------
    title:
        Table title (usually the paper figure/table being reproduced).
    columns:
        Column names; the first column is the row label.
    """

    def __init__(self, title: str, columns: Sequence[str]) -> None:
        if not columns:
            raise ValueError("at least one column is required")
        self.title = title
        self.columns = list(columns)
        self.rows: List[List[str]] = []

    def add_row(self, *values) -> None:
        """Append a row; values are converted to display strings."""
        if len(values) != len(self.columns):
            raise ValueError(
                f"expected {len(self.columns)} values, got {len(values)}"
            )
        formatted = []
        for value in values:
            if isinstance(value, float):
                formatted.append(f"{value:.3f}")
            else:
                formatted.append(str(value))
        self.rows.append(formatted)

    def as_dicts(self) -> List[Dict[str, str]]:
        """Rows as dictionaries keyed by column name."""
        return [dict(zip(self.columns, row)) for row in self.rows]

    def render(self) -> str:
        """Render the table as aligned plain text."""
        widths = [len(c) for c in self.columns]
        for row in self.rows:
            for i, cell in enumerate(row):
                widths[i] = max(widths[i], len(cell))
        lines = [self.title, ""]
        header = "  ".join(c.ljust(widths[i]) for i, c in enumerate(self.columns))
        lines.append(header)
        lines.append("  ".join("-" * w for w in widths))
        for row in self.rows:
            lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)))
        return "\n".join(lines)

    def show(self) -> None:
        """Print the rendered table."""
        print("\n" + self.render() + "\n")
