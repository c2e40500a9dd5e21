"""Result tables for the experiment harness.

Every experiment runner returns one or more :class:`Table` objects; the
``benchmarks/`` harness prints them, and ``EXPERIMENTS.md`` quotes
them. Keeping formatting in one place guarantees the reported rows are
exactly what the code computed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable

from ..errors import ConfigurationError


def _format_cell(value: Any) -> str:
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, float):
        if value != value:  # NaN
            return "-"
        if abs(value) >= 1000:
            return f"{value:,.0f}"
        if abs(value) >= 10:
            return f"{value:.1f}"
        return f"{value:.3f}"
    return str(value)


@dataclass
class Table:
    """A titled result table with aligned text rendering."""

    title: str
    columns: list[str]
    rows: list[list[Any]] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    def add_row(self, *values: Any) -> None:
        if len(values) != len(self.columns):
            raise ConfigurationError(
                f"row has {len(values)} cells, table has {len(self.columns)} columns"
            )
        self.rows.append(list(values))

    def add_note(self, note: str) -> None:
        self.notes.append(note)

    def column(self, name: str) -> list[Any]:
        """All values of one column (for assertions in benches)."""
        try:
            index = self.columns.index(name)
        except ValueError:
            raise ConfigurationError(f"no column {name!r}") from None
        return [row[index] for row in self.rows]

    def lookup(self, key: Any, column: str) -> Any:
        """``column``'s value in the first row whose first cell is ``key``."""
        for first, value in zip(self.column(self.columns[0]),
                                self.column(column)):
            if first == key:
                return value
        raise ConfigurationError(f"no row {key!r}")

    def render(self) -> str:
        cells = [[_format_cell(value) for value in row] for row in self.rows]
        widths = [
            max(len(self.columns[i]), *(len(row[i]) for row in cells))
            if cells
            else len(self.columns[i])
            for i in range(len(self.columns))
        ]
        lines = [f"== {self.title} =="]
        header = " | ".join(
            name.ljust(width) for name, width in zip(self.columns, widths)
        )
        lines.append(header)
        lines.append("-+-".join("-" * width for width in widths))
        for row in cells:
            lines.append(
                " | ".join(cell.rjust(width) for cell, width in zip(row, widths))
            )
        for note in self.notes:
            lines.append(f"  note: {note}")
        return "\n".join(lines)

    def __str__(self) -> str:  # pragma: no cover - convenience
        return self.render()


def print_tables(tables: list[Table]) -> None:
    """Print tables separated by blank lines (the bench entry point)."""
    for table in tables:
        print(table.render())
        print()


def cell(table: int, key: Any, column: str) -> Callable[[list[Table]], Any]:
    """A claim row's read: ``column`` of the row keyed ``key``."""
    return lambda tables: tables[table].lookup(key, column)


def where(table: int, test: Callable[[dict[str, Any]], Any]
          ) -> Callable[[list[Table]], list[Any]]:
    """A claim row's read: the first cell of every row ``test`` flags,
    the row given as a ``{column: value}`` dict."""
    def read(tables: list[Table]) -> list[Any]:
        rows = tables[table]
        return [row[0] for row in rows.rows
                if test(dict(zip(rows.columns, row)))]
    return read
