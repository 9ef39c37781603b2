"""Aligned plain-text tables for experiment output."""

from __future__ import annotations

from typing import List, Sequence, Union

Cell = Union[str, int, float]


class Table:
    """A simple right-aligned numeric table with a left-aligned key column.

    The first ``left`` columns are left-aligned (text); the rest are
    right-aligned (numbers).  A left-aligned last column is not padded.

    >>> t = Table(["workload", "speedup"])
    >>> t.add_row(["zeus", 1.213])
    >>> print(t.render())       # doctest: +NORMALIZE_WHITESPACE
    workload   speedup
    --------   -------
    zeus         1.213
    """

    def __init__(
        self, columns: Sequence[str], float_format: str = "{:.3f}", left: int = 1
    ) -> None:
        if not columns:
            raise ValueError("a table needs at least one column")
        self.columns = list(columns)
        self.float_format = float_format
        self.left = left
        self._rows: List[List[str]] = []

    def add_row(self, cells: Sequence[Cell]) -> None:
        if len(cells) != len(self.columns):
            raise ValueError(
                f"row has {len(cells)} cells; table has {len(self.columns)} columns"
            )
        self._rows.append([self._format(c) for c in cells])

    def _format(self, cell: Cell) -> str:
        if isinstance(cell, bool):
            return str(cell)
        if isinstance(cell, float):
            return self.float_format.format(cell)
        return str(cell)

    def render(self, separator: str = "   ") -> str:
        widths = [len(c) for c in self.columns]
        for row in self._rows:
            for i, cell in enumerate(row):
                widths[i] = max(widths[i], len(cell))
        last = len(widths) - 1

        def align(i: int, cell: str) -> str:
            if i >= self.left:
                return cell.rjust(widths[i])
            return cell if i == last else cell.ljust(widths[i])

        lines = [separator.join(align(i, c) for i, c in enumerate(row))
                 for row in (self.columns, *self._rows)]
        lines.insert(1, separator.join("-" * w for w in widths))
        return "\n".join(lines)

    def __len__(self) -> int:
        return len(self._rows)

    def __str__(self) -> str:
        return self.render()
