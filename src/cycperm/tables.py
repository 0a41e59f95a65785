"""Count tables: a grid of counts indexed by n and pattern-set label.

Every cell carries provenance (oracle, formula, or golden) so verification
output always says where a number came from. TSV matches how the
reference tables read.
"""
from __future__ import annotations

from ._record import FrozenRecord, Record, set_field
from .errors import PreconditionViolated

PROVENANCES = ("oracle", "formula", "golden")


class Cell(FrozenRecord):
    __slots__ = _fields = ("count", "provenance")

    def __init__(self, count: int, provenance: str):
        if provenance not in PROVENANCES:
            raise PreconditionViolated(f"unknown provenance {provenance!r}")
        set_field(self, "count", count)
        set_field(self, "provenance", provenance)


class CountTable(Record):
    _fields = ("columns", "rows")

    def __init__(self, columns: tuple[str, ...], rows: dict[int, dict[str, Cell]] | None = None):
        self.columns = columns
        self.rows = {} if rows is None else rows

    def set(self, n: int, column: str, count: int, provenance: str) -> None:
        if column not in self.columns:
            raise KeyError(f"unknown column {column!r}")
        if self.rows and n < max(self.rows):
            if n not in self.rows:
                raise PreconditionViolated("rows must be added with n ascending")
        self.rows.setdefault(n, {})[column] = Cell(count, provenance)

    def to_json(self) -> str:
        import json

        payload = {
            "columns": list(self.columns),
            "rows": [
                {
                    "n": n,
                    "cells": {
                        col: {"count": cell.count, "provenance": cell.provenance}
                        for col, cell in cells.items()
                    },
                }
                for n, cells in self.rows.items()
            ],
        }
        return json.dumps(payload, indent=2, sort_keys=True)

    def _grid(self, absent: str) -> list[list[str]]:
        """The header and one row per n, as text; ``absent`` fills an empty cell."""
        return [["n", *self.columns]] + [
            [str(n), *(str(cells[c].count) if c in cells else absent for c in self.columns)]
            for n, cells in self.rows.items()
        ]

    def to_tsv(self) -> str:
        return "".join("\t".join(row) + "\n" for row in self._grid(""))

    def to_text(self) -> str:
        grid = self._grid("-")
        widths = [max(map(len, col)) for col in zip(*grid)]
        return "".join("  ".join(v.rjust(w) for v, w in zip(row, widths)) + "\n" for row in grid)
