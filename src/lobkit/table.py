"""CSV tables: one column schema per artifact, one reader and one writer.

A schema maps each column name, in header order, to its :class:`Kind`.
Floats are written as ``repr`` of the Python float, so identical runs give
byte-identical files and values round-trip exactly; ``None`` is an empty
cell, booleans are ``0``/``1``.  A file that does not fit its schema raises
:class:`ArtifactInvalid` naming ``path:line``, the column and the value.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from itertools import zip_longest
from pathlib import Path
from typing import Any, Callable, Hashable, Iterable, Iterator, Mapping, Sequence


class ArtifactInvalid(ValueError):
    """An artifact that does not parse, lacks a field or holds a wrong one."""


@dataclass(frozen=True, slots=True)
class Kind:
    """A column's cell parser, its cell formatter (text, or an int for integer
    columns) and what a valid cell is, for the error a bad one raises."""

    parse: Callable[[str], Any]
    format: Callable[[Any], str | int]
    expects: str


def _cell(x) -> str:
    """``None`` as an empty cell, floats (numpy's too) as ``repr`` of the Python float."""
    if x is None:
        return ""
    if isinstance(x, float):
        return repr(float(x))
    return str(x)


TEXT = Kind(str, str, "text")
INTEGER = Kind(int, int, "an integer")
NUMBER = Kind(float, lambda x: repr(float(x)), "a number")
FLAG = Kind({"0": False, "1": True}.__getitem__, int, "0 or 1")


def optional_number(empty: float | None = None) -> Kind:
    """A float whose empty cell reads as ``empty``; ``None`` is written empty."""
    return Kind(
        lambda cell: float(cell) if cell else empty, lambda x: "" if x is None else repr(float(x)), "a number or empty"
    )


def choice(members: Mapping[str, Hashable]) -> Kind:
    """Enum members, read through the cell→member dict ``members`` and written through its inverse."""
    spelling = {member: cell for cell, member in members.items()}
    return Kind(dict(members).__getitem__, spelling.__getitem__, "one of " + ", ".join(members))


def parse_row(schema: Mapping[str, Kind], cells: Sequence[str], where: str) -> list:
    """The values of one row, a cell per column; ``where`` is the row's ``path:line``."""
    values = []
    for (name, kind), cell in zip(schema.items(), cells):
        try:
            values.append(kind.parse(cell))
        except (KeyError, TypeError, ValueError):
            raise ArtifactInvalid(f"{where}: column {name!r} is {cell!r}, not {kind.expects}") from None
    return values


def read_table(path: str | Path, schema: Mapping[str, Kind]) -> Iterator[list]:
    """The parsed rows of a CSV table whose header is the schema's names; blank lines are skipped."""
    path = Path(path)
    names = list(schema)
    parsers = [kind.parse for kind in schema.values()]
    width = len(names)
    with path.open(newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader, [])
            if header != names:
                i = next(i for i, pair in enumerate(zip_longest(header, names)) if pair[0] != pair[1])
                found, expected = (header + [None])[i], (names + [None])[i]
                raise ArtifactInvalid(f"{path}:1: header column {i + 1} is {found!r}, expected {expected!r}")
            for cells in reader:
                if len(cells) != width:
                    if not cells:
                        continue
                    where = f"{path}:{reader.line_num}"
                    if len(cells) < width:
                        raise ArtifactInvalid(f"{where}: column {names[len(cells)]!r} is missing")
                    raise ArtifactInvalid(f"{where}: cell {cells[width]!r} is past the last column {names[-1]!r}")
                try:
                    values = [parse(cell) for parse, cell in zip(parsers, cells)]
                except (KeyError, ValueError):
                    values = parse_row(schema, cells, f"{path}:{reader.line_num}")
                yield values
        except (csv.Error, UnicodeDecodeError) as exc:
            raise ArtifactInvalid(f"{path}:{reader.line_num}: not a CSV table ({exc})") from None


def write_table(path: str | Path, columns: Mapping[str, Kind] | Sequence[str], rows: Iterable[Sequence]) -> None:
    """The CSV writer behind every table; a header of names alone formats its cells with ``_cell``."""
    formats = [kind.format for kind in columns.values()] if isinstance(columns, Mapping) else [_cell] * len(columns)
    with Path(path).open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(columns)
        writer.writerows([f(x) for f, x in zip(formats, row)] for row in rows)
