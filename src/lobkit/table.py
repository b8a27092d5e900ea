"""CSV tables: one column schema per artifact, one reader and one writer;
and the top-level object and number rule of the JSON artifacts.

A schema maps each column name, in header order, to its :class:`Kind`.
Floats are written as ``repr`` of the Python float, as ``csv.writer``
writes a float, so identical runs give byte-identical files and values
round-trip exactly; ``None`` is an empty cell, booleans are ``0``/``1``.  A
number cell must be finite, and inside its column's domain where the column
has one.  A file that does not fit its schema raises
:class:`ArtifactInvalid` naming ``path:line``, the column and the value.
"""

from __future__ import annotations

import csv
import json
import math
import sys
from dataclasses import dataclass
from itertools import zip_longest
from numbers import Real
from operator import attrgetter
from pathlib import Path
from typing import Any, Callable, Hashable, Iterable, Iterator, Mapping, Sequence


class ArtifactInvalid(ValueError):
    """An artifact that does not parse, lacks a field or holds a wrong one."""


def json_object(path: Path, what: str) -> dict:
    """The top-level object of the JSON file ``path``, a ``what`` (for the error)."""
    try:
        blob = json.loads(path.read_text())
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ArtifactInvalid(f"{path}: not a JSON {what} ({exc})") from exc
    if not isinstance(blob, dict):
        raise ArtifactInvalid(f"{path}: not a JSON {what} (top level is not an object)")
    return blob


def finite_number(x) -> bool:
    """Whether ``x`` is a real number, not a bool, inside the float range (no nan, no infinity, no int too large)."""
    return isinstance(x, Real) and not isinstance(x, bool) and abs(x) <= sys.float_info.max


@dataclass(frozen=True, slots=True)
class Kind:
    """A column's cell parser, its cell formatter (text, or the int or float
    ``csv.writer`` writes) and what a valid cell is, for the error a bad one raises."""

    parse: Callable[[str], Any]
    format: Callable[[Any], str | int | float]
    expects: str


def _cell(x) -> str:
    """``None`` as an empty cell, floats (numpy's too) as ``repr`` of the Python float."""
    if x is None:
        return ""
    if isinstance(x, float):
        return repr(float(x))
    return str(x)


def _finite(cell: str, _float=float, _isfinite=math.isfinite) -> float:
    """The float a cell spells; ``nan``, ``inf`` and an overflow such as ``1e999`` raise ``ValueError``."""
    x = _float(cell)
    if _isfinite(x):
        return x
    raise ValueError(cell)


# in place of ``_finite``: one chained comparison (which nan fails) tests the range, with no call beside float()
def _positive(cell: str, _float=float, _max=sys.float_info.max) -> float:
    x = _float(cell)
    if 0.0 < x <= _max:
        return x
    raise ValueError(cell)


def _non_negative(cell: str, _float=float, _max=sys.float_info.max) -> float:
    x = _float(cell)
    if 0.0 <= x <= _max:
        return x
    raise ValueError(cell)


def _zero_or_one(cell: str, _float=float) -> float:
    x = _float(cell)
    if x == 0.0 or x == 1.0:
        return x
    raise ValueError(cell)


TEXT = Kind(str, str, "text")
INTEGER = Kind(int, int, "an integer")
NUMBER = Kind(_finite, float, "a finite number")  # an int is written 3.0, numpy's float as a Python float
POSITIVE = Kind(_positive, float, "a positive finite number")
NON_NEGATIVE = Kind(_non_negative, float, "a non-negative finite number")
ZERO_OR_ONE = Kind(_zero_or_one, float, "0 or 1")
FLAG = Kind({"0": False, "1": True}.__getitem__, int, "0 or 1")


def optional_number(empty: float | None = None, kind: Kind = NUMBER) -> Kind:
    """A float of the number ``kind`` whose empty cell reads as ``empty``; ``None`` is written empty."""
    parse = kind.parse
    return Kind(
        lambda cell: parse(cell) if cell else empty, lambda x: "" if x is None else float(x), f"{kind.expects} or empty"
    )


def choice(members: Mapping[str, Hashable]) -> Kind:
    """Enum members, read through the cell→member dict ``members`` and written through its inverse,
    or as the member's ``_value_`` where every member's value is its cell: a plain ``Enum``
    member hashes through Python-level ``Enum.__hash__``, which the attribute read skips."""
    if all(getattr(member, "_value_", None) == cell for cell, member in members.items()):
        spell = attrgetter("_value_")
    else:
        spell = {member: cell for cell, member in members.items()}.__getitem__
    return Kind(dict(members).__getitem__, spell, "one of " + ", ".join(members))


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
