"""Header-plus-rows CSV tables, the one format every CLI step reads and writes,
and ``Scan``, the codec of the coherence scans stored in them.

A table is a header line of comma-separated column names followed by one
line per row. Numbers are written with ``str`` of the Python value, which
for a float is its shortest round-tripping ``repr``, so a table read back
gives bit-identical arrays. Text fields must not contain commas.

Rows are written in blocks of ``_BLOCK_ROWS``, which ``table_blocks`` yields
one at a time. A block whose columns are all integers is formatted in bulk
with numpy, digit by digit, into the same bytes; any other block is
formatted row by row from Python values. A coherence scan (a depth scan,
a decoupling decay) is a three-column table plus a JSON sidecar.
"""

import dataclasses
import json
import math

import numpy as np

from .errors import InputError, TableError, load_json

_BLOCK_ROWS = 1 << 14
_INT64 = range(-(2**63), 2**63)
# 10, 100, ..., 10**19: a magnitude's digit count less one is its rank here
_POW10 = 10 ** np.arange(1, 20, dtype=np.uint64)


def _integers(column):
    """``column`` as an integer array, or None if it is not one."""
    if isinstance(column, range):
        if column and (column[0] not in _INT64 or column[-1] not in _INT64):
            return None
        return np.arange(column.start, column.stop, column.step, dtype=np.int64)
    return column if column.dtype.kind in "iu" else None


def _digit_counts(magnitude):
    return 1 + np.searchsorted(_POW10, magnitude, side="right")


def _integer_rows(columns) -> str:
    """The rows of equally long integer arrays, as ``str`` writes each value.

    Each row is first laid out at a fixed width: every field right-aligned
    in the widest value of its column, its unused places NUL, and followed
    by its separator. Deleting the NULs leaves the text.
    """
    fields = []
    for col in columns:
        magnitude = col.astype(np.uint64 if col.dtype.kind == "u" else np.int64)
        negative = np.flatnonzero(magnitude < 0)
        magnitude = magnitude.view(np.uint64)
        magnitude[negative] = -magnitude[negative]  # exact at -2**63
        sign_at = _digit_counts(magnitude[negative])
        top = magnitude.max()
        width = max(int(_digit_counts(top)), int(sign_at.max(initial=0)) + 1)
        # the narrowest dtype holding every value divides fastest
        magnitude = magnitude.astype(np.min_scalar_type(top))
        fields.append((magnitude, negative, sign_at, width))
    grid = np.zeros((len(columns[0]), sum(f[-1] + 1 for f in fields)), np.uint8)
    end = 0
    for magnitude, negative, sign_at, width in fields:
        end += width
        for d in range(width):
            more = magnitude > 0 if d else True  # a 0 has one digit
            magnitude, digit = np.divmod(magnitude, 10)
            column = grid[:, end - 1 - d]
            np.add(digit, ord("0"), out=column, where=more, casting="unsafe")
        grid[negative, end - 1 - sign_at] = ord("-")
        grid[:, end] = ord(",")
        end += 1
    grid[:, -1] = ord("\n")
    return grid.tobytes().translate(None, b"\0").decode("ascii")


def table_blocks(header: str, *columns):
    """The table text for ``header`` (comma-separated names) and its columns,
    as an iterator of the header line and then one string per block of
    ``_BLOCK_ROWS`` rows, so a caller can write a table without ever holding
    all of it.

    Each column is anything ``np.asarray`` takes, or a ``range``; integer
    columns are written as integers, float columns as their ``repr``.
    Unequal columns raise ``ValueError`` here, when the function is called,
    not when the first block is taken.
    """
    columns = [c if isinstance(c, range) else np.asarray(c) for c in columns]
    if len({len(c) for c in columns}) != 1:
        raise ValueError("table columns must be equally long")
    return _blocks(header, columns)


def _blocks(header: str, columns):
    yield header + "\n"
    row = ",".join(["%s"] * len(columns)) + "\n"
    # Python objects for one block of rows at a time: a million-row table
    # as Python ints and row strings would take several times its text
    for lo in range(0, len(columns[0]), _BLOCK_ROWS):
        block = [c[lo : lo + _BLOCK_ROWS] for c in columns]
        integers = [_integers(c) for c in block]
        if all(c is not None for c in integers):
            yield _integer_rows(integers)
            continue
        values = [list(c) if isinstance(c, range) else c.tolist() for c in block]
        yield "".join(map(row.__mod__, zip(*values)))


def write_table(header: str, *columns) -> str:
    """The text of ``table_blocks(header, *columns)`` as one string."""
    return "".join(table_blocks(header, *columns))


def read_table(text: str, header: str, text_columns=()) -> tuple:
    """One array per column of a table whose first non-blank line is ``header``.

    Columns named in ``text_columns`` are kept as stripped strings; every
    other field must parse as a finite float. Blank lines are skipped. A
    wrong header, a table without data rows, a row of the wrong width and a
    non-numeric or non-finite number each raise ``errors.TableError``, a
    ``ValueError``, naming the line (counted from 1).
    """
    names = header.split(",")
    numeric = [k for k, name in enumerate(names) if name not in text_columns]
    lines = [(i, ln) for i, ln in enumerate(text.splitlines(), 1) if ln.strip()]
    if not lines or lines[0][1].strip() != header:
        where = f"line {lines[0][0]}" if lines else "empty table"
        raise TableError(f"{where}: expected the header {header!r}")
    rows = []
    for i, line in lines[1:]:
        fields = [f.strip() for f in line.split(",")]
        if len(fields) != len(names):
            raise TableError(
                f"line {i}: {len(fields)} fields, the header has {len(names)}"
            )
        for k in numeric:
            try:
                value = float(fields[k])
            except ValueError:
                value = math.nan
            if not math.isfinite(value):
                raise TableError(
                    f"line {i}: {names[k]} is not a finite number: {fields[k]!r}"
                )
            fields[k] = value
        rows.append(fields)
    if not rows:
        raise TableError(f"line {lines[0][0]}: the header has no data rows")
    return tuple(
        np.array(col, dtype=float if k in numeric else str)
        for k, col in enumerate(zip(*rows))
    )


class Scan:
    """A coherence scan: a strictly increasing grid, the coherence on it and
    its sigma, all finite, with the coherence within [-0.05, 1.05]. A subclass
    is a dataclass whose first three fields are those columns; it declares
    its ``HEADER``, its ``GRID``'s name in messages, the sidecar object
    ``_meta`` and ``_fields``, the keywords read back from a sidecar's value.
    A scan read without a sidecar takes its defaults. A sidecar value the
    scan refuses raises ``InputError``, a column value ``TableError``."""

    def _columns(self) -> dict:
        return {f.name: getattr(self, f.name) for f in dataclasses.fields(self)[:3]}

    def __post_init__(self):
        for name, values in self._columns().items():
            setattr(self, name, np.asarray(values, dtype=float))
        grid, coherence, sigma = self._columns().values()
        names = ", ".join(self._columns())
        if not (len(grid) == len(coherence) == len(sigma)):
            raise ValueError(f"{names} must have equal length")
        if not all(np.isfinite(a).all() for a in (grid, coherence, sigma)):
            raise ValueError(f"{names} must be finite")
        if np.any(grid[1:] <= grid[:-1]):  # np.diff could overflow
            raise ValueError(f"{self.GRID} must be strictly increasing")
        if np.any(coherence < -0.05) or np.any(coherence > 1.05):
            raise ValueError("coherence outside [-0.05, 1.05]")

    def to_csv(self) -> str:
        return write_table(self.HEADER, *self._columns().values())

    def sidecar(self) -> str:
        return json.dumps(self._meta(), sort_keys=True)

    @classmethod
    def from_csv(cls, text: str, sidecar: str | None = None):
        columns = read_table(text, cls.HEADER)
        try:  # a sidecar value the scan refuses: the CLI names the sidecar
            keywords = {} if sidecar is None else cls._fields(load_json(sidecar))
        except ValueError as exc:
            raise InputError(str(exc)) from exc
        try:
            return cls(*columns, **keywords)
        except ValueError as exc:  # only the table's columns are checked
            raise TableError(str(exc)) from exc
