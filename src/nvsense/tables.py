"""Header-plus-rows CSV tables: the one format every CLI step reads and writes.

A table is a header line of comma-separated column names followed by one
line per row. Numbers are written with ``str`` of the Python value, which
for a float is its shortest round-tripping ``repr``, so a table read back
gives bit-identical arrays. Text fields must not contain commas.
"""

import math

import numpy as np

_BLOCK_ROWS = 1 << 14


def write_table(header: str, *columns) -> str:
    """The table text for ``header`` (comma-separated names) and its columns.

    Each column is anything ``np.asarray`` takes, or a ``range``; integer
    columns are written as integers, float columns as their ``repr``.
    """
    columns = [c if isinstance(c, range) else np.asarray(c) for c in columns]
    if len({len(c) for c in columns}) != 1:
        raise ValueError("table columns must be equally long")
    row = ",".join(["%s"] * len(columns)) + "\n"
    parts = [header + "\n"]
    # Python objects for one block of rows at a time: a million-row table
    # as Python ints and row strings would take several times its text
    for lo in range(0, len(columns[0]), _BLOCK_ROWS):
        values = [np.asarray(c[lo : lo + _BLOCK_ROWS]).tolist() for c in columns]
        parts.append("".join(map(row.__mod__, zip(*values))))
    return "".join(parts)


def read_table(text: str, header: str, text_columns=()) -> tuple:
    """One array per column of a table whose first non-blank line is ``header``.

    Columns named in ``text_columns`` are kept as stripped strings; every
    other field must parse as a finite float. Blank lines are skipped. A
    wrong header, a table without data rows, a row of the wrong width and a
    non-numeric or non-finite number each raise ``ValueError`` naming the
    line (counted from 1).
    """
    names = header.split(",")
    numeric = [k for k, name in enumerate(names) if name not in text_columns]
    lines = [(i, ln) for i, ln in enumerate(text.splitlines(), 1) if ln.strip()]
    if not lines or lines[0][1].strip() != header:
        where = f"line {lines[0][0]}" if lines else "empty table"
        raise ValueError(f"{where}: expected the header {header!r}")
    rows = []
    for i, line in lines[1:]:
        fields = [f.strip() for f in line.split(",")]
        if len(fields) != len(names):
            raise ValueError(
                f"line {i}: {len(fields)} fields, the header has {len(names)}"
            )
        for k in numeric:
            try:
                value = float(fields[k])
            except ValueError:
                value = math.nan
            if not math.isfinite(value):
                raise ValueError(
                    f"line {i}: {names[k]} is not a finite number: {fields[k]!r}"
                )
            fields[k] = value
        rows.append(fields)
    if not rows:
        raise ValueError(f"line {lines[0][0]}: the header has no data rows")
    return tuple(
        np.array(col, dtype=float if k in numeric else str)
        for k, col in enumerate(zip(*rows))
    )
