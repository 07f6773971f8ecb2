"""The layout of every CSV table and JSON report the package writes.

A table is a header line, then integers as integers, floats as
format(x, ".17g") (round-trips every float64), strings as they are, and an
empty cell where there is no value."""

import json
import math

import numpy as np

# Rows formatted per write: only one chunk's strings are held at a time.
CHUNK_ROWS = 1024

# printf fields by dtype kind; "%.17g" % x is format(x, ".17g").
_FIELD = {"i": "%d", "f": "%.17g", "U": "%s"}


def write_csv(path, header: str, tables) -> None:
    """Write ``header``, then the rows of each (shape, columns) table in turn.

    A table has one row per index of ``shape``, in C order.  Each column is
    an int, naming the grid axis whose index the row writes; a str, the cell
    of every row; or an array read at the row's grid index.  An array that
    ends before the grid along the last axis leaves an empty cell past its
    end (q and Z have no value at the terminal step).  ``tables`` is read
    one table at a time, so a generator holds one table's arrays at once.
    """
    with open(path, "w", newline="") as fh:
        fh.write(header + "\n")
        for shape, columns in tables:
            n_rows = math.prod(shape)
            for start in range(0, n_rows, CHUNK_ROWS):
                index = np.unravel_index(np.arange(start, min(start + CHUNK_ROWS, n_rows)), shape)
                fields, cells = zip(*(_cells(column, index) for column in columns))
                template = ",".join(fields) + "\n"
                fh.writelines([template % row for row in zip(*cells)])


def write_json(path, payload: dict) -> None:
    """Write ``payload`` as JSON: two-space indent, sorted keys, a final newline."""
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _cells(column, index):
    """(printf field, cell values) of one column over one chunk of rows."""
    if isinstance(column, int):
        return "%d", index[column].tolist()
    if isinstance(column, str):
        return "%s", [column] * index[0].size
    field = _FIELD[column.dtype.kind]
    present = index[-1] < column.shape[-1]
    if present.all():
        return field, column[index].tolist()
    values = iter(column[tuple(axis[present] for axis in index)].tolist())
    return "%s", [field % next(values) if here else "" for here in present.tolist()]
