"""The layout of every CSV table and JSON report the package writes.

A table is a header line, then integers as integers, floats as
format(x, ".17g") (round-trips every float64), strings as they are, and an
empty cell where there is no value.

Formatting a float costs about a microsecond of interpreter time, so a large
table is split into one contiguous share of rows per available CPU: the
writing process formats the first share itself while forked children format
the others into unlinked temporary files, which it then appends in order.
The file is the same, byte for byte, for any number of shares.

Every file is written under a hidden temporary name in its directory and
renamed over its final name only once complete, so a failed write leaves
neither a partial file nor the temporary one."""

import json
import math
import os
import tempfile
from contextlib import contextmanager

import numpy as np

# Rows formatted per write: only one chunk's strings are held at a time.
CHUNK_ROWS = 1024
# At most one share per MIN_SHARE_ROWS rows begun: a share costs a fork, a
# temporary file and a copy (about 12 ms from a 150 MB process on a 2-CPU
# x86-64 host), small beside the 0.1 s that 64 Ki rows take to format.
MIN_SHARE_ROWS = 64 * 1024

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

    A table of more than ``MIN_SHARE_ROWS`` rows is formatted in parallel,
    one share per available CPU (see the module docstring).  A child that
    fails raises ChildProcessError here, naming its rows and exit code.
    """
    with _replacing(path) as fh:
        fh.write(header + "\n")
        for shape, columns in tables:
            n_rows = math.prod(shape)
            shares = _share_count(n_rows)
            if shares == 1:
                _write_rows(fh, shape, columns, 0, n_rows)
            else:
                bounds = [n_rows * i // shares for i in range(shares + 1)]
                _write_shares(fh, path, shape, columns, bounds)


@contextmanager
def _replacing(path):
    """Yield a new text file that replaces ``path`` when the block completes.

    The file is created under an unused hidden name next to ``path``, with
    the permissions ``open(path, "w")`` would give.  If the block raises, the
    file is removed and ``path`` is left as it was.
    """
    directory, name = os.path.split(os.path.abspath(path))
    while True:
        temp = os.path.join(directory, f".{name}.{os.urandom(4).hex()}.part")
        try:
            fh = open(temp, "x", newline="")
            break
        except FileExistsError:
            continue
    try:
        with fh:
            yield fh
        os.replace(temp, path)
    except BaseException:
        os.unlink(temp)
        raise


def _share_count(n_rows: int) -> int:
    """Shares of a table of ``n_rows`` rows: one per available CPU, but no
    more than one per MIN_SHARE_ROWS rows begun; one where the platform
    cannot fork or report the CPUs this process may run on."""
    if not (hasattr(os, "sched_getaffinity") and hasattr(os, "fork")):
        return 1
    return max(1, min(len(os.sched_getaffinity(0)), math.ceil(n_rows / MIN_SHARE_ROWS)))


def _write_rows(fh, shape, columns, lo: int, hi: int) -> None:
    """Write rows ``lo`` to ``hi - 1`` of a table, CHUNK_ROWS rows per write."""
    for start in range(lo, hi, CHUNK_ROWS):
        index = np.unravel_index(np.arange(start, min(start + CHUNK_ROWS, hi)), shape)
        fields, cells = zip(*(_cells(column, index) for column in columns))
        template = ",".join(fields) + "\n"
        fh.writelines([template % row for row in zip(*cells)])


def _write_shares(fh, path, shape, columns, bounds) -> None:
    """Write the rows between consecutive ``bounds``: the first share here,
    each other share by a forked child into an unlinked temporary file next
    to ``path``, appended after this process's share in order."""
    import multiprocessing  # only a table large enough to share pays the import

    fork = multiprocessing.get_context("fork")
    directory = os.path.dirname(os.path.abspath(path))
    fh.flush()  # a child must not inherit buffered text and write it again
    children = []
    try:
        for lo, hi in zip(bounds[1:-1], bounds[2:]):
            part = tempfile.TemporaryFile(dir=directory)
            child = fork.Process(target=_write_part, args=(part.fileno(), shape, columns, lo, hi))
            children.append((lo, hi, part, child))
            child.start()
        _write_rows(fh, shape, columns, bounds[0], bounds[1])
        fh.flush()
        for lo, hi, part, child in children:
            child.join()
            if child.exitcode != 0:
                raise ChildProcessError(
                    f"{path}: the child formatting rows {lo} to {hi - 1} exited with code {child.exitcode}"
                )
            size, offset = os.fstat(part.fileno()).st_size, 0
            while offset < size:  # copied in the kernel, not through this heap
                offset += os.sendfile(fh.fileno(), part.fileno(), offset, size - offset)
    finally:
        for _, _, part, child in children:
            if child.is_alive():
                child.kill()
                child.join()
            part.close()


def _write_part(fd: int, shape, columns, lo: int, hi: int) -> None:
    """A child's work: rows ``lo`` to ``hi - 1`` into the open file ``fd``."""
    with open(fd, "w", newline="", closefd=False) as out:
        _write_rows(out, shape, columns, lo, hi)


def write_json(path, payload: dict) -> None:
    """Write ``payload`` as JSON: two-space indent, sorted keys, a final newline."""
    with _replacing(path) as fh:
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
