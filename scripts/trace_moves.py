"""Print how far one energy trace moved from another, column by column.

    python3 scripts/trace_moves.py OLD.csv NEW.csv

Both files are ``energies.csv`` traces of runs over the same steps.  For
every column after ``step`` the script prints the largest ``|new - old|``
over the steps, divided by the column's peak magnitude in OLD: the measure
``perfbench/child.py`` bounds when it compares a run with its reference
trace.  A column whose OLD values are all 0 prints the largest difference
itself.  Traces with different columns or steps, and a trace without data
rows or with a row whose length is not its header's or a value that is not
a number, are a usage error (exit status 2).
"""

from __future__ import annotations

import argparse
import csv


def read_trace(path):
    """``(columns, rows)`` of a trace, each row a list of floats.

    Raises
    ------
    ValueError
        If the trace has no data row, a row whose length is not the
        header's, or a value that is not a number.
    """
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        columns = next(reader, [])
        rows = [[float(x) for x in row] for row in reader]
    if not rows:
        raise ValueError(f"{path} has no data rows")
    for line, row in enumerate(rows, start=2):
        if len(row) != len(columns):
            raise ValueError(f"{path}, line {line}: {len(row)} values for "
                             f"{len(columns)} columns")
    return columns, rows


def moves(old, new):
    """``[(column, move)]`` for every column of ``old`` after ``step``:
    the largest ``|new - old|`` over its peak magnitude in ``old``, or over
    1 where that peak is 0."""
    (columns, old_rows), (_, new_rows) = old, new
    out = []
    for c, name in enumerate(columns[1:], start=1):
        worst = max(abs(b[c] - a[c]) for a, b in zip(old_rows, new_rows))
        peak = max(abs(a[c]) for a in old_rows)
        out.append((name, worst / peak if peak > 0.0 else worst))
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("old", metavar="OLD.csv")
    parser.add_argument("new", metavar="NEW.csv")
    args = parser.parse_args(argv)
    try:
        old, new = read_trace(args.old), read_trace(args.new)
    except ValueError as exc:
        parser.error(str(exc))
    if old[0] != new[0]:
        parser.error(f"the traces have different columns: {old[0]} and "
                     f"{new[0]}")
    if [r[0] for r in old[1]] != [r[0] for r in new[1]]:
        parser.error("the traces cover different steps")
    for name, move in moves(old, new):
        print(f"{name:>10}  {move:.3e}")


if __name__ == "__main__":
    main()
