"""The one delimited-text table format of every data file the package
reads or writes: relaxation curves, sweeps, sensitivity curves and
viscosity tables.

* The first data line is a header naming the columns; the reader checks it
  against the columns it expects.
* Fields are separated by tabs, spaces or commas.
* ``#`` starts a comment; a whole-line ``# key = value`` comment is
  metadata.
* Rows are written as ``%.17g`` numbers joined by tabs, which round-trips
  every finite float bit for bit; the reader rejects non-finite values.
  A column that holds one value for every row is formatted once.
* write_table writes the body in blocks of _BLOCK rows, one %-format call
  each: eleven columns peak at 0.66 MiB traced at 5,001 and 50,001 rows.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

from .errors import ConfigError


# rows per formatted block of write_table; it changes no byte
_BLOCK = 1024


def table_format(columns, n_rows: int) -> str:
    """The %-format of a whole table of n_rows rows and no comments, taking
    the values in row order: one format call gives write_table's text."""
    header = "\t".join(columns).replace("%", "%%")
    return header + "\n" + ("\t".join(["%.17g"] * len(columns)) + "\n") * n_rows


def write_table(path, columns: dict, comments=()) -> None:
    """Write the header, one line per row, then each comment as ``# text``.

    columns maps each column name, in order, to its values: a 1-d sequence
    with one value per row, or a 0-d value that every row repeats, which is
    formatted once, into the row format.  Each block of rows is one format
    call over the 1-d columns' values in row order.  Columns of unequal
    length raise ValueError before the file is opened.
    """
    values = [np.asarray(v, dtype=float) for v in columns.values()]
    varying = [v for v in values if v.ndim]
    n_rows = len(varying[0]) if varying else 1
    if any(v.shape != (n_rows,) for v in varying):
        raise ValueError(f"columns must be 0-d or hold {n_rows} values")
    row = "\t".join("%.17g" if v.ndim else "%.17g" % float(v) for v in values) + "\n"
    with open(path, "w") as fh:
        fh.write("\t".join(columns) + "\n")
        for a in range(0, n_rows, _BLOCK):
            block = [v[a:a + _BLOCK] for v in varying]
            flat = np.column_stack(block).ravel().tolist() if varying else []
            fh.write(row * min(_BLOCK, n_rows - a) % tuple(flat))
        fh.writelines(f"# {c}\n" for c in comments)


def read_table(path, columns, what: str):
    """Rows (a tuple of float tuples) and metadata (a str -> str dict) of a
    table whose header must name columns; what names the file in errors,
    which carry path and line number."""
    path = Path(path)
    try:
        lines = path.read_text().splitlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read {what} {path}: {exc}") from exc
    columns = tuple(columns)
    rows, meta, seen_header = [], {}, False
    for lineno, line in enumerate(lines, start=1):
        text = line.strip()
        if text.startswith("#"):
            key, eq, value = text[1:].partition("=")
            if eq:
                meta[key.strip()] = value.strip()
            continue
        text = text.split("#", 1)[0].strip()
        if not text:
            continue
        fields = tuple(text.replace(",", " ").split())
        if not seen_header:
            if fields != columns:
                raise ConfigError(f"{path}:{lineno}: expected header "
                                  f"{' '.join(columns)!r}, got {text!r}")
            seen_header = True
            continue
        if len(fields) != len(columns):
            raise ConfigError(f"{path}:{lineno}: expected {len(columns)} "
                              f"columns, got {len(fields)}")
        try:
            row = tuple(float(v) for v in fields)
        except ValueError:
            raise ConfigError(f"{path}:{lineno}: non-numeric row: {text!r}") from None
        if not all(map(math.isfinite, row)):
            raise ConfigError(f"{path}:{lineno}: non-finite value in row: {text!r}")
        rows.append(row)
    if not rows:
        raise ConfigError(f"{path}: no data rows")
    return tuple(rows), meta
