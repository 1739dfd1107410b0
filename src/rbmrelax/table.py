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
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

from .errors import ConfigError


def _table_format(columns, fields, n_rows: int) -> str:
    """The %-format of a header naming columns and n_rows rows of fields."""
    header = "\t".join(columns).replace("%", "%%")
    return header + "\n" + ("\t".join(fields) + "\n") * n_rows


def table_format(columns, n_rows: int) -> str:
    """The %-format of a whole table of n_rows rows and no comments, taking
    the values in row order: one format call gives write_table's text."""
    return _table_format(columns, ["%.17g"] * len(columns), n_rows)


def write_table(path, columns: dict, comments=()) -> None:
    """Write the header, one line per row, then each comment as ``# text``.

    columns maps each column name, in order, to its values: a 1-d sequence
    with one value per row, or a 0-d value that every row repeats.  A 0-d
    value is formatted once, into the row format; the rows are one format
    call over the 1-d columns' values, taken in row order.
    """
    values = [np.asarray(v, dtype=float) for v in columns.values()]
    varying = [v for v in values if v.ndim]
    fields = ["%.17g" if v.ndim else "%.17g" % float(v) for v in values]
    n_rows = len(varying[0]) if varying else 1
    flat = np.column_stack(varying).ravel().tolist() if varying else []
    text = _table_format(columns, fields, n_rows) % tuple(flat)
    Path(path).write_text(text + "".join(f"# {c}\n" for c in comments))


def read_table(path, columns, what: str):
    """Rows (a tuple of float tuples) and metadata (a str -> str dict) of a
    table whose header must name columns; what names the file in errors,
    which carry path and line number."""
    path = Path(path)
    try:
        lines = path.read_text().splitlines()
    except OSError as exc:
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
