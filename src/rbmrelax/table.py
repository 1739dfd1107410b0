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
"""

from __future__ import annotations

import math
from pathlib import Path

from .errors import ConfigError


def _row_format(n_columns: int) -> str:
    return "\t".join(["%.17g"] * n_columns)


def write_table(path, columns, rows, comments=()) -> None:
    """Write the header, one line per row, then each comment as ``# text``."""
    fmt = _row_format(len(columns))
    lines = ["\t".join(columns)]
    lines += [fmt % tuple(row) for row in rows]
    lines += [f"# {text}" for text in comments]
    Path(path).write_text("\n".join(lines) + "\n")


def table_format(columns, n_rows: int) -> str:
    """The %-format of a whole table of n_rows rows and no comments, taking
    the values in row order: one format call gives write_table's text."""
    header = "\t".join(columns).replace("%", "%%")
    return header + "\n" + (_row_format(len(columns)) + "\n") * n_rows


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
