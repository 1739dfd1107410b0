import struct
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rbmrelax import table as table_module
from rbmrelax.cli import SWEEP_AXES, SWEEP_COLUMNS, main
from rbmrelax.errors import ConfigError
from rbmrelax.scenario import density_sensitivity_curve, parse_config, predict
from rbmrelax.sensitivity import CURVE_COLUMNS
from rbmrelax.table import read_table, write_table

CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def test_write_table_literal_text(tmp_path):
    path = tmp_path / "t.tsv"
    write_table(path, {"a": [0.1, -0.0], "b": [1e300, 2.0]},
                comments=["note", "key = 5e-324"])
    assert path.read_text() == (
        "a\tb\n"
        "0.10000000000000001\t1.0000000000000001e+300\n"
        "-0\t2\n"
        "# note\n"
        "# key = 5e-324\n")


def test_read_table_separators_comments_and_metadata(tmp_path):
    path = tmp_path / "t.txt"
    path.write_text("# source = handbook\n"
                    "#   spaced key   =  a = b  \n"
                    "# no metadata here\n"
                    "\n"
                    "a, b  # header comment\n"
                    "1\t2\n"
                    "3, 4 # row comment\n"
                    "  5   6  \n")
    rows, meta = read_table(path, ("a", "b"), "test table")
    assert rows == ((1.0, 2.0), (3.0, 4.0), (5.0, 6.0))
    assert meta == {"source": "handbook", "spaced key": "a = b"}


@pytest.mark.parametrize("body, message", [
    ("x y\n1 2\n", r"t\.txt:1: expected header 'a b', got 'x y'"),
    ("a b c\n1 2 3\n", r"t\.txt:1: expected header 'a b'"),
    ("a b\n1 2\n3\n", r"t\.txt:3: expected 2 columns, got 1"),
    ("a b\n1 two\n", r"t\.txt:2: non-numeric row: '1 two'"),
    ("a b\n1 2\n0.50  nan\n", r"t\.txt:3: non-finite value in row: '0.50  nan'"),
    ("a b\n-inf 2\n", r"t\.txt:2: non-finite"),
    ("a b\n# only a comment\n", r"t\.txt: no data rows"),
    ("", r"t\.txt: no data rows"),
])
def test_read_table_errors_name_file_and_line(tmp_path, body, message):
    path = tmp_path / "t.txt"
    path.write_text(body)
    with pytest.raises(ConfigError, match=message):
        read_table(path, ("a", "b"), "test table")


def test_read_table_missing_file(tmp_path):
    with pytest.raises(ConfigError, match="cannot read test table"):
        read_table(tmp_path / "absent.txt", ("a", "b"), "test table")


def _bits(value):
    return struct.pack("<d", value)


_VALUE = r"[A-Za-z0-9.,+\-]([A-Za-z0-9 .,+\-=]*[A-Za-z0-9.,+\-])?"


@st.composite
def tables(draw):
    ncols = draw(st.integers(1, 4))
    finite = st.floats(allow_nan=False, allow_infinity=False)
    rows = draw(st.lists(st.tuples(*[finite] * ncols), min_size=1, max_size=8))
    meta = draw(st.dictionaries(st.from_regex(r"[a-z_][a-z0-9_]*", fullmatch=True),
                                st.from_regex(_VALUE, fullmatch=True), max_size=4))
    return tuple(f"c{i}" for i in range(ncols)), rows, meta


@settings(max_examples=100, deadline=None)
@given(tables())
def test_round_trip_is_bit_exact(tmp_path_factory, table):
    columns, rows, meta = table
    path = tmp_path_factory.mktemp("rt") / "t.tsv"
    write_table(path, dict(zip(columns, np.array(rows).T)),
                [f"{k} = {v}" for k, v in meta.items()])
    got, got_meta = read_table(path, columns, "table")
    assert [[_bits(v) for v in row] for row in got] == \
        [[_bits(v) for v in row] for row in rows]
    assert got_meta == meta


# The per-row writer that write_table replaced, kept as the reference:
# every column broadcast to the rows, then one "%.17g" format per row.
def row_reference(path, columns: dict, comments=()) -> None:
    names = tuple(columns)
    cells = np.broadcast_arrays(*(np.asarray(v, dtype=float) for v in columns.values()))
    rows = zip(*(c.tolist() for c in cells))
    fmt = "\t".join(["%.17g"] * len(names))
    lines = ["\t".join(names)]
    lines += [fmt % tuple(row) for row in rows]
    lines += [f"# {text}" for text in comments]
    Path(path).write_text("\n".join(lines) + "\n")


@pytest.mark.parametrize("columns", [
    {"a": np.array(-0.0), "b": [1.0, 2.5, -3.0], "c": np.array(1e300)},
    {"a": np.array(1e300), "b": np.array(-0.0), "c": [0.1, 5e-324]},
    {"x": [0.1], "y": np.array(-0.0), "z": [1e300]},
], ids=["constant-ends", "constant-first", "one-row"])
def test_writer_matches_row_reference(tmp_path, columns):
    write_table(tmp_path / "new.tsv", columns, ["note", "key = 1"])
    row_reference(tmp_path / "ref.tsv", columns, ["note", "key = 1"])
    assert (tmp_path / "new.tsv").read_bytes() == (tmp_path / "ref.tsv").read_bytes()


@pytest.mark.parametrize("blocks, extra", [(0, 1), (1, -1), (1, 0), (1, 1), (2, 1)],
                         ids=["1", "block-1", "block", "block+1", "2block+1"])
def test_writer_matches_row_reference_across_blocks(tmp_path, blocks, extra):
    # 0-d columns come first and last
    n = blocks * table_module._BLOCK + extra
    rng = np.random.default_rng(n)
    columns = {"first": np.array(-0.0), "a": rng.standard_normal(n),
               "b": rng.random(n) * 1e300, "last": np.array(5e-324)}
    write_table(tmp_path / "new.tsv", columns, ["note", "key = 1"])
    row_reference(tmp_path / "ref.tsv", columns, ["note", "key = 1"])
    assert (tmp_path / "new.tsv").read_bytes() == (tmp_path / "ref.tsv").read_bytes()


def _traced_write_peak(path, n):
    rng = np.random.default_rng(n)
    columns = {f"c{i}": rng.random(n) for i in range(9)}
    columns.update(k0=np.array(1.5), k1=np.array(-0.0))
    tracemalloc.start()
    try:
        write_table(path, columns)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_write_table_working_set_does_not_grow_with_rows(tmp_path):
    # the body goes out block by block, so ten times the rows peaks within
    # one block's text (at most the 5,001 rows) of the smaller table; the
    # whole-body writer read 3.2 and 31.6 MiB, the block writer 0.66 twice
    small = _traced_write_peak(tmp_path / "small.tsv", 5_001)
    large = _traced_write_peak(tmp_path / "large.tsv", 50_001)
    line = len((tmp_path / "small.tsv").read_text().splitlines()[1]) + 1
    assert large <= small + min(table_module._BLOCK, 5_001) * line


def test_write_table_rejects_ragged_columns_before_writing(tmp_path):
    path = tmp_path / "t.tsv"
    with pytest.raises(ValueError, match="columns must be 0-d or hold 3 values"):
        write_table(path, {"a": [1.0, 2.0, 3.0], "b": np.array(1.0), "c": [1.0, 2.0]})
    assert not path.exists()


@pytest.mark.parametrize("axis, grid", [
    ("water_fraction", np.linspace(0.0, 1.0, 41)),
    ("gd_density", np.concatenate(([0.0], np.geomspace(1e23, 1e28, 40)))),
    ("diameter", np.geomspace(10e-9, 40e-9, 41)),
])
def test_sweep_matches_row_reference(tmp_path, capsys, axis, grid):
    # the bare particle has no molecular bath: several columns hold exact
    # zeros, as constants or on every row
    cfg = CONFIGS / "bare_nd_25nm.ini"
    out = tmp_path / "sweep.tsv"
    spec = ",".join(repr(v) for v in grid.tolist())
    assert main(["sweep", "--config", str(cfg), "--axis", axis, "--grid", spec,
                 "--out", str(out)]) == 0
    capsys.readouterr()
    column, override = SWEEP_AXES[axis]
    doc = predict(parse_config(cfg), **{override: grid})
    names = (column,) + SWEEP_COLUMNS
    assert any(np.ndim(doc[n]) == 0 for n in names)
    assert any(np.any(np.asarray(doc[n]) == 0.0) for n in names)
    row_reference(tmp_path / "ref.tsv", {n: doc[n] for n in names})
    assert out.read_bytes() == (tmp_path / "ref.tsv").read_bytes()


def test_sensitivity_curve_matches_row_reference(tmp_path, capsys):
    # without the vibrational term one grid density sits on the level
    # splitting, so the file ends in a skipped_densities comment
    cfg = tmp_path / "novib.ini"
    cfg.write_text("[molecular_bath]\nvibration_rate_ghz = 0\n")
    grid = (1e24, 1e25, 3.5967435940905747e+25, 1e26, 1e27)
    out = tmp_path / "sens.tsv"
    assert main(["sensitivity", "--config", str(cfg), "--grid",
                 ",".join(map(repr, grid)), "--out", str(out)]) == 0
    capsys.readouterr()
    curve = density_sensitivity_curve(parse_config(cfg), grid=grid)
    assert curve.skipped
    comments = ["argmin",
                f"density_per_m3 = {curve.argmin_density:.17g}",
                f"r_total_per_s = {curve.rate_at_min:.17g}",
                f"delta_r_min_per_s = {curve.delta_min:.17g}",
                f"boundary_warning = {str(curve.boundary_warning).lower()}",
                "skipped_densities = " + ",".join(f"{n:.17g}" for n in curve.skipped)]
    row_reference(tmp_path / "ref.tsv", dict(zip(CURVE_COLUMNS, curve.points.T)), comments)
    assert out.read_bytes() == (tmp_path / "ref.tsv").read_bytes()
