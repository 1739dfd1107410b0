import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rbmrelax.errors import ConfigError
from rbmrelax.table import read_table, write_table


def test_write_table_literal_text(tmp_path):
    path = tmp_path / "t.tsv"
    write_table(path, ("a", "b"), [(0.1, 1e300), (-0.0, 2.0)],
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
    write_table(path, columns, rows, [f"{k} = {v}" for k, v in meta.items()])
    got, got_meta = read_table(path, columns, "table")
    assert [[_bits(v) for v in row] for row in got] == \
        [[_bits(v) for v in row] for row in rows]
    assert got_meta == meta
