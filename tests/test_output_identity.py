"""The output identity tool reports a data file that does not parse as a
difference instead of stopping at it.

tools/output_identity.py is not part of the package, so its directory is
put on sys.path here.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tools"))
import output_identity  # noqa: E402


def test_number_diff_names_a_file_that_does_not_parse(tmp_path):
    good, empty = tmp_path / "good.json", tmp_path / "empty.json"
    good.write_text('{"t1_s": 1.5}\n')
    empty.write_text("")
    assert output_identity.number_diff(good, empty).startswith(
        "this checkout's file does not parse: ")
    assert output_identity.number_diff(empty, good).startswith(
        "the revision's file does not parse: ")
    assert output_identity.number_diff(good, good) == "all 1 numbers equal, the text differs"
