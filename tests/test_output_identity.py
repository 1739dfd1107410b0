"""The output identity tool reports a data file that does not parse as a
difference instead of stopping at it, and explains a changed JSON layout
or a changed report, key by key.

tools/output_identity.py is not part of the package, so its directory is
put on sys.path here.
"""

import json
import math
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


def test_number_diff_names_keys_on_one_side_and_compares_the_shared_ones(tmp_path):
    rev, here = tmp_path / "rev.json", tmp_path / "here.json"
    rev.write_text(json.dumps({"plan": {"contrast": 0.2}, "seed": 3, "spot": 0,
                               "t1_s": [1.5, float("nan")], "note": "x"}))
    here.write_text(json.dumps({"conditions": {"fast": {"plan": [1.0]}}, "spot": 0,
                                "t1_s": [1.5, float("nan"), 2.0], "note": "y"}))
    assert output_identity.number_diff(rev, here) == (
        "only in the revision's: plan, seed; "
        "only in this checkout's: conditions, t1_s[2]; other values differ at: note; "
        "all 3 shared numbers equal")
    # a number against a string or null differs too, by no count of ulps
    here.write_text(json.dumps({"spot": 0, "t1_s": [math.nextafter(1.5, 2.0), None],
                                "note": 2, "plan": {"contrast": 0.2}, "seed": 3}))
    assert output_identity.number_diff(rev, here) == "3 of 6 numbers differ, by at most 1 ulp"
    here.write_text(json.dumps({"plan": {"contrast": 0.2}, "seed": 3, "spot": 0,
                                "t1_s": [1.5, float("nan")], "note": "x"}, indent=2))
    assert output_identity.number_diff(rev, here) == "all 5 numbers equal, the text differs"


def test_number_diff_reads_a_report_by_check_and_key(tmp_path):
    rev, here = tmp_path / "rev.txt", tmp_path / "here.txt"
    rev.write_text("PASS  quad\n      err_full = 2.2e-16\n      n = 21\n"
                   "PASS  mc\n      n = 1000000\n      warned = False\noverall: PASS\n")
    here.write_text("PASS  quad\n      err_norm = 2.2e-16\n      n = 21\n"
                    "PASS  mc\n      n = 1000000\n      warned = True\noverall: PASS\n")
    assert output_identity.number_diff(rev, here) == (
        "only in the revision's: quad.err_full; only in this checkout's: quad.err_norm; "
        "other values differ at: mc.warned; all 2 shared numbers equal")
    # verdicts are compared as values too
    here.write_text(rev.read_text().replace("PASS", "FAIL"))
    assert output_identity.number_diff(rev, here) == (
        "other values differ at: mc.verdict, overall, quad.verdict; all 3 numbers equal")
    # a report without headings, as t1's, holds its keys at the top
    rev.write_text("t1_s = 1.5\nrate_total_per_s = 0.5\n")
    here.write_text(f"t1_s = {math.nextafter(1.5, 2.0)!r}\nrate_total_per_s = 0.5\n")
    assert output_identity.number_diff(rev, here) == "1 of 2 numbers differ, by at most 1 ulp"
