"""The batch writers of simulate's spot files against their references.

Each fit document must equal json.dumps(doc, indent=2, sort_keys=True)
+ "\\n" of the fit row's record with its per-spot keys added, and each
curve file must equal write_table's, byte for byte, whatever the
keys and values.  The per-spot columns are drawn of every kind that
render_fit_json spells by column: float, int and bool columns, nested
numeric rows of several shapes, and object columns of mixed values.
Both writers write each file whole under short writes, with the mode
that open(path, "wb") gives.  The compute phase,
measure_sim.simulate_condition, writes no file, and its arrays are what
the spot files of simulate hold.
"""

import json
import math
import os
import struct
from dataclasses import replace
from pathlib import Path

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from rbmrelax.cli import main
from rbmrelax.measure_sim import (
    _CONVERGED,
    _NOT_FINITE,
    _NOT_POSITIVE,
    _ON_BOUND,
    _OPEN,
    _TOO_SHORT,
    CURVE_HEADER,
    MeasurementPlan,
    read_curve,
    render_fit_json,
    simulate_condition,
    write_curve,
    write_fit_json,
)
from rbmrelax.scenario import draw_spots, measurement_plan, parse_config, predict
from rbmrelax.table import write_table

CONFIGS = Path(__file__).resolve().parents[1] / "configs"

SPECIAL = (math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, 1.7976931348623157e308)
values = st.one_of(st.sampled_from(SPECIAL), st.floats())
FAILURES = (_NOT_FINITE, _NOT_POSITIVE, _ON_BOUND, _OPEN)
# quotes, backslashes, non-ASCII text, a literal \u0000 and %-format text
NAMES = ('a"b', "back\\slash", "Wasser-Aceton é℃", "\\u0000", "\x00",
         "%s %% %(x)s", '50% "wet" é')
KEYS = st.one_of(st.sampled_from(NAMES), st.text())
PLAN = MeasurementPlan(dark_times=(0.0, 1e-6, 1e-5, 1e-4, 1e-3), shots_per_point=100,
                       detection_window=5e-7, photon_rate=1e5, contrast=0.2)
# the record of a row whose tau grid is too short to fit
TOO_SHORT = {"t1_hat_s": math.nan, "t1_stderr_s": math.nan, "amplitude": math.nan,
             "baseline": math.nan, "covariance": [[0.0] * 3 for _ in range(3)],
             "reduced_chi_sq": math.nan, "converged": False, "message": _TOO_SHORT,
             "singular_curvature": False}


@st.composite
def records(draw):
    """One fit row, as the dict of values its document holds."""
    kind = draw(st.sampled_from(("converged", "failed", "too_short")))
    if kind == "too_short":
        return TOO_SHORT
    converged = kind == "converged"
    t1 = draw(st.floats(min_value=5e-324, max_value=1.7976931348623157e308)
              if converged else values)
    return {
        "t1_hat_s": t1, "t1_stderr_s": draw(values), "amplitude": draw(values),
        "baseline": draw(values),
        "covariance": [[draw(values) for _ in range(3)] for _ in range(3)],
        "reduced_chi_sq": draw(values), "converged": converged,
        "message": _CONVERGED if converged else draw(st.sampled_from(FAILURES)),
        "singular_curvature": draw(st.booleans())}


ROWS = 4


def rows_of(element, shape=()):
    """A strategy for ROWS rows of element, each nested to shape."""
    for size in reversed((ROWS, *shape)):
        element = st.lists(element, min_size=size, max_size=size)
    return element


INTS = st.integers(min_value=-2**63, max_value=2**63 - 1)
# the Python rows of a per-spot column and the dtype it is handed over in;
# an object column holds one Python value per row, dicts included
EXTRAS = st.one_of(
    st.tuples(st.one_of(rows_of(values), rows_of(INTS), rows_of(st.booleans())), st.none()),
    st.tuples(rows_of(st.one_of(st.text(), st.none(), values, INTS,
                                st.dictionaries(KEYS, values, max_size=2))), st.just(object)),
    st.tuples(st.sampled_from(((2,), (2, 2), (1, 3), (2, 0))).flatmap(
        lambda shape: st.one_of(rows_of(values, shape), rows_of(INTS, shape))), st.none()))


def columns_of(batch):
    """The fit columns, as fit_curves returns them, of a list of records."""
    return {key: np.array([record[key] for record in batch],
                          dtype=object if key == "message" else None)
            for key in TOO_SHORT}


def reference(record, row=None):
    return json.dumps({**record, **(row or {})}, indent=2, sort_keys=True) + "\n"


def test_plan_entry_spelling():
    assert json.dumps(PLAN.as_dict(), sort_keys=True) == json.dumps({
        "dark_times_s": [0.0, 1e-6, 1e-5, 1e-4, 1e-3], "shots_per_point": 100,
        "detection_window_s": 5e-7, "photon_rate_per_s": 1e5, "contrast": 0.2,
        "include_reference": True}, sort_keys=True)


@settings(max_examples=200, deadline=None)
@given(batch=st.lists(records(), min_size=1, max_size=ROWS),
       row_columns=st.dictionaries(KEYS, EXTRAS, max_size=3))
def test_fit_documents_equal_json_dumps(tmp_path_factory, batch, row_columns):
    # simulate's columns: the fit's, the spot index and any per-row extras,
    # each handed over as an array and referenced by its Python rows
    n = len(batch)
    rows = {"spot": list(range(n)),
            **{key: value[:n] for key, (value, _) in row_columns.items()}}
    assume(not set(TOO_SHORT) & set(rows))
    extra = {"spot": range(n), **{key: np.array(value[:n], dtype=dtype)
                                  for key, (value, dtype) in row_columns.items()}}
    paths = [tmp_path_factory.mktemp("fits") / f"spot_{j}.json" for j in range(n)]
    write_fit_json(columns_of(batch) | extra, paths)
    for j, (record, path) in enumerate(zip(batch, paths)):
        expected = reference(record, {key: value[j] for key, value in rows.items()})
        assert path.read_bytes() == expected.encode()


@settings(max_examples=100, deadline=None)
@given(record=records())
def test_one_row_record_without_plan_or_seed(tmp_path_factory, record):
    # the fit verb's --out file and stdout
    path = tmp_path_factory.mktemp("fit") / "fit.json"
    write_fit_json(columns_of([record]), [path])
    assert path.read_bytes() == reference(record).encode()
    assert list(render_fit_json(columns_of([record]))) == [reference(record)]


def test_fit_verb_output_is_a_one_row_record(tmp_path, capsys):
    curve = tmp_path / "curve.tsv"
    tau = np.geomspace(1e-6, 5e-4, 8)
    write_table(curve, dict(zip(CURVE_HEADER, (tau, 0.8 + 0.2 * np.exp(-tau / 1e-4),
                                               np.full(8, 1e-3)))))
    out = tmp_path / "fit.json"
    assert main(["fit", str(curve), "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["converged"] is True and "plan" not in doc and "seed" not in doc
    text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    assert out.read_text() == text
    assert capsys.readouterr().out == text


@settings(max_examples=100, deadline=None)
@given(rows=st.lists(st.lists(st.tuples(values, values, values), min_size=4, max_size=4),
                     min_size=1, max_size=3))
def test_curve_files_equal_write_table(tmp_path_factory, rows):
    tau, signal, stderr = np.moveaxis(np.array(rows, dtype=float), -1, 0)
    out = tmp_path_factory.mktemp("curves")
    paths = [out / f"spot_{j}.tsv" for j in range(len(rows))]
    write_curve(tau, signal, stderr, paths)
    for j, path in enumerate(paths):
        ref = out / f"ref_{j}.tsv"
        write_table(ref, dict(zip(CURVE_HEADER, np.array(rows[j], dtype=float).T)))
        assert path.read_bytes() == ref.read_bytes()


def write_spot_files(out, n=3):
    """The curve files and fit documents of n simulated spots under out."""
    t1_true = np.full(n, 2e-4)
    rngs = [np.random.default_rng(j) for j in range(n)]
    curve, columns, _ = simulate_condition(t1_true, rngs, PLAN)
    out.mkdir()
    write_curve(*curve, [out / f"spot_{j}_curve.tsv" for j in range(n)])
    write_fit_json(columns, [out / f"spot_{j}_fit.json" for j in range(n)])
    return sorted(out.iterdir())


def test_files_are_whole_under_short_writes(tmp_path, monkeypatch):
    whole = write_spot_files(tmp_path / "whole")
    calls, real_write = [], os.write

    def short_write(fd, data):
        calls.append(len(data))
        return real_write(fd, data[:7])

    monkeypatch.setattr(os, "write", short_write)
    short = write_spot_files(tmp_path / "short")
    monkeypatch.undo()
    assert len(calls) > 10 * len(short)
    assert [p.name for p in short] == [p.name for p in whole]
    for a, b in zip(short, whole):
        assert a.read_bytes() == b.read_bytes(), a.name


def test_files_have_the_mode_of_open(tmp_path):
    old = os.umask(0o027)
    try:
        files = write_spot_files(tmp_path / "spots")
        with open(tmp_path / "by_open", "wb"):
            pass
    finally:
        os.umask(old)
    mode = (tmp_path / "by_open").stat().st_mode
    assert mode & 0o777 == 0o640
    assert [p.stat().st_mode for p in files] == [mode] * len(files)


def ieee(value):
    """value with every float replaced by its bytes, so == compares bit for bit."""
    if isinstance(value, float):
        return struct.pack("<d", value)
    if isinstance(value, list):
        return [ieee(v) for v in value]
    return value


def test_compute_phase_writes_nothing_and_equals_the_spot_files(tmp_path, monkeypatch):
    config, seed, index, n = CONFIGS / "gd_water_25nm.ini", 11, 0, 6
    work = tmp_path / "work"
    work.mkdir()
    monkeypatch.chdir(work)
    sc = replace(parse_config(config), seed=seed)
    plan = measurement_plan(sc, predict(sc)["t1_s"])
    t1_true, rngs = draw_spots(sc, np.random.SeedSequence(seed, spawn_key=(index,)), n)
    curve, columns, entry = simulate_condition(t1_true, rngs, plan)
    assert list(work.iterdir()) == []

    out = tmp_path / "out"
    assert main(["simulate", "--config", str(config), "--spots", str(n), "--seed", str(seed),
                 "--out", str(out)]) == 0
    rows = {key: np.asarray(column).tolist() for key, column in columns.items()}
    for j in range(n):
        stem = out / "gd_water_25nm" / f"spot_{j:04d}"
        on_disk = read_curve(f"{stem}_curve.tsv")
        for written, computed in zip(on_disk, curve, strict=True):
            assert written.tobytes() == computed[j].tobytes()
        doc = json.loads(Path(f"{stem}_fit.json").read_text())
        assert ieee(doc) == ieee({key: row[j] for key, row in rows.items()})
    summary = json.loads((out / "summary.json").read_text())["conditions"]["gd_water_25nm"]
    assert entry["gaussian"] is not None
    assert ieee(summary) == ieee(summary | entry)
