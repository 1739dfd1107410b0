import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from rbmrelax.cli import main
from rbmrelax.constants import OMEGA_0
from rbmrelax.measure_sim import CURVE_HEADER, fit_curves, simulate_curve
from rbmrelax.scenario import (
    _SCHEMA,
    Scenario,
    draw_spots,
    measurement_plan,
    parse_config,
    predict,
    serialize_scenario,
)
from rbmrelax.sensitivity import CURVE_COLUMNS
from rbmrelax.table import read_table
from rbmrelax.validation import OracleCheck, OracleReport

FAST_BODY = """\
[molecular_bath]
density_per_m3 = 6.894758631919541e+25

[measurement]
shots_per_point = 5000
n_dark_times = 8

[random]
seed = 1234
"""
# Spot 0 of FAST_BODY has a chi2 that keeps falling toward T1 -> infinity:
# its T1 variance comes out negative, so its fit does not converge.
NOT_POSITIVE = "not converged: T1 variance not positive"


@pytest.fixture
def fast_config(tmp_path):
    path = tmp_path / "fast.ini"
    path.write_text(FAST_BODY)
    return path


def parse_report(text):
    out = {}
    for line in text.strip().splitlines():
        key, _, value = line.partition(" = ")
        out[key] = float(value)
    return out


def test_t1_report_and_bookkeeping(fast_config, capsys):
    assert main(["t1", "--config", str(fast_config)]) == 0
    doc = parse_report(capsys.readouterr().out)
    source_sum = sum(v for k, v in doc.items()
                     if k.startswith("rate_source_"))
    assert doc["rate_total_per_s"] == pytest.approx(
        doc["rate_bulk_per_s"] + source_sum, rel=1e-12)
    assert doc["t1_s"] == pytest.approx(1.0 / doc["rate_total_per_s"], rel=1e-12)
    assert doc["gd_rate_total_per_s"] == pytest.approx(
        doc["gd_rate_dip_per_s"] + doc["gd_rate_vib_per_s"]
        + doc["gd_rate_trans_per_s"] + doc["gd_rate_rot_per_s"], rel=1e-12)


def test_t1_out_file_and_manifest(fast_config, tmp_path, capsys):
    out = tmp_path / "report.txt"
    assert main(["t1", "--config", str(fast_config), "--out", str(out)]) == 0
    assert parse_report(out.read_text()) == parse_report(capsys.readouterr().out)
    manifest = json.loads((tmp_path / "report.txt.manifest.json").read_text())
    assert manifest["command"] == "t1"
    assert manifest["configs"][0]["seed"] == 1234
    assert len(manifest["configs"][0]["sha256"]) == 64


def test_bad_config_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.ini"
    bad.write_text("[particle]\ndiamter_nm = 25\n")
    assert main(["t1", "--config", str(bad)]) == 1
    assert "valid keys" in capsys.readouterr().err


def test_bad_usage_exit_code(capsys):
    assert main(["sweep", "--axis", "nonsense"]) == 1
    assert main(["no-such-command"]) == 1


def test_sweep_water_fraction(fast_config, tmp_path, capsys):
    out = tmp_path / "sweep.tsv"
    assert main(["sweep", "--config", str(fast_config), "--axis",
                 "water_fraction", "--grid", "0.046:1:8", "--out",
                 str(out)]) == 0
    rows = [line.split("\t") for line in out.read_text().splitlines()]
    header, data = rows[0], rows[1:]
    assert header[0] == "x_water"
    assert len(data) == 8
    t1_col = header.index("t1_s")
    eta_col = header.index("viscosity_pa_s")
    t1s = [float(r[t1_col]) for r in data]
    etas = [float(r[eta_col]) for r in data]
    # slower rotation moves the molecular Lorentzian toward the sensor
    # frequency, so T1 tracks the mixture viscosity inversely: largest in
    # acetone-rich solvent, interior minimum at the viscosity maximum
    assert t1s[0] == max(t1s)
    i_min = t1s.index(min(t1s))
    assert 0 < i_min < len(t1s) - 1
    assert etas[i_min] == max(etas)


def test_sweep_zero_density_matches_bare(fast_config, tmp_path, capsys):
    out = tmp_path / "gd.tsv"
    assert main(["sweep", "--config", str(fast_config), "--axis", "gd_density",
                 "--grid", "0,1e24,1e25", "--out", str(out)]) == 0
    rows = [line.split("\t") for line in out.read_text().splitlines()]
    header, first = rows[0], rows[1]
    t1_bare = float(first[header.index("t1_s")])
    assert float(first[header.index("gd_density_per_m3")]) == 0.0
    assert t1_bare == pytest.approx(130e-6, rel=1e-12)


def test_sweep_diameter_monotonic(fast_config, tmp_path):
    out = tmp_path / "d.tsv"
    assert main(["sweep", "--config", str(fast_config), "--axis", "diameter",
                 "--grid", "15e-9:60e-9:6", "--out", str(out)]) == 0
    rows = [line.split("\t") for line in out.read_text().splitlines()]
    header, data = rows[0], rows[1:]
    t1_col = header.index("t1_s")
    t1s = [float(r[t1_col]) for r in data]
    # every bath field falls with distance, so larger particles live longer
    assert all(b > a for a, b in zip(t1s, t1s[1:]))


def test_sweep_range_check_before_compute(fast_config, tmp_path, capsys):
    # predict rejects every out-of-range element; --grid= keeps argparse
    # from reading a leading minus as an option
    out = tmp_path / "x.tsv"
    for axis, grid, message in [
        ("gd_density", "-1,1e25", "gd_density must be finite and >= 0, got -1.0"),
        ("water_fraction", "0:1.5:4", "x_water must be in [0, 1], got 1.5"),
        ("diameter", "0,25e-9", "diameter must be finite and > 0, got 0.0"),
    ]:
        assert main(["sweep", "--config", str(fast_config), "--axis", axis,
                     f"--grid={grid}", "--out", str(out)]) == 1
        assert not list(tmp_path.glob("x.tsv*"))
        captured = capsys.readouterr()
        assert captured.out == ""
        err = captured.err.splitlines()
        assert len(err) == 1 and message in err[0], axis
    assert main(["sweep", "--config", str(fast_config), "--axis", "gd_density",
                 "--grid", "bogus", "--out", str(out)]) == 1


def test_simulate_reproducible(fast_config, tmp_path, capsys):
    out_a = tmp_path / "run_a"
    out_b = tmp_path / "run_b"
    for out in (out_a, out_b):
        assert main(["simulate", "--config", str(fast_config), "--spots", "6",
                     "--out", str(out)]) == 0
    names = sorted(p.relative_to(out_a) for p in out_a.rglob("*") if p.is_file())
    assert (out_a / "summary.json").exists()
    for rel in names:
        if rel.name == "manifest.json":
            continue  # carries a timestamp
        assert (out_a / rel).read_bytes() == (out_b / rel).read_bytes(), rel

    summary = json.loads((out_a / "summary.json").read_text())
    cond = summary["conditions"]["fast"]
    assert cond["n_spots"] == 6
    assert cond["n_converged"] == 5  # all but spot 0 (NOT_POSITIVE)
    assert cond["gaussian"]["n"] == cond["n_converged"]
    assert summary["separation"] is None
    curves = sorted((out_a / "fast").glob("spot_*_curve.tsv"))
    assert len(curves) == 6


def test_simulate_keeps_a_users_writable_file(fast_config, tmp_path, capsys):
    # the writability probe is a file without a name in --out
    out = tmp_path / "out"
    out.mkdir()
    (out / ".writable").write_text("the user's notes\n")
    assert main(["simulate", "--config", str(fast_config), "--spots", "2",
                 "--out", str(out)]) == 0
    assert (out / ".writable").read_text() == "the user's notes\n"


def test_simulate_unwritable_out_is_one_error_line(fast_config, tmp_path, capsys,
                                                    monkeypatch):
    out = tmp_path / "out"

    def refuse(*args, **kwargs):
        raise PermissionError(13, "Permission denied")

    monkeypatch.setattr(tempfile, "TemporaryFile", refuse)
    assert main(["simulate", "--config", str(fast_config), "--spots", "2",
                 "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err == f"error: output directory {out} is not writable: [Errno 13] Permission denied\n"
    assert list(out.iterdir()) == []


def test_simulate_two_conditions_separation(fast_config, tmp_path, capsys):
    other = tmp_path / "other.ini"
    other.write_text(FAST_BODY.replace("density_per_m3 = 6.894758631919541e+25",
                                       "density_per_m3 = 0"))
    out = tmp_path / "pair"
    assert main(["simulate", "--config", str(fast_config), "--config",
                 str(other), "--spots", "6", "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert set(summary["conditions"]) == {"fast", "other"}
    sep = summary["separation"]
    assert sep is not None and sep["z_geometric"] > 0.0
    assert "z_geometric" in capsys.readouterr().out


def same_fields(a: dict, b: dict) -> bool:
    """Equal values, bit for bit, with NaN equal to NaN (as JSON text)."""
    return json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


def test_fit_reproduces_simulate_fit(fast_config, tmp_path, capsys):
    # simulate fits a condition in one batch, fit one curve alone: a spot's
    # document is the refit's plus its index and true T1, bit for bit,
    # verdict included, and nothing else
    out = tmp_path / "run"
    assert main(["simulate", "--config", str(fast_config), "--spots", "2",
                 "--out", str(out)]) == 0
    for j, (code, converged) in enumerate([(2, False), (0, True)]):
        stored_text = (out / "fast" / f"spot_{j:04d}_fit.json").read_text()
        stored = json.loads(stored_text)
        refit_path = tmp_path / f"refit_{j}.json"
        assert main(["fit", str(out / "fast" / f"spot_{j:04d}_curve.tsv"),
                     "--out", str(refit_path)]) == code
        refit = json.loads(refit_path.read_text())
        assert refit["converged"] is converged
        assert set(stored) == set(refit) | {"spot", "t1_true_s"}
        assert stored["spot"] == j
        expected = refit | {"spot": j, "t1_true_s": stored["t1_true_s"]}
        assert stored_text == json.dumps(expected, indent=2, sort_keys=True) + "\n"
        assert (refit["message"] == NOT_POSITIVE) is not converged


def test_simulate_writes_each_plan_once_in_summary(fast_config, tmp_path, capsys):
    # the plan, seed and condition name live in summary.json, once per
    # condition; a spot's fit document holds only that spot's numbers
    other = tmp_path / "other.ini"
    other.write_text(FAST_BODY.replace("n_dark_times = 8", "n_dark_times = 10"))
    out = tmp_path / "pair"
    assert main(["simulate", "--config", str(fast_config), "--config", str(other),
                 "--spots", "3", "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    for cfg in (fast_config, other):
        sc = parse_config(cfg)
        cond = summary["conditions"][cfg.stem]
        plan = measurement_plan(sc, cond["t1_predicted_s"]).as_dict()
        assert cond["plan"] == plan and len(plan["dark_times_s"]) == sc.n_dark_times
        for path in (out / cfg.stem).glob("spot_*_fit.json"):
            assert not {"plan", "seed", "condition"} & set(json.loads(path.read_text()))
    assert len(list(out.glob("*/spot_*_fit.json"))) == 2 * 3


def test_fit_shuffled_rows_identical(fast_config, tmp_path, capsys):
    out = tmp_path / "run"
    main(["simulate", "--config", str(fast_config), "--spots", "2",
          "--out", str(out)])
    for j, code in enumerate([2, 0]):
        curve = out / "fast" / f"spot_{j:04d}_curve.tsv"
        lines = curve.read_text().splitlines()
        shuffled = tmp_path / "shuffled.tsv"
        shuffled.write_text("\n".join([lines[0]] + lines[1:][::-1]) + "\n")
        capsys.readouterr()
        assert main(["fit", str(curve)]) == code
        a = json.loads(capsys.readouterr().out)
        assert main(["fit", str(shuffled)]) == code
        b = json.loads(capsys.readouterr().out)
        assert same_fields(a, b)


def test_fit_error_paths(tmp_path, capsys):
    bad = tmp_path / "bad.tsv"
    bad.write_text("tau_s\tsignal\tstderr\n1e-6\toops\t1e-3\n")
    assert main(["fit", str(bad)]) == 1
    assert main(["fit", str(tmp_path / "absent.tsv")]) == 1


@pytest.mark.parametrize("rows, message", [
    ("1e-6\t0.99\t1e-3\n1e-4\t0.87\t1e-3\n1e-3\t0.8\t1e-3\n",
     "need >= 4 points to fit, got 3"),
    ("0\t0.99\t1e-3\n" * 5,
     "tau grid too short: must reach 2x the t1 guess or span a decade"),
])
def test_fit_rejection_names_the_file(tmp_path, capsys, rows, message):
    path = tmp_path / "short.tsv"
    path.write_text("tau_s\tsignal\tstderr\n" + rows)
    assert main(["fit", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {path}: {message}\n"


@pytest.mark.parametrize("row, message", [
    ("-1e-5\t0.92\t1e-3", "bad dark time -1e-05"),
    ("1e-5\t0.92\t-1e-3", "bad stderr -0.001"),
])
def test_fit_rejects_negative_dark_time_or_stderr(tmp_path, capsys, row, message):
    path = tmp_path / "negative.tsv"
    path.write_text("tau_s\tsignal\tstderr\n1e-6\t0.99\t1e-3\n" + row
                    + "\n1e-4\t0.87\t1e-3\n3e-4\t0.81\t1e-3\n1e-3\t0.8\t1e-3\n")
    assert main(["fit", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {path}: invalid curve data: {message}\n"


def test_sensitivity_time_scaling(fast_config, tmp_path, capsys):
    # reuse the fast config but with 16x the averaging time
    slow = tmp_path / "slow.ini"
    slow.write_text(FAST_BODY.replace(
        "[random]", "acquisition_time_s = 160\n\n[random]"))
    grid = "1e25:1e28:10:log"
    out_fast = tmp_path / "f.tsv"
    out_slow = tmp_path / "s.tsv"
    assert main(["sensitivity", "--config", str(fast_config), "--grid", grid,
                 "--out", str(out_fast)]) == 0
    assert main(["sensitivity", "--config", str(slow), "--grid", grid,
                 "--out", str(out_slow)]) == 0

    def data_rows(path):
        rows = [l.split("\t") for l in path.read_text().splitlines()
                if l and not l.startswith("#")]
        return rows[1:]

    for rf, rs in zip(data_rows(out_fast), data_rows(out_slow)):
        assert float(rs[0]) == float(rf[0])
        assert float(rs[1]) == float(rf[1])
        # acquisition time enters as 1/sqrt(T): 16x time halves twice
        assert float(rs[2]) == pytest.approx(float(rf[2]) / 4.0, rel=1e-12)


def test_sensitivity_default_grid(fast_config, tmp_path, capsys):
    out = tmp_path / "sens.tsv"
    assert main(["sensitivity", "--config", str(fast_config), "--out",
                 str(out)]) == 0
    assert "minimum delta_r" in capsys.readouterr().out
    assert out.exists()
    manifest = json.loads((tmp_path / "sens.tsv.manifest.json").read_text())
    assert manifest["command"] == "sensitivity"


def test_sensitivity_resonant_point_notice_on_stderr(tmp_path, capsys):
    # without the vibrational term the total rate is linear in density, so
    # two predictions place one grid density on the level splitting
    cfg = tmp_path / "novib.ini"
    cfg.write_text("[molecular_bath]\nvibration_rate_ghz = 0\n")
    rates = predict(parse_config(cfg), gd_density=np.array([0.0, 1e26]))["gd_rate_total_per_s"]
    resonant = float((OMEGA_0 - rates[0]) / (rates[1] - rates[0]) * 1e26)
    out = tmp_path / "sens.tsv"
    assert main(["sensitivity", "--config", str(cfg), "--grid",
                 f"1e24,1e25,{resonant!r},1e26,1e27", "--out", str(out)]) == 0
    captured = capsys.readouterr()
    assert "notice: grid point" not in captured.out
    assert f"notice: grid point {resonant:.6g} /m^3 skipped" in captured.err
    _, meta = read_table(out, CURVE_COLUMNS, "sensitivity curve")
    assert float(meta["skipped_densities"]) == resonant


def test_oracle_quadrature(capsys):
    assert main(["oracle", "quadrature"]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out and "overall" in out


def test_oracle_all_passes_and_repeats(capsys):
    # the real checks, Monte Carlo dipolar sums included
    outs = []
    for _ in range(2):
        assert main(["oracle", "all"]) == 0
        outs.append(capsys.readouterr().out)
    assert outs[0].splitlines()[-1] == "overall: PASS"
    assert outs[0] == outs[1]


# numpy is loaded before the CLI, so the CLI's one-thread start-up leaves
# the caller's pool alone; where the kernel lists threads, the 2-thread
# child checks that it really runs the oracle with 2
BLAS_CHILD = """\
import os, sys
import numpy
from rbmrelax.cli import main
if os.path.isdir("/proc/self/task") and os.environ["OPENBLAS_NUM_THREADS"] == "2":
    assert len(os.listdir("/proc/self/task")) == 2, os.listdir("/proc/self/task")
sys.exit(main(["oracle", "bath_mc"]))
"""


def test_oracle_report_independent_of_blas_threads():
    # the Monte Carlo totals are numpy pairwise sums, not BLAS reductions,
    # whose split across threads changed the last digits of the report
    if hasattr(os, "sched_getaffinity") and len(os.sched_getaffinity(0)) < 2:
        pytest.skip("one CPU: OpenBLAS caps its pool at the CPU count, so a "
                    "two-thread BLAS pool cannot exist")
    src = str(Path(__file__).resolve().parents[1] / "src")
    outs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=src)
        done = subprocess.run([sys.executable, "-c", BLAS_CHILD],
                              capture_output=True, text=True, env=env, timeout=300)
        assert done.returncode == 0, done.stderr
        outs.append(done.stdout)
    assert outs[0].splitlines()[-1] == "overall: PASS"
    assert outs[0] == outs[1]


def test_oracle_failure_exit_code(monkeypatch, capsys):
    import rbmrelax.validation as validation_mod

    failing = OracleReport(checks=(OracleCheck(
        name="stub", passed=False, details={"z": 9.9}),))
    # the oracle verb imports run_oracles when it runs
    monkeypatch.setattr(validation_mod, "run_oracles", lambda which: failing)
    assert main(["oracle", "all"]) == 3
    assert "FAIL" in capsys.readouterr().out


def test_version(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    from rbmrelax import __version__

    assert __version__ in capsys.readouterr().out


@pytest.mark.parametrize("verb", [
    ["sweep", "--axis", "gd_density"], ["sweep", "--axis", "water_fraction"],
    ["sweep", "--axis", "diameter"], ["sensitivity"]], ids=lambda v: v[-1])
@pytest.mark.parametrize("grid, token", [
    ("nan,0.5,1", "nan"), ("0.1,inf", "inf"), ("1e-9:inf:5:log", "inf"),
    ("nan:1:4", "nan"), ("0.2, NaN", "NaN")])
def test_nonfinite_grid_rejected_before_compute(fast_config, tmp_path, capsys,
                                                recwarn, verb, grid, token):
    out = tmp_path / "grid.tsv"
    assert main([*verb, "--config", str(fast_config), "--grid", grid,
                 "--out", str(out)]) == 1
    assert not out.exists()
    assert not list(tmp_path.glob("grid.tsv*"))
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and repr(token) in err[0]
    assert not recwarn.list


def test_grid_too_large_to_allocate_is_one_error_line(fast_config, tmp_path, capsys):
    # 10^15 points (8 PB) exceed any address space: the allocation fails at
    # once and touches no memory
    out = tmp_path / "grid.tsv"
    assert main(["sweep", "--config", str(fast_config), "--axis", "diameter",
                 "--grid", "1e-9:1e-6:1000000000000000", "--out", str(out)]) == 1
    assert not list(tmp_path.glob("grid.tsv*"))
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and "allocate" in err[0]


def test_spot_count_too_large_to_allocate_is_one_error_line(fast_config, tmp_path, capsys):
    # the jitter factors of 10^15 spots (21 PiB) are allocated before any
    # spot's generator is spawned: the run fails at once, touches no memory
    # and writes nothing
    out = tmp_path / "sim"
    assert main(["simulate", "--config", str(fast_config), "--spots", "1000000000000000",
                 "--out", str(out)]) == 1
    assert not out.exists()
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and "allocate" in err[0]


POISSON_CEILING = "error: [measurement] shots_per_point x photon_rate_per_s x detection_window_ns"


@pytest.mark.parametrize("body, message", [
    (f"shots_per_point = {10**21}", POISSON_CEILING),
    (f"shots_per_point = {10**400}", POISSON_CEILING),
    # the grid would end at 5 x 130 us, below its first dark time: the
    # message named neither key
    ("tau_min_us = 10000", "error: [measurement] tau_min_us 10000 and tau_span_factor 5 give "
     "no dark-time grid: tau_span_factor x the predicted T1 of 130 us must be finite and "
     "above tau_min_us"),
], ids=["1e21", "1e400", "empty-tau-grid"])
def test_counts_beyond_a_poisson_draw_fail_while_planning(fast_config, tmp_path, capsys,
                                                         body, message):
    # 10^21 shots expect 5e19 counts per dark time, past numpy's Poisson
    # ceiling (~9.2e18); 10^400 is not a float at all.  A plan that cannot
    # be drawn, for these or for an empty dark-time grid, fails the second
    # condition before the first condition's files are written
    big = tmp_path / "big.ini"
    big.write_text(f"[measurement]\n{body}\n")
    out = tmp_path / "sim"
    assert main(["simulate", "--config", str(fast_config), "--config", str(big),
                 "--spots", "5", "--out", str(out)]) == 1
    assert not out.exists()
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(message)


def test_counts_below_the_poisson_ceiling_still_run(tmp_path, capsys):
    # 10^14 shots expect 5e12 counts per dark time, which numpy can draw
    cfg = tmp_path / "many.ini"
    cfg.write_text("[measurement]\nshots_per_point = 100000000000000\n")
    assert main(["simulate", "--config", str(cfg), "--spots", "2",
                 "--out", str(tmp_path / "sim")]) == 0
    fits = [json.loads(p.read_text()) for p in sorted((tmp_path / "sim").glob("*/*_fit.json"))]
    assert len(fits) == 2 and all(f["converged"] for f in fits)


@pytest.mark.parametrize("verb, args", [
    ("t1", []),
    ("sweep", ["--axis", "diameter", "--grid", "1e-8:2e-8:3", "--out"]),
    ("sensitivity", ["--out"]),
])
def test_forward_verbs_take_no_seed(fast_config, tmp_path, capsys, verb, args):
    # they draw no random numbers; their manifests record the config's seed
    out = [str(tmp_path / "out.tsv")] if args else []
    assert main([verb, "--config", str(fast_config), *args, *out, "--seed", "7"]) == 1
    assert capsys.readouterr().err == "error: unrecognized arguments: --seed 7\n"
    assert sorted(tmp_path.iterdir()) == [fast_config]


def test_simulate_seed_overrides_every_config_seed(tmp_path, capsys):
    # configs with seeds 1234 and 99 run with --seed 7 give the data files of
    # configs that both say seed = 7, and record seed 7 for both conditions
    runs = {}
    for run, seeds in (("override", ("1234", "99")), ("written", ("7", "7"))):
        configs = []
        for stem, seed in zip(("first", "second"), seeds):
            cfg = tmp_path / run / f"{stem}.ini"
            cfg.parent.mkdir(exist_ok=True)
            cfg.write_text(FAST_BODY.replace("seed = 1234", f"seed = {seed}"))
            configs += ["--config", str(cfg)]
        seed = ["--seed", "7"] if run == "override" else []
        out = tmp_path / run / "sim"
        assert main(["simulate", *configs, "--spots", "3", *seed, "--out", str(out)]) == 0
        runs[run] = out
    capsys.readouterr()
    override, written = runs["override"], runs["written"]
    summary = json.loads((override / "summary.json").read_text())
    manifest = json.loads((override / "manifest.json").read_text())
    for index, name in enumerate(("first", "second")):
        cond = summary["conditions"][name]
        assert (cond["seed"], cond["condition_index"]) == (7, index)
        entry = manifest["configs"][index]
        assert (entry["seed"], entry["condition_index"]) == (7, index)
    files = sorted(p.relative_to(override) for p in override.rglob("*_*"))
    assert len(files) == 2 * 3 * 2
    assert files == sorted(p.relative_to(written) for p in written.rglob("*_*"))
    for rel in files:
        assert (override / rel).read_bytes() == (written / rel).read_bytes(), rel
    written_summary = json.loads((written / "summary.json").read_text())
    for doc in (summary, written_summary):
        for cond in doc["conditions"].values():
            del cond["config"]
    assert summary == written_summary


@pytest.mark.parametrize("argv, name, what", [
    (["t1", "--config"], "bad.ini", "config"),
    (["fit"], "bad.tsv", "curve file"),
    (["t1", "--config"], "mix.ini", "viscosity table"),
])
def test_file_that_is_not_utf8_is_named_in_its_error(tmp_path, capsys, argv, name, what):
    for bad in ("bad.ini", "bad.tsv", "table.txt"):
        (tmp_path / bad).write_bytes(b"\xff\n")
    (tmp_path / "mix.ini").write_text("[solvent]\nx_water = 0.5\ntable_path = table.txt\n")
    assert main([*argv, str(tmp_path / name)]) == 1
    err = capsys.readouterr().err
    bad = "table.txt" if what == "viscosity table" else name
    assert err.startswith(f"error: cannot read {what} ") and err.count("\n") == 1
    assert f"{bad}: 'utf-8' codec can't decode byte 0xff in position 0" in err


def test_simulate_conditions_never_share_a_stream(tmp_path, capsys):
    # seeds 12346 and 12345 once gave conditions 0 and 1 the same stream
    # (seed + condition index); identical physics made their data identical
    first, second = tmp_path / "first.ini", tmp_path / "second.ini"
    first.write_text(FAST_BODY.replace("seed = 1234", "seed = 12346"))
    second.write_text(FAST_BODY.replace("seed = 1234", "seed = 12345"))
    out = tmp_path / "pair"
    assert main(["simulate", "--config", str(first), "--config", str(second),
                 "--spots", "2", "--out", str(out)]) == 0
    assert ((out / "first" / "spot_0000_curve.tsv").read_bytes()
            != (out / "second" / "spot_0000_curve.tsv").read_bytes())
    summary = json.loads((out / "summary.json").read_text())
    manifest = json.loads((out / "manifest.json").read_text())
    for index, name in enumerate(("first", "second")):
        cond = summary["conditions"][name]
        assert (cond["seed"], cond["condition_index"]) == (12346 - index, index)
        entry = manifest["configs"][index]
        assert (entry["seed"], entry["condition_index"]) == (12346 - index, index)


def test_shipped_acetone_then_water_draw_distinct_streams(tmp_path, monkeypatch,
                                                          capsys):
    # acetone (seed 20260102) first, water (20260101) second once collided
    # simulate imports draw_spots from rbmrelax.scenario when it runs
    import rbmrelax.scenario as scenario_mod

    states = {}
    real_draw_spots = scenario_mod.draw_spots

    def recording_draw_spots(sc, stream, n_spots):
        # each spot's generator state before its jitter draws
        states[sc.seed] = [np.random.default_rng(child).bit_generator.state["state"]["state"]
                           for child in stream.spawn(n_spots)]
        return real_draw_spots(sc, stream, n_spots)

    monkeypatch.setattr(scenario_mod, "draw_spots", recording_draw_spots)
    configs = Path(__file__).resolve().parents[1] / "configs"
    assert main(["simulate", "--config", str(configs / "gd_acetone_x046_25nm.ini"),
                 "--config", str(configs / "gd_water_25nm.ini"), "--spots", "3",
                 "--out", str(tmp_path / "demo")]) == 0
    acetone, water = states[20260102], states[20260101]
    assert len(acetone) == len(water) == 3
    assert not set(acetone) & set(water)


def test_simulate_files_come_from_the_one_engine(fast_config, tmp_path, capsys):
    out = tmp_path / "run"
    assert main(["simulate", "--config", str(fast_config), "--spots", "3",
                 "--out", str(out)]) == 0
    sc = parse_config(fast_config)
    plan = measurement_plan(sc, predict(sc)["t1_s"])
    t1_true, rngs = draw_spots(sc, np.random.SeedSequence(sc.seed, spawn_key=(0,)), 3)
    tau, signal, stderr = simulate_curve(t1_true, rngs, plan)
    fits = fit_curves(tau, signal, stderr)
    assert len(fits["converged"]) == 3
    for j in range(3):
        fit = {key: column.tolist()[j] for key, column in fits.items()}
        doc = json.loads((out / "fast" / f"spot_{j:04d}_fit.json").read_text())
        rows, _ = read_table(out / "fast" / f"spot_{j:04d}_curve.tsv",
                             CURVE_HEADER, "curve file")
        assert doc["t1_true_s"] == t1_true[j]
        assert np.array_equal(np.array(rows), np.column_stack((tau[j], signal[j], stderr[j])))
        assert same_fields({key: doc[key] for key in fit}, fit)
    assert fits["converged"].tolist() == [False, True, True]


@pytest.mark.parametrize("body, message", [
    # a Pa s table would otherwise be scaled by 1e-3 a second time
    ("mole_fraction viscosity_Pa_s\n0.0 0.000306\n0.5 0.000876\n1.0 0.00089\n",
     r"table\.txt:1: expected header 'mole_fraction viscosity_mPa_s'"),
    ("mole_fraction viscosity_mPa_s\n0.0 0.306\n0.50  nan\n1.0 0.89\n",
     r"table\.txt:3: non-finite value"),
])
def test_bad_viscosity_table_fails_t1_before_output(tmp_path, capsys, body, message):
    (tmp_path / "table.txt").write_text(body)
    cfg = tmp_path / "mix.ini"
    cfg.write_text("[solvent]\nx_water = 0.5\ntable_path = table.txt\n")
    parse_config(cfg)  # the file exists; its content is read on first use
    out = tmp_path / "report.txt"
    assert main(["t1", "--config", str(cfg), "--out", str(out)]) == 1
    assert not list(tmp_path.glob("report.txt*"))
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:")
    assert re.search(message, err[0])


def test_simulate_bad_later_condition_leaves_no_output(tmp_path, capsys):
    # the second condition fails when its config is read (a nonzero sensor
    # offset has no closed form); the first condition's spots must not be
    # written
    good = tmp_path / "good.ini"
    good.write_text(FAST_BODY)
    off = tmp_path / "off.ini"
    off.write_text("[particle]\nsensor_offset_nm = 1\n")
    out = tmp_path / "sim"
    assert main(["simulate", "--config", str(good), "--config", str(off),
                 "--spots", "20", "--out", str(out)]) == 1
    assert not list(tmp_path.rglob("spot_*"))
    assert not out.exists()
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:")


def test_simulate_spot_outside_domain_leaves_no_output(tmp_path, capsys):
    # a density jitter of 5 (a factor of e^5 per sigma) puts spot 11 of seed
    # 1234 beyond the tau_c bound while spot 0 stays inside; every spot is
    # drawn before anything is written, so spot 0 is not written either
    cfg = tmp_path / "wide.ini"
    cfg.write_text(FAST_BODY + "\n[spots]\ndensity_jitter = 5\n")
    sc = parse_config(cfg)
    inside = []
    for child in np.random.SeedSequence(sc.seed, spawn_key=(0,)).spawn(20):
        rng = np.random.default_rng(child)
        d, n, sigma = (math.exp(rng.normal(0.0, s)) for s in
                       (sc.diameter_jitter, sc.density_jitter, sc.density_jitter))
        try:
            predict(sc, diameter=sc.diameter * d, gd_density=sc.gd_density * n,
                    surface_density=sc.surface_density * sigma)
            inside.append(True)
        except ValueError:
            inside.append(False)
    assert inside[0] and not all(inside)
    out = tmp_path / "sim"
    assert main(["simulate", "--config", str(cfg), "--spots", "20",
                 "--out", str(out)]) == 1
    assert not out.exists()
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err.splitlines()
    assert len(err) == 1 and "tau_c must lie in [1e-15, 1000] s" in err[0]


@pytest.mark.parametrize("value", ["0", "-0"])
def test_zero_surface_rate_is_a_parameter_error(tmp_path, capsys, value):
    cfg = tmp_path / "still.ini"
    cfg.write_text(f"[surface_bath]\nfluctuation_rate_ghz = {value}\n")
    out = tmp_path / "report.txt"
    assert main(["t1", "--config", str(cfg), "--out", str(out)]) == 1
    assert not list(tmp_path.glob("report.txt*"))
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err.splitlines()
    assert len(err) == 1 and err[0].startswith(
        "error: [surface_bath] fluctuation_rate_ghz must be > 0 with a correlation time")


def test_simulate_condition_names_never_collide(tmp_path, capsys):
    # a.ini and d/a.ini share a stem, and the first suffix, a_2, is taken
    # by a_2.ini: every condition must still get a directory of its own
    (tmp_path / "d").mkdir()
    configs = [tmp_path / "a.ini", tmp_path / "a_2.ini", tmp_path / "d" / "a.ini"]
    for cfg in configs:
        cfg.write_text(FAST_BODY)
    out = tmp_path / "sim"
    argv = ["simulate", "--spots", "5", "--out", str(out)]
    for cfg in configs:
        argv += ["--config", str(cfg)]
    assert main(argv) == 0
    capsys.readouterr()
    summary = json.loads((out / "summary.json").read_text())
    names = sorted(summary["conditions"])
    assert len(names) == 3
    assert sorted(summary["conditions"][n]["config"] for n in names) == \
        sorted(str(c) for c in configs)
    outputs = json.loads((out / "manifest.json").read_text())["outputs"]
    assert len(outputs) == len(set(outputs)) == 3 * 2 * 5 + 1
    for name in names:
        assert len(list((out / name).glob("spot_*"))) == 2 * 5


def test_oracle_rejects_sensor_offset_config(tmp_path, capsys):
    # oracle takes no config: its checks are fixed-point, so --config is a
    # usage error, even with a config that the other verbs reject
    off = tmp_path / "off.ini"
    off.write_text("[particle]\nsensor_offset_nm = 1\n")
    assert main(["oracle", "quadrature", "--config", str(off)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err.splitlines()
    assert len(err) == 1 and "unrecognized arguments: --config" in err[0]


KAPPA_OVERFLOW = "[molecular_bath]\ndipolar_coefficient_m3_per_s = 1e300\ndensity_per_m3 = 1e24\n"
DENSE = "[molecular_bath]\ndensity_per_m3 = 1e35\n"


@pytest.mark.parametrize("body, verb, code, message", [
    # S(S+1) overflows: the molecular field was NaN times a zero density
    ("[molecular_bath]\nspin = 1e300\n", "t1", 1, "give a squared moment of inf"),
    # D T_D T underflows to 0, and delta_r_min was 1/0 = inf
    ("[measurement]\nacquisition_time_s = 5e-324\n", "sensitivity", 1, "shot-noise factor"),
    # delta_r_min itself overflowed to inf, and the exit-2 message named no key
    ("[measurement]\ncontrast = 1e-300\n", "sensitivity", 1,
     "error: [measurement] contrast, photon_rate_per_s, detection_window_ns and "
     "acquisition_time_s give a shot-noise factor 1 / (C sqrt(D T_D T)) of 1.41421e+300: "
     "delta_r_min overflows"),
    # 2s overflows to inf: the half-integer test's round(inf) was exit 2
    *((f"[{section}]\nspin = {spin}\n", "t1", 1,
       f"error: [{section}] spin must be a positive half-integer, got ")
      for section, spin in (("molecular_bath", "1e308"), ("surface_bath", "1.7e308"))),
    # 2^63 dark times: np.geomspace raised an IndexError, with a traceback
    ("[measurement]\nn_dark_times = 9223372036854775808\n", "simulate --spots 3", 1,
     "error: [measurement] n_dark_times 9223372036854775808 is too large"),
    # a Python float power or exp overflowed, and the exit-2 message named
    # no key
    ("[molecule]\nradius_nm = 1e309\n", "t1", 1,
     "error: molecule radius 1e+300 m is too large: its cube overflows"),
    ("[particle]\ndiameter_nm = 1e309\n", "t1", 1,
     "error: diameter 1e+300 m is too large: its radius**4 overflows"),
    ("[spots]\ndensity_jitter = 1e30\n", "simulate", 1,
     "error: [spots] density_jitter 1e+30 is too large: it drew a log-normal factor e^"),
    # kappa_dip * n overflowed: a scalar product was a silent inf that a
    # later check caught without naming the key, an array one exit 2
    *((KAPPA_OVERFLOW, verb, 1, "error: [molecular_bath] dipolar_coefficient_m3_per_s "
       "1e+300 is too large: its dipolar rate at density 1e+24 /m^3 overflows")
      for verb in ("t1", "sweep --axis water_fraction --grid 0:1:3",
                   "sensitivity --grid 1e24:1e26:3:log")),
    # a dipolar rate past 1e15 /s: the tau_c bound named no key and no density
    *((DENSE, verb, 1, f"error: at [molecular_bath] density_per_m3 {first} the molecular "
       "bath's correlation time 1/R leaves its window: tau_c must lie in [1e-15, 1000] s")
      for verb, first in (("t1", "1e+35"),
                          ("sweep --axis gd_density --grid 1e23:1e36:5", "2.50000000000075e+35"),
                          ("sensitivity --grid 1e30:1e36:7:log", "1e+31"))),
    # the default grid's smallest field variance underflowed to 0 T^2, and
    # the message named neither key nor density
    ("[molecular_bath]\ndensity_per_m3 = 1e-300\n", "sensitivity", 1,
     "error: [molecular_bath] density_per_m3 3.162277660168379e-302 is too small: "
     "its field variance underflows to 0 T^2"),
    # grid sizes and spot counts that numpy rejects before it allocates
    # anything (2^63 elements or more): the error line named neither, and a
    # 2^63-point grid raised an IndexError with a traceback
    *(("", f"{verb} --grid {grid}", 1,
       f"error: grid size {grid.split(':')[2]} in '{grid}' is too large: ")
      for verb, grid in (("sweep --axis water_fraction", "0:1:99999999999999999999"),
                         ("sweep --axis diameter", "1e-8:2e-8:9223372036854775808:log"),
                         ("sensitivity", "1e23:1e28:99999999999999999999:log"))),
    # the cheap bounds check comes first
    ("", "sensitivity --grid 0:1e28:99999999999999999999:log", 1,
     "error: log grid requires positive bounds"),
    # three jitter factors per spot: 3 x 3074457345618258603 > 2^63
    *(("", f"simulate --spots {n}", 1, f"error: spot count {n} is too large: ")
      for n in (99999999999999999999, 3074457345618258603)),
])
def test_overflowing_input_fails_before_output(tmp_path, capsys, body, verb, code, message):
    cfg = tmp_path / "extreme.ini"
    cfg.write_text(body)
    out = tmp_path / "out.tsv"
    assert main([*verb.split(), "--config", str(cfg), "--out", str(out)]) == code
    assert not list(tmp_path.glob("out.tsv*"))
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and message in err[0]


@pytest.mark.parametrize("verb", [("sweep", "--axis", "gd_density"), ("sensitivity",)])
def test_density_grid_beyond_tau_c_bound_rejected(fast_config, tmp_path, capsys, verb):
    # at 1e32 /m^3 the molecular rate exceeds 1e15 /s: tau_c below 1 fs is
    # outside the forward model, for a sweep and a sensitivity curve alike
    out = tmp_path / "grid.tsv"
    assert main([verb[0], "--config", str(fast_config), *verb[1:],
                 "--grid", "1e23:1e32:50:log", "--out", str(out)]) == 1
    assert not list(tmp_path.glob("grid.tsv*"))
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and "tau_c must lie in [1e-15, 1000] s" in err[0]


@pytest.mark.parametrize("argv", [
    ["t1", "--config", "{cfg}", "--out", "{out}"],
    ["sweep", "--config", "{fast}", "--axis", "diameter", "--grid", "1e-300,25e-9",
     "--out", "{out}"],
])
def test_underflowing_diameter_is_a_parameter_error(fast_config, tmp_path, capsys, argv):
    # at 1e-300 nm the particle radius**4 underflows to 0; a config and a
    # sweep grid meet the same check, before any output
    cfg = tmp_path / "tiny.ini"
    cfg.write_text("[particle]\ndiameter_nm = 1e-300\n")
    out = tmp_path / "out.txt"
    argv = [a.format(cfg=cfg, fast=fast_config, out=out) for a in argv]
    assert main(argv) == 1
    assert not list(tmp_path.glob("out.txt*"))
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err.splitlines()
    assert len(err) == 1 and re.match(r"error: diameter 1e-30\d m is too small", err[0])


@pytest.mark.parametrize("argv", [
    ["t1", "--config", "{cfg}", "--out", "{out}"],
    ["sweep", "--config", "{cfg}", "--axis", "gd_density", "--grid", "1e23:1e25:3:log",
     "--out", "{out}"],
])
def test_overflowing_bulk_rate_is_a_parameter_error(tmp_path, capsys, argv):
    # 1 / t1_bulk overflows to inf at 5e-324 s, which made t1_s = 0 rows
    cfg = tmp_path / "fast_bulk.ini"
    cfg.write_text("[environment]\nt1_bulk_ms = 5e-321\n")
    out = tmp_path / "out.txt"
    assert main([a.format(cfg=cfg, out=out) for a in argv]) == 1
    assert not list(tmp_path.glob("out.txt*"))
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: t1_bulk 5e-324 s is too small: its reciprocal overflows\n"


@pytest.mark.parametrize("section, key", [("solvent", "a_s_water_nm"),
                                          ("particle", "diameter_nm")])
@pytest.mark.parametrize("verb", ["t1", "simulate"])
def test_value_that_underflows_its_unit_shift_leaves_no_output(tmp_path, capsys,
                                                                section, key, verb):
    # 5e-324 nm is 5e-333 m, below the smallest double: once read as 0
    cfg = tmp_path / "tiny.ini"
    cfg.write_text(f"[{section}]\n{key} = 5e-324\n")
    out = tmp_path / "out"
    assert main([verb, "--config", str(cfg), "--out", str(out)]) == 1
    assert sorted(tmp_path.iterdir()) == [cfg]
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"error: {cfg}: bad value for [{section}] {key}: "
                            "'5e-324' underflows a double to 0\n")


def test_tau_span_factor_above_100_leaves_no_output(tmp_path, capsys):
    cfg = tmp_path / "long.ini"
    cfg.write_text("[measurement]\ntau_span_factor = 1e300\n")
    out = tmp_path / "sim"
    assert main(["simulate", "--config", str(cfg), "--spots", "2",
                 "--out", str(out)]) == 1
    assert not out.exists()
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err.splitlines()
    assert len(err) == 1 and err[0].startswith(
        "error: [measurement] tau_span_factor must be in (0, 100]")


def test_simulate_negative_seed_names_the_flag(fast_config, tmp_path, capsys):
    # --seed overrides [random] seed, so the error names the flag, not the key
    out = tmp_path / "sim"
    assert main(["simulate", "--config", str(fast_config), "--seed", "-1",
                 "--out", str(out)]) == 1
    assert not out.exists()
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: --seed must be >= 0, got -1\n"


# the contract below runs every verb that reads a config on one of two
# bases, with a short acquisition, and one key changed: the shipped
# gd_water_25nm config, and the default Scenario, which has no molecular
# bath (gd_density = 0), so that its surface bath and bulk rate stand alone
CONTRACT_BASES = {name: serialize_scenario(replace(sc, shots_per_point=2000)) for name, sc in (
    ("gd_water_25nm",
     parse_config(Path(__file__).resolve().parents[1] / "configs" / "gd_water_25nm.ini")),
    ("no_molecular_bath", Scenario(gd_density=0.0)))}
CONTRACT_VERBS = {
    "t1": ["t1"],
    "sweep": ["sweep", "--axis", "water_fraction", "--grid", "0:1:5"],
    "simulate": ["simulate", "--spots", "3"],
    "sensitivity": ["sensitivity"],
}
# as a file spells them: zeros, unit-scale values, magnitudes at the ends of
# the double range, the words for non-finite values and an integer past int64
EXTREME_TEXTS = ("0", "-0", "-1", "0.5", "1", "100.0000001", "5e-324", "1e-300", "1e300",
                 "1.7e308", "nan", "inf", "-inf", "9223372036854775808")


def _with_value(text: str, section: str, key: str, value: str) -> str:
    """serialize_scenario text, which spells every key, with one key's
    value replaced."""
    lines, current = [], None
    for line in text.splitlines():
        if line.startswith("["):
            current = line.strip("[]")
        elif current == section and line.partition(" = ")[0] == key:
            line = f"{key} = {value}"
        lines.append(line)
    return "\n".join(lines) + "\n"


def _numbers(text: str):
    """Every token of text that reads as a float, json's NaN included."""
    for token in re.split(r'[\s,:=\[\]{}"]+', text):
        try:
            yield float(token)
        except ValueError:
            pass


def _finite_output(path: Path) -> bool:
    """Whether a data file holds only finite numbers; a fit that did not
    converge records NaN for what it could not estimate, by contract."""
    text = path.read_text()
    if path.name.endswith("_fit.json") and not json.loads(text)["converged"]:
        return math.isfinite(json.loads(text)["t1_true_s"])
    return all(map(math.isfinite, _numbers(text)))


@settings(max_examples=80, deadline=None)
@given(base=st.sampled_from(sorted(CONTRACT_BASES)), verb=st.sampled_from(sorted(CONTRACT_VERBS)),
       entry=st.sampled_from(sorted(_SCHEMA)), value=st.sampled_from(EXTREME_TEXTS))
# 2s overflows to inf: the half-integer test's round(inf) was exit 2
@example(base="gd_water_25nm", verb="t1", entry=("molecular_bath", "spin"), value="1e308")
@example(base="gd_water_25nm", verb="t1", entry=("surface_bath", "spin"), value="1.7e308")
# a dark-time grid past 100 T1, rejected before the output directory
@example(base="gd_water_25nm", verb="simulate", entry=("measurement", "tau_span_factor"),
         value="1e300")
# a zero rate, checked before its inverse is taken
@example(base="gd_water_25nm", verb="t1", entry=("surface_bath", "fluctuation_rate_ghz"),
         value="-0")
# a T1 search that reaches a T1 whose square underflows: the fit's
# Jacobian warned of a division by zero, a traceback under -W error
@example(base="gd_water_25nm", verb="simulate", entry=("measurement", "tau_min_us"),
         value="1e-300")
# without a molecular bath, a temperature that makes the molecular rate
# overflow must still fail typed, not print gd_rate_trans_per_s = inf
@example(base="no_molecular_bath", verb="t1", entry=("environment", "temperature_k"),
         value="1.7e308")
def test_every_verb_fails_typed_or_writes_finite_output(base, verb, entry, value):
    section, key = entry
    _, to_si, _, (ok, what) = _SCHEMA[entry]
    try:
        outside = not ok(to_si(value))
    except ValueError:
        outside = None  # the value does not parse
    with tempfile.TemporaryDirectory() as tmp:
        cfg = Path(tmp) / "extreme.ini"
        cfg.write_text(_with_value(CONTRACT_BASES[base], section, key, value))
        out = Path(tmp) / "out"
        stdout, stderr = io.StringIO(), io.StringIO()
        with redirect_stdout(stdout), redirect_stderr(stderr):
            code = main([*CONTRACT_VERBS[verb], "--config", str(cfg), "--out", str(out)])
        written = sorted(p for p in Path(tmp).rglob("*") if p != cfg)
        assert code in (0, 1, 2)
        if code == 0:
            assert outside is False
            for path in written:
                if path.is_file() and not path.name.endswith("manifest.json"):
                    assert _finite_output(path), path
            assert all(map(math.isfinite, _numbers(stdout.getvalue())))
            return
        # one line, no traceback, and no output path
        err = stderr.getvalue().splitlines()
        assert len(err) == 1
        assert err[0].startswith("error: " if code == 1 else "numerical failure: ")
        assert stdout.getvalue() == "" and written == []
        if outside:
            assert code == 1
            assert err[0].startswith(f"error: [{section}] {key} must be {what}, got ")
        elif outside is None:
            assert code == 1 and f"[{section}] {key}" in err[0]
