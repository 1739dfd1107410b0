import json
import math
import re
from pathlib import Path

import numpy as np
import pytest

from rbmrelax.cli import main
from rbmrelax.measure_sim import CURVE_HEADER, simulate_spot_ensemble
from rbmrelax.scenario import draw_spots, measurement_plan, parse_config, predict
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
        ("gd_density", "-1,1e25", "number density must be >= 0, got -1.0"),
        ("water_fraction", "0:1.5:4", "mole fraction must lie in [0, 1], got 1.5"),
        ("diameter", "0,25e-9", "diameter must be positive, got 0.0"),
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
    # simulate fits a condition in one batch, fit one curve alone: every fit
    # field must come out the same, bit for bit, verdict included
    out = tmp_path / "run"
    assert main(["simulate", "--config", str(fast_config), "--spots", "2",
                 "--out", str(out)]) == 0
    for j, (code, converged) in enumerate([(2, False), (0, True)]):
        stored = json.loads((out / "fast" / f"spot_{j:04d}_fit.json").read_text())
        refit_path = tmp_path / f"refit_{j}.json"
        assert main(["fit", str(out / "fast" / f"spot_{j:04d}_curve.tsv"),
                     "--out", str(refit_path)]) == code
        refit = json.loads(refit_path.read_text())
        assert refit["converged"] is converged
        assert same_fields(refit, {key: stored[key] for key in refit})
        assert (refit["message"] == NOT_POSITIVE) is not converged


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
    import rbmrelax.cli as cli_mod

    states = {}
    real_draw_spots = cli_mod.draw_spots

    def recording_draw_spots(sc, stream, n_spots):
        # each spot's generator state before its jitter draws
        states[sc.seed] = [np.random.default_rng(child).bit_generator.state["state"]["state"]
                           for child in stream.spawn(n_spots)]
        return real_draw_spots(sc, stream, n_spots)

    monkeypatch.setattr(cli_mod, "draw_spots", recording_draw_spots)
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
    plan = measurement_plan(sc, predict(sc).t1)
    t1_true, rngs = draw_spots(sc, np.random.SeedSequence(sc.seed, spawn_key=(0,)), 3)
    spots = list(simulate_spot_ensemble(t1_true, rngs, plan))
    assert len(spots) == 3
    for j, spot in enumerate(spots):
        doc = json.loads((out / "fast" / f"spot_{j:04d}_fit.json").read_text())
        rows, _ = read_table(out / "fast" / f"spot_{j:04d}_curve.tsv",
                             CURVE_HEADER, "curve file")
        assert doc["t1_true_s"] == spot.t1_true
        assert rows == spot.curve.points
        assert same_fields({key: doc[key] for key in spot.fit.as_dict()},
                           spot.fit.as_dict())
    assert [s.fit.converged for s in spots] == [False, True, True]


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
    assert len(err) == 1 and err[0].startswith("error: surface_rate must be positive")


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
    off = tmp_path / "off.ini"
    off.write_text("[particle]\nsensor_offset_nm = 1\n")
    assert main(["oracle", "quadrature", "--config", str(off)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err.splitlines()
    assert len(err) == 1 and "sensor_offset must be 0" in err[0]


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
    assert len(err) == 1 and err[0].startswith("error: tau_span_factor must be <= 100")
