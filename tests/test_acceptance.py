"""End-to-end acceptance checks.

Each test prints one PASS/FAIL line straight to the terminal (bypassing
pytest's capture) and then asserts, so a plain `pytest -v` run shows both
the live verdict lines and the test outcomes.
"""

import json
import math
import sys
from pathlib import Path

import numpy as np

from rbmrelax.cli import main as cli_main
from rbmrelax.constants import OMEGA_0
from rbmrelax.core_relax import NoiseSource, rate_contribution
from rbmrelax.bath import (
    ParticleGeometry,
    SurfaceBath,
    VolumeBath,
    b_perp_sq_surface,
    b_perp_sq_volume,
)
from rbmrelax.hydro import microviscosity_factor, rbm_rate
from rbmrelax.measure_sim import (
    default_dark_times,
    MeasurementPlan,
    fit_curves,
    simulate_curve,
)
from rbmrelax.scenario import (
    MOLECULE_RADIUS_CAL,
    OPTIMAL_DENSITY_CAL,
    Scenario,
    density_sensitivity_curve,
    predict,
)
from rbmrelax.sensitivity import SensitivityInputs, delta_r_min
from rbmrelax.validation import check_bath_mc, check_sensitivity_ratio

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tools"))
from calibrate import calibrate_surface  # noqa: E402

SEED = 20260822


def report(capsys, name, ok, detail):
    with capsys.disabled():
        print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
    return ok


def test_01_acetone_rotational_anchor(capsys):
    rate = rbm_rate(Scenario().hydro_at(x=0.0))
    ok = abs(rate / 14.2e9 - 1.0) <= 0.05
    assert report(capsys, "acetone rotational rate",
                  ok, f"{rate / 1e9:.3f} GHz (target 14.2 GHz +- 5%)")


def test_02_mixture_rate_range(capsys):
    sc = Scenario()
    rates = [rbm_rate(sc.hydro_at(x=float(x)))
             for x in np.linspace(0.046, 1.0, 200)]
    lo, hi = min(rates), max(rates)
    ok = abs(lo / 2e9 - 1.0) <= 0.30 and abs(hi / 14e9 - 1.0) <= 0.30
    assert report(capsys, "mixture rate range", ok,
                  f"{lo / 1e9:.2f}..{hi / 1e9:.2f} GHz "
                  "(targets 2 and 14 GHz +- 30%)")


def test_03_bare_particle_baseline(capsys):
    t1 = predict(Scenario())["t1_s"]
    sigma = calibrate_surface(130e-6, 25e-9, t1_bulk=3e-3)
    sigma_nm2 = sigma * 1e-18
    ok = abs(t1 / 130e-6 - 1.0) <= 0.10 and 0.5 <= sigma_nm2 <= 2.0
    assert report(capsys, "bare particle baseline", ok,
                  f"t1 = {t1 * 1e6:.2f} us (target 130 +- 10%), "
                  f"surface density = {sigma_nm2:.2f} /nm^2 "
                  "(target within 2x of 1)")


def test_04_sensitivity_optimum_anchors(capsys):
    c20 = density_sensitivity_curve(Scenario(diameter=20e-9))
    c25 = density_sensitivity_curve(Scenario(diameter=25e-9))
    ratio = c25.delta_min / c20.delta_min
    ok = (abs(c20.delta_min / 6.9e9 - 1.0) <= 0.25
          and abs(c25.delta_min / 9.6e9 - 1.0) <= 0.25
          and abs(ratio / 1.39 - 1.0) <= 0.10
          and abs(c20.rate_at_min / 60.2e9 - 1.0) <= 0.25
          and not c20.boundary_warning and not c25.boundary_warning)
    assert report(capsys, "sensitivity optima", ok,
                  f"minima {c20.delta_min / 1e9:.2f} / "
                  f"{c25.delta_min / 1e9:.2f} GHz "
                  "(targets 6.9 / 9.6 GHz +- 25%), "
                  f"ratio {ratio:.3f} (target 1.39 +- 10%), "
                  f"rate at optimum {c20.rate_at_min / 1e9:.1f} GHz "
                  "(target 60.2 +- 25%)")


def test_05_monte_carlo_bath_oracle(capsys):
    check = check_bath_mc()
    d = check.details
    assert report(capsys, "dipolar field Monte Carlo", check.passed,
                  f"surface z = {d['surface_z']:.2f}, "
                  f"volume z = {d['volume_z']:.2f} (band 3.0), "
                  f"stderr slope = {d['stderr_slope']:.3f} "
                  "(target -0.5 +- 0.05)")


def test_06_fit_calibration_study(capsys):
    t1_true = 130e-6
    plan = MeasurementPlan(dark_times=default_dark_times(t1_true),
                           shots_per_point=2_000_000,
                           detection_window=500e-9, photon_rate=1e5,
                           contrast=0.2)
    rngs = [np.random.default_rng(c) for c in np.random.SeedSequence(SEED).spawn(250)]
    fits = fit_curves(*simulate_curve(np.full(250, t1_true), rngs, plan))
    hats = fits["t1_hat_s"][fits["converged"]]
    errs = fits["t1_stderr_s"][fits["converged"]]
    n = hats.size
    bias = float(hats.mean() - t1_true)
    se_combined = math.sqrt(float((errs**2).sum())) / n
    pull_var = float(((hats - t1_true) / errs).var())
    ok = (n >= 200 and abs(bias) < 0.5 * se_combined
          and 0.8 <= pull_var <= 1.2)
    assert report(capsys, "fit calibration", ok,
                  f"{n} replicates, |bias| = {abs(bias) / se_combined:.2f} "
                  "combined se (limit 0.5), "
                  f"pull variance = {pull_var:.3f} (target 1 +- 0.2)")


def test_07_sensitivity_formula_vs_oracle(capsys):
    check = check_sensitivity_ratio()
    d = check.details
    assert report(capsys, "detectability formula vs numerical oracle",
                  check.passed,
                  f"ratio {d['mean_ratio']:.5f} off the expected constant "
                  f"{d['expected_constant_offset']:.5f} by "
                  f"{abs(d['mean_ratio'] / d['expected_constant_offset'] - 1.0):.2e} and "
                  f"constant to {d['max_relative_deviation']:.2e} over "
                  f"{d['points_used']} rates (limit 1e-12 each)")


def test_08_property_suite(capsys, tmp_path):
    failures = []

    from rbmrelax.validation import check_lorentzian_quadrature

    if not check_lorentzian_quadrature().passed:
        failures.append("lorentzian normalization")

    grid = OMEGA_0 * np.array([0.1, 0.5, 1.0, 2.0, 10.0])
    curve = rate_contribution(NoiseSource(b_perp_sq=1e-9, tau_c=1.0 / grid))
    if grid[curve.argmax()] != OMEGA_0:
        failures.append("narrowing peak not at resonance")

    fr = [microviscosity_factor(0.5e-9, u * 0.5e-9)
          for u in (0.0, 0.1, 0.5, 1.0, 3.0)]
    if fr[0] != 1.0 or any(not (0.0 < v <= 1.0) for v in fr):
        failures.append("microviscosity bounds")

    geom = ParticleGeometry(25e-9)
    s1 = b_perp_sq_surface(geom, SurfaceBath(areal_density=1e18))
    s3 = b_perp_sq_surface(geom, SurfaceBath(areal_density=3e18))
    v1 = b_perp_sq_volume(geom, VolumeBath(number_density=1e26))
    v3 = b_perp_sq_volume(geom, VolumeBath(number_density=3e26))
    if abs(s3 / (3.0 * s1) - 1.0) > 1e-12 or abs(v3 / (3.0 * v1) - 1.0) > 1e-12:
        failures.append("field variance linearity")

    ref = SensitivityInputs(contrast=0.2, photon_rate=1e5,
                            detection_window=500e-9, acquisition_time=10.0,
                            b_perp_sq=1e-8, r_total=10.0 * OMEGA_0)
    from dataclasses import replace

    if abs(delta_r_min(replace(ref, acquisition_time=40.0))
           / (0.5 * delta_r_min(ref)) - 1.0) > 1e-12:
        failures.append("averaging-time scaling")
    traded = replace(ref, contrast=0.1, photon_rate=4e5)
    if abs(delta_r_min(traded) / delta_r_min(ref) - 1.0) > 1e-12:
        failures.append("contrast-rate tradeoff")

    cfg = tmp_path / "tiny.ini"
    cfg.write_text("[measurement]\nshots_per_point = 5000\n"
                   "n_dark_times = 8\n[random]\nseed = 7\n")
    for out in ("rerun_a", "rerun_b"):
        code = cli_main(["simulate", "--config", str(cfg), "--spots", "4",
                        "--out", str(tmp_path / out)])
        if code != 0:
            failures.append("simulate exit code")
    a, b = tmp_path / "rerun_a", tmp_path / "rerun_b"
    for rel in sorted(p.relative_to(a) for p in a.rglob("*") if p.is_file()):
        if rel.name == "manifest.json":
            continue  # carries a timestamp
        if (a / rel).read_bytes() != (b / rel).read_bytes():
            failures.append(f"rerun differs: {rel}")
    capsys.readouterr()  # swallow the simulate console chatter

    ok = not failures
    assert report(capsys, "property suite", ok,
                  "normalization, narrowing peak, microviscosity bounds, "
                  "linearity, scaling identities, rerun byte-identity"
                  if ok else "; ".join(failures))


def test_09_two_solvent_demo(capsys, tmp_path):
    configs = Path(__file__).resolve().parents[1] / "configs"
    water = configs / "gd_water_25nm.ini"
    acetone = configs / "gd_acetone_x046_25nm.ini"
    out = tmp_path / "demo"
    code = cli_main(["simulate", "--config", str(water), "--config",
                     str(acetone), "--spots", "40", "--out", str(out)])
    capsys.readouterr()
    summary = json.loads((out / "summary.json").read_text())
    g_water = summary["conditions"]["gd_water_25nm"]["gaussian"]
    g_acetone = summary["conditions"]["gd_acetone_x046_25nm"]["gaussian"]
    z = summary["separation"]["z_geometric"]

    from rbmrelax.scenario import parse_config

    sc = parse_config(water)
    ok = (code == 0 and g_acetone["mean_t1_s"] > g_water["mean_t1_s"]
          and z > 2.0)
    assert report(capsys, "two-solvent separation demo", ok,
                  f"t1 acetone-rich {g_acetone['mean_t1_s'] * 1e6:.2f} us > "
                  f"water {g_water['mean_t1_s'] * 1e6:.2f} us, "
                  f"z = {z:.2f} at 40 spots "
                  f"(demo jitter: diameter {sc.diameter_jitter:g}, "
                  f"density {sc.density_jitter:g})")
