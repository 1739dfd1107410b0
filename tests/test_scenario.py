import math
import re
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from rbmrelax.constants import GAMMA_E, OMEGA_0
from rbmrelax.errors import ConfigError, ParameterError, SingularityError
from rbmrelax.measure_sim import simulate_curve
from rbmrelax.sensitivity import SensitivityInputs, induced_rate
from rbmrelax.scenario import (
    _SCHEMA,
    OPTIMAL_DENSITY_CAL,
    Scenario,
    config_hash,
    density_sensitivity_curve,
    draw_spots,
    measurement_plan,
    parse_config,
    predict,
    scenario_from_text,
    serialize_scenario,
)

CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"


def test_bare_particle_t1_anchor():
    # default scenario is the calibration target itself
    assert predict(Scenario())["t1_s"] == pytest.approx(130e-6, rel=1e-12)


def test_loaded_particle_t1_regression():
    sc = Scenario(gd_density=OPTIMAL_DENSITY_CAL)
    assert predict(sc)["t1_s"] == pytest.approx(4.371478092387226e-05, rel=1e-12)


def test_prediction_bookkeeping():
    d = predict(Scenario(gd_density=OPTIMAL_DENSITY_CAL))
    # one flat mapping, in the order of the t1 report
    assert list(d) == [
        "t1_s", "rate_total_per_s", "rate_bulk_per_s",
        "rate_source_molecular_per_s", "rate_source_surface_per_s",
        "gd_rate_dip_per_s", "gd_rate_vib_per_s", "gd_rate_trans_per_s",
        "gd_rate_rot_per_s", "gd_rate_total_per_s",
        "b_perp_sq_surface_t2", "b_perp_sq_molecular_t2", "viscosity_pa_s",
        "microviscosity_factor", "x_water", "diameter_m", "gd_density_per_m3",
        "surface_density_per_m2"]
    total = (d["rate_bulk_per_s"] + d["rate_source_molecular_per_s"]
             + d["rate_source_surface_per_s"])
    assert d["rate_total_per_s"] == pytest.approx(total, rel=1e-14)
    assert d["gd_rate_total_per_s"] == pytest.approx(
        d["gd_rate_dip_per_s"] + d["gd_rate_vib_per_s"] + d["gd_rate_trans_per_s"]
        + d["gd_rate_rot_per_s"], rel=1e-14)
    assert d["t1_s"] == 1.0 / d["rate_total_per_s"]
    bare = predict(Scenario())
    assert [k for k in bare if k.startswith("rate_source_")] == ["rate_source_surface_per_s"]
    assert bare["b_perp_sq_molecular_t2"] == 0.0


GAMMA_PROTON = 2.675222e8  # rad/(s*T)


def test_every_source_couples_through_the_sensor_gamma():
    # proton baths: their gamma sets their moment, and so their field
    # variance, but each field relaxes the NV electron through GAMMA_E
    sc = replace(parse_config(CONFIG_DIR / "gd_water_25nm.ini"),
                 gd_gamma=GAMMA_PROTON, surface_gamma=GAMMA_PROTON)
    d = predict(sc)
    for name, r in (("surface", sc.surface_rate), ("molecular", d["gd_rate_total_per_s"])):
        b2 = d[f"b_perp_sq_{name}_t2"]
        expected = 3.0 * GAMMA_E**2 * b2 * r / (r**2 + OMEGA_0**2)
        assert d[f"rate_source_{name}_per_s"] == pytest.approx(expected, rel=1e-12), name
    inp = SensitivityInputs(contrast=sc.contrast, photon_rate=sc.photon_rate,
                            detection_window=sc.detection_window,
                            acquisition_time=sc.acquisition_time,
                            b_perp_sq=d["b_perp_sq_molecular_t2"],
                            r_total=d["gd_rate_total_per_s"])
    assert d["rate_source_molecular_per_s"] == pytest.approx(
        induced_rate(inp, inp.r_total), rel=1e-12)


@pytest.mark.parametrize("attr, name", [("gd_gamma", "molecular"),
                                        ("surface_gamma", "surface")])
def test_source_rate_scales_as_the_bath_gamma_squared(attr, name):
    # the bath's gamma enters once, squared, through its moment
    sc = Scenario(gd_density=OPTIMAL_DENSITY_CAL)
    k = 0.25
    scaled = predict(replace(sc, **{attr: k * GAMMA_E}))[f"rate_source_{name}_per_s"]
    assert scaled / predict(sc)[f"rate_source_{name}_per_s"] == pytest.approx(k**2, rel=1e-12)


def test_predict_overrides_match_replaced_scenario():
    sc = Scenario()
    over = predict(sc, gd_density=1e25, x_water=0.5, diameter=30e-9)
    rebuilt = predict(replace(sc, gd_density=1e25, x_water=0.5, diameter=30e-9))
    assert over["t1_s"] == pytest.approx(rebuilt["t1_s"], rel=1e-14)
    assert over["viscosity_pa_s"] == rebuilt["viscosity_pa_s"]


def test_scenario_validation():
    with pytest.raises(ParameterError):
        Scenario(x_water=1.5)
    with pytest.raises(ParameterError):
        Scenario(diameter=-25e-9)
    with pytest.raises(ParameterError):
        Scenario(contrast=0.0)
    with pytest.raises(ParameterError):
        Scenario(n_dark_times=3)
    with pytest.raises(ParameterError):
        Scenario(density_jitter=-0.01)


@pytest.mark.parametrize("value", ["1", "-0.5", "nan"])
def test_sensor_offset_rejected_when_read(value):
    # the closed forms of predict hold for a centered sensor only; the key
    # stays in the schema at 0
    with pytest.raises(ParameterError, match=r"^\[particle\] sensor_offset_nm must be 0 "):
        scenario_from_text(f"[particle]\nsensor_offset_nm = {value}\n")
    assert scenario_from_text("[particle]\nsensor_offset_nm = 0\n") == Scenario()


@pytest.mark.parametrize("value", ["100.0000001", "1e300", "inf"])
def test_tau_span_factor_above_100_rejected_when_read(value):
    with pytest.raises(ParameterError,
                       match=r"^\[measurement\] tau_span_factor must be in \(0, 100\] "):
        scenario_from_text(f"[measurement]\ntau_span_factor = {value}\n")
    assert scenario_from_text("[measurement]\ntau_span_factor = 100\n").tau_span_factor == 100.0


@pytest.mark.parametrize("value", ["0", "-0", "0.0"])
def test_zero_surface_rate_rejected_when_read(value):
    # checked positive before its inverse is taken; -0 and 0.0 read as 0
    with pytest.raises(ParameterError, match=r"^\[surface_bath\] fluctuation_rate_ghz must be "
                       r"> 0 with a correlation time 1/R in \[1e-15, 1000\] s, got 0$"):
        scenario_from_text(f"[surface_bath]\nfluctuation_rate_ghz = {value}\n")


_TINY = 5e-324
_MAX = sys.float_info.max
# each range a schema key can declare, by the text its message quotes: the
# SI values on its edges inside it, and the values just outside
DOMAIN_EDGES = {
    "finite and > 0": ([_TINY, _MAX], [0.0, -_TINY, math.inf]),
    "finite and >= 0": ([0.0, _MAX], [-_TINY, math.inf]),
    "finite and nonzero": ([_TINY, -_TINY, _MAX, -_MAX], [0.0, math.inf, -math.inf]),
    "in [0, 1]": ([0.0, 1.0], [-_TINY, math.nextafter(1.0, 2.0)]),
    "in (0, 1)": ([_TINY, math.nextafter(1.0, 0.0)], [0.0, 1.0]),
    "a positive half-integer": ([0.5, 3.5, 2**52], [0.0, -0.5, 0.5 + 1e-8, 1.7e308]),
    "0 (the bath closed forms assume a centered sensor)": ([0.0, -0.0], [_TINY, -_TINY]),
    "> 0 with a correlation time 1/R in [1e-15, 1000] s": (
        [1e-3, 1e15], [math.nextafter(1e-3, 0.0), math.nextafter(1e15, math.inf), 0.0]),
    "in (0, 100] (a grid to 100 T1 already samples e^-100 of the decay)": (
        [_TINY, 100.0], [0.0, math.nextafter(100.0, math.inf)]),
    "an integer >= 0": ([0, 2**63], [-1]),
    "an integer >= 1": ([1], [0]),
    "an integer >= 4": ([4], [3]),
}
# the keys that take any value
UNCHECKED = {("solvent", "table_path"), ("measurement", "include_reference")}


def _spelled(to_text, value) -> str:
    """value as a config file spells it; a non-finite float by its repr."""
    return repr(value) if isinstance(value, float) and not math.isfinite(value) \
        else to_text(value)


def test_every_schema_key_declares_a_domain():
    for entry, (_, _, _, (ok, what)) in _SCHEMA.items():
        assert callable(ok)
        assert what in DOMAIN_EDGES or (entry in UNCHECKED and ok(None))


@pytest.mark.parametrize("section, key", sorted(set(_SCHEMA) - UNCHECKED))
def test_schema_domain_edges(section, key):
    # a value just outside the key's range, read from a file, names
    # [section] key and quotes the value as the file spells it
    attr, _, to_text, (_, what) = _SCHEMA[(section, key)]
    inside, outside = DOMAIN_EDGES[what]
    for value in outside:
        text = _spelled(to_text, value)
        message = f"[{section}] {key} must be {what}, got {text}"
        with pytest.raises(ParameterError, match=f"^{re.escape(message)}$"):
            scenario_from_text(f"[{section}]\n{key} = {text}\n")
    # NaN lies outside every range, from a library caller as from a file
    message = f"[{section}] {key} must be {what}, got nan"
    with pytest.raises(ParameterError, match=f"^{re.escape(message)}$"):
        Scenario(**{attr: math.nan})
    for value in inside:
        try:
            sc = scenario_from_text(f"[{section}]\n{key} = {_spelled(to_text, value)}\n")
        except ParameterError as exc:
            # only the diameter has a bound past its range: the radius**4
            # that the surface field divides by
            assert attr == "diameter" and "radius**4" in str(exc)
        else:
            assert getattr(sc, attr) == value


def test_serialize_parse_roundtrip():
    sc = Scenario(gd_density=3.2e25, x_water=0.25, diameter=40e-9,
                  seed=777, density_jitter=0.01)
    again = scenario_from_text(serialize_scenario(sc))
    assert again == sc


def test_config_hash_canonical():
    sc = Scenario(gd_density=3.2e25)
    text = serialize_scenario(sc)
    # shuffle key lines within one section; semantics unchanged
    lines = text.splitlines()
    i = lines.index("[measurement]")
    j = next(k for k in range(i + 1, len(lines)) if not lines[k].strip())
    block = lines[i + 1:j]
    reordered = lines[:i + 1] + block[::-1] + lines[j:]
    shuffled = scenario_from_text("\n".join(reordered))
    assert shuffled == sc
    assert config_hash(shuffled) == config_hash(sc)
    assert config_hash(replace(sc, seed=1)) != config_hash(sc)


def test_parse_config_errors(tmp_path):
    bad_key = tmp_path / "k.ini"
    bad_key.write_text("[particle]\ndiamter_nm = 25\n")
    with pytest.raises(ConfigError, match="valid keys.*diameter_nm"):
        parse_config(bad_key)

    bad_section = tmp_path / "s.ini"
    bad_section.write_text("[partical]\ndiameter_nm = 25\n")
    with pytest.raises(ConfigError, match=r"unknown section \[partical\]"):
        parse_config(bad_section)

    bad_value = tmp_path / "v.ini"
    bad_value.write_text("[particle]\ndiameter_nm = big\n")
    with pytest.raises(ConfigError, match=r"bad value for \[particle\]"):
        parse_config(bad_value)

    missing_table = tmp_path / "t.ini"
    missing_table.write_text("[solvent]\ntable_path = nope.txt\n")
    with pytest.raises(ConfigError, match="does not exist"):
        parse_config(missing_table)

    with pytest.raises(ConfigError, match="cannot read"):
        parse_config(tmp_path / "absent.ini")


def test_shipped_configs_parse():
    paths = sorted(CONFIG_DIR.glob("*.ini"))
    assert len(paths) >= 4
    for path in paths:
        sc = parse_config(path)
        assert predict(sc)["t1_s"] > 0.0


def test_config_units_scale_exactly(tmp_path):
    cfg = tmp_path / "u.ini"
    cfg.write_text("[particle]\ndiameter_nm = 37\n"
                   "[measurement]\ntau_min_us = 2.5\n"
                   "[environment]\nt1_bulk_ms = 4\n")
    sc = parse_config(cfg)
    assert sc.diameter == 37e-9
    assert sc.tau_min == 2.5e-6
    assert sc.t1_bulk == 4e-3


def test_draw_spots_zero_jitter_is_deterministic():
    sc = Scenario(gd_density=OPTIMAL_DENSITY_CAL)
    t1, rngs = draw_spots(sc, np.random.SeedSequence(0), 4)
    assert t1.shape == (4,) and len(rngs) == 4
    assert t1 == pytest.approx(predict(sc)["t1_s"], rel=1e-14)


def test_draw_spots_jitter_spreads():
    sc = Scenario(gd_density=OPTIMAL_DENSITY_CAL, diameter_jitter=0.05,
                  density_jitter=0.05)
    t1, _ = draw_spots(sc, np.random.SeedSequence(1), 50)
    assert np.std(t1) > 0.0
    again, _ = draw_spots(sc, np.random.SeedSequence(1), 50)
    assert again.tolist() == t1.tolist()
    with pytest.raises(ParameterError, match="need >= 2 spots, got 1"):
        draw_spots(sc, np.random.SeedSequence(1), 1)


def _scalar_spots(sc, stream, n_spots):
    # the per-spot reference: the same three draws per spawned child, then
    # one scalar predict per spot
    t1, states = [], []
    for child in stream.spawn(n_spots):
        rng = np.random.default_rng(child)
        d = sc.diameter * math.exp(rng.normal(0.0, sc.diameter_jitter))
        n = sc.gd_density * math.exp(rng.normal(0.0, sc.density_jitter))
        sigma = sc.surface_density * math.exp(rng.normal(0.0, sc.density_jitter))
        t1.append(predict(sc, gd_density=n, diameter=d, surface_density=sigma)["t1_s"])
        states.append(rng.bit_generator.state)
    return np.array(t1), states


@pytest.mark.parametrize("name", ["gd_water_25nm", "gd_acetone_x046_25nm"])
def test_draw_spots_matches_scalar_predict(name):
    sc = parse_config(CONFIG_DIR / f"{name}.ini")
    t1, rngs = draw_spots(sc, np.random.SeedSequence(sc.seed, spawn_key=(0,)), 500)
    ref, states = _scalar_spots(sc, np.random.SeedSequence(sc.seed, spawn_key=(0,)), 500)
    assert np.std(ref) > 0.0
    np.testing.assert_allclose(t1, ref, rtol=1e-15, atol=0.0)
    # each generator is left just after its spot's three jitter draws
    assert [rng.bit_generator.state for rng in rngs] == states


def test_measurement_plan_wiring():
    sc = Scenario(n_dark_times=8, tau_min=2e-6, tau_span_factor=4.0,
                  shots_per_point=123_456)
    plan = measurement_plan(sc, 100e-6)
    assert len(plan.dark_times) == 8
    assert plan.dark_times[0] == pytest.approx(2e-6)
    assert plan.dark_times[-1] == pytest.approx(4.0 * 100e-6)
    assert plan.shots_per_point == 123_456
    assert plan.contrast == sc.contrast


def test_density_sensitivity_curve_optimum_near_calibration():
    curve = density_sensitivity_curve(Scenario(diameter=20e-9))
    assert not curve.boundary_warning
    # grid-discretized argmin lands within one grid step of the anchor
    assert curve.argmin_density == pytest.approx(OPTIMAL_DENSITY_CAL, rel=0.07)
    assert curve.delta_min == pytest.approx(6.9e9, rel=0.01)


@pytest.mark.parametrize("text, message", [
    ("[particle]\ndiameter_nm = abc\n", r": bad value for \[particle\] diameter_nm: "),
    ("[partical]\ndiameter_nm = 25\n", r": unknown section \[partical\]$"),
    ("[particle]\ndiamter_nm = 25\n", r": unknown key \[particle\] diamter_nm; valid keys: "),
    ("[particle]\ndiameter_nm = 25\ndiameter_nm = 30\n", r"^malformed config: "),
])
def test_config_text_and_file_share_one_parser(tmp_path, text, message):
    path = tmp_path / "c.ini"
    path.write_text(text)
    with pytest.raises(ConfigError, match=message) as from_file:
        parse_config(path)
    with pytest.raises(ConfigError, match=message) as from_text:
        scenario_from_text(text, source=str(path))
    assert str(from_file.value) == str(from_text.value)
    assert str(from_file.value).startswith((str(path), "malformed"))


def test_density_sensitivity_curve_reads_predict():
    sc = Scenario(diameter=20e-9)
    grid = np.geomspace(1e24, 1e27, 31)
    curve = density_sensitivity_curve(sc, grid=grid)
    pred = predict(sc, gd_density=grid)
    assert [p[0] for p in curve.points] == grid.tolist()
    assert [p[1] for p in curve.points] == pred["gd_rate_total_per_s"].tolist()


def test_density_sensitivity_curve_checks_grid_before_physics():
    sc = Scenario(diameter=20e-9)
    with pytest.raises(ParameterError, match="strictly ascending"):
        density_sensitivity_curve(sc, grid=(1e26, 1e25, 1e27))
    with pytest.raises(ParameterError, match=">= 2 positive values"):
        density_sensitivity_curve(sc, grid=(-1e25, 1e26, 1e27))
    # densities whose correlation time drops below 1 fs are outside the
    # forward model's domain, as in a gd_density sweep
    with pytest.raises(ParameterError, match="tau_c must lie in"):
        density_sensitivity_curve(sc, grid=(1e23, 1e27, 1e32))


@pytest.mark.parametrize("text, message", [
    ("[environment]\ntemperature_k = 1e309\n", r"temperature_k: '1e309' overflows a double$"),
    ("[molecular_bath]\ndensity_per_m3 = -2e400\n",
     r"density_per_m3: '-2e400' overflows a double$"),
    ("[particle]\ndiameter_nm = 1e318\n", r"diameter_nm: '1e318' overflows a double$"),
])
def test_config_number_beyond_double_range_rejected(text, message):
    # a finite number that would read as inf is a parse error naming the
    # key; unit shifts apply first, so 1e309 nm (1e300 m) still parses
    with pytest.raises(ConfigError, match=message):
        scenario_from_text(text)
    assert scenario_from_text("[solvent]\na_s_water_nm = 1e309\n").a_s_water == 1e300


@pytest.mark.parametrize("section, key", [("solvent", "a_s_water_nm"),
                                          ("particle", "diameter_nm")])
def test_config_number_that_underflows_its_unit_shift_rejected(section, key):
    # 5e-324 nm is 5e-333 m: a nonzero number the file spells must not read
    # as 0, whose range error would name a value the file does not hold
    with pytest.raises(ConfigError, match=rf"^<string>: bad value for \[{section}\] {key}: "
                                          r"'5e-324' underflows a double to 0$"):
        scenario_from_text(f"[{section}]\n{key} = 5e-324\n")


def test_config_number_on_a_subnormal_or_zero_still_parses():
    # 3e-315 nm lands on the smallest subnormal; a spelled zero stays 0
    assert scenario_from_text("[solvent]\na_s_water_nm = 3e-315\n").a_s_water == 5e-324
    for zero in ("0", "-0", "0e-400"):
        assert scenario_from_text(f"[solvent]\na_s_water_nm = {zero}\n").a_s_water == 0.0


@pytest.mark.parametrize("key", ["a_s_water_nm", "a_s_other_nm"])
@pytest.mark.parametrize("value", ["nan", "inf", "-0.1"])
def test_nonfinite_or_negative_solvent_radius_rejected(key, value):
    # the value as the file spells it, in nm
    with pytest.raises(ParameterError,
                       match=rf"^\[solvent\] {key} must be finite and >= 0, got {value}$"):
        scenario_from_text(f"[solvent]\n{key} = {value}\n")


def _half_integers():
    return st.sampled_from([0.5 * k for k in range(1, 8)])


def _floats(lo, hi):
    return st.floats(min_value=lo, max_value=hi, allow_nan=False, allow_infinity=False)


# every value a config can carry, drawn from inside the valid domain
SCENARIOS = st.builds(
    Scenario,
    diameter=_floats(5e-9, 200e-9),
    surface_density=_floats(0.0, 1e19),
    surface_rate=_floats(1e3, 1e14),
    surface_spin=_half_integers(),
    surface_gamma=_floats(1e6, 1e12),
    gd_density=_floats(0.0, 1e28),
    gd_spin=_half_integers(),
    gd_gamma=_floats(1e6, 1e12),
    standoff=_floats(0.0, 5e-9),
    vibration_rate=_floats(0.0, 1e12),
    kappa_dip=_floats(0.0, 1e-14),
    x_water=_floats(0.0, 1.0),
    viscosity_table=st.sampled_from(["", "tables/custom viscosity.txt"]),
    a_s_water=_floats(0.0, 1e-9),
    a_s_other=_floats(0.0, 1e-9),
    molecule_radius=_floats(1e-11, 1e-8),
    temperature=_floats(1.0, 1000.0),
    t1_bulk=_floats(1e-6, 1.0),
    shots_per_point=st.integers(1, 10**9),
    detection_window=_floats(1e-9, 1e-5),
    photon_rate=_floats(1.0, 1e9),
    contrast=_floats(1e-6, 0.999),
    include_reference=st.booleans(),
    n_dark_times=st.integers(4, 1000),
    tau_min=_floats(1e-9, 1e-3),
    tau_span_factor=_floats(1e-3, 100.0),
    acquisition_time=_floats(1e-3, 1e6),
    density_jitter=_floats(0.0, 1.0),
    diameter_jitter=_floats(0.0, 1.0),
    seed=st.integers(0, 2**63),
)


@settings(max_examples=200, deadline=None)
@given(SCENARIOS)
def test_serialize_parse_roundtrip_property(sc):
    text = serialize_scenario(sc)
    again = scenario_from_text(text)
    assert again == sc
    assert config_hash(again) == config_hash(sc)
    assert serialize_scenario(again) == text


@settings(max_examples=100, deadline=None)
@given(start=_floats(18.0, 20.0),
       steps=st.lists(_floats(1e-3, 0.5), min_size=1, max_size=18),
       diameter=_floats(10e-9, 100e-9), x_water=_floats(0.0, 1.0))
def test_t1_falls_as_gd_density_rises(start, steps, diameter, x_water):
    # one array call over an ascending density grid; the molecular rate
    # contribution n r / (r^2 + omega0^2), with r linear in n, rises with n
    sc = Scenario(diameter=diameter, x_water=x_water)
    grid = 10.0 ** (start + np.cumsum([0.0] + steps))
    t1 = predict(sc, gd_density=grid)["t1_s"]
    assert t1.shape == grid.shape
    assert np.all(np.diff(t1) < 0.0)


# every float key of the config schema, by its Scenario attribute
FLOAT_KEYS = sorted(attr for attr, *_ in _SCHEMA.values()
                    if isinstance(getattr(Scenario(), attr), float))
EXTREMES = (5e-324, 1e-300, 1e-30, 1.0, 1e30, 1e300)
# the errors the CLI maps to exit 1 (bad input) or 2 (numerical failure:
# a numpy overflow under np.errstate, or a resonant singularity); a Python
# OverflowError or ZeroDivisionError is an unchecked input, not typed
TYPED = (ConfigError, ParameterError, FloatingPointError, SingularityError)


def _typed_or(fn, *args, **kwargs):
    """fn(*args, **kwargs), or None when it raises one of the package's
    typed errors."""
    try:
        return fn(*args, **kwargs)
    except TYPED:
        return None


def _finite(*values) -> bool:
    return all(np.isfinite(np.asarray(v, dtype=float)).all() for v in values)


@settings(max_examples=500, deadline=None)
@given(overrides=st.dictionaries(st.sampled_from(FLOAT_KEYS), st.sampled_from(EXTREMES),
                                 min_size=1, max_size=2))
# inputs that once gave a silent inf or NaN: an overflowing bulk rate,
# S(S+1), shot-noise factor and delta_r_min
@example(overrides={"t1_bulk": 5e-324})
@example(overrides={"gd_spin": 1e300})
@example(overrides={"acquisition_time": 5e-324})
@example(overrides={"contrast": 1e-300})
# a Python float power or exp that overflowed (OverflowError): the
# molecule's cube, the particle's radius**4 and a log-normal jitter factor
@example(overrides={"molecule_radius": 1e300})
@example(overrides={"diameter": 1e300})
@example(overrides={"density_jitter": 1e30})
# a Poisson mean past numpy's ceiling (a ValueError from the curve draw)
@example(overrides={"detection_window": 1e30})
def test_extreme_float_keys_fail_typed_or_stay_finite(overrides):
    # one or two float keys at an extreme magnitude, in SI units: each stage
    # either raises a typed error or returns finite numbers, with T1 > 0,
    # never a silent NaN, inf or zero
    sc = _typed_or(Scenario, **overrides)
    if sc is None:
        return
    pred = _typed_or(predict, sc)
    plan = None
    if pred is not None:
        assert _finite(*pred.values()) and pred["t1_s"] > 0.0
        plan = _typed_or(measurement_plan, sc, pred["t1_s"])
        if plan is not None:
            assert _finite(plan.dark_times, plan.detection_window, plan.photon_rate)
    spots = _typed_or(draw_spots, sc, np.random.SeedSequence(0), 2)
    if spots is not None:
        assert _finite(spots[0]) and np.all(spots[0] > 0.0)
        if plan is not None:
            # the two spots' curves under the plan
            curves = _typed_or(simulate_curve, *spots, plan)
            assert curves is None or _finite(*curves)
    curve = _typed_or(density_sensitivity_curve, sc)
    if curve is not None:
        assert _finite(curve.points) and np.all(curve.points > 0.0)
