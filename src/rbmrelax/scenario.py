"""One complete physical and measurement configuration.

A Scenario bundles the particle, both magnetic baths, the solvent, the
tracked molecule, and the acquisition settings.  predict is the one place
the forward chain is put together: bath fields -> fluctuation rates ->
noise sources -> T1.  Sweeps, spot sampling (draw_spots: every spot of a
condition in one array call) and the density sensitivity curve all read
it by key: predict returns one mapping that names every output once, as
the t1 report prints it and the sweep columns name it.  The solvent
mixture, with its viscosity interpolant, is built once per scenario
(Scenario.mixture).
This module also owns the INI-style config format (strict schema,
unknown keys are errors) and its canonical serialization used for run
hashing.  _SCHEMA declares each key's Scenario attribute, parse, format
and valid range once.  A Scenario value outside its key's range raises a
ParameterError that names [section] key in the file's units, and predict
checks its overrides against the same ranges; the value types of the
other modules check only what they derive.

The calibrated constants below were derived once (see tools/calibrate.py)
and are frozen here so that importing the package never re-runs root searches:

* MOLECULE_RADIUS_CAL: hydrodynamic radius of the magnetic molecule; root
  of rbm_rate(a) = 14.2 GHz in pure acetone at 298 K.
* SURFACE_DENSITY_CAL: areal surface-spin density; closed-form inversion
  of a bare 25 nm particle relaxing at T1 = 130 us against a 3 ms bulk
  background, with the surface fluctuation rate at the response maximum
  (SURFACE_RATE_CAL = omega0 in rate units).
* VIBRATION_RATE_CAL and KAPPA_DIP_CAL: vibrational offset and dipolar
  rate-per-density coefficient of the molecular bath, pinned so the
  minimal-detectable-rate curve of a 20 nm particle bottoms out at
  6.9 GHz with a total rate of 60.2 GHz.
* OPTIMAL_DENSITY_CAL: the density at that optimum; default grid center
  for density sweeps.

Regression tests re-derive each value through tools/calibrate.py.

The bath closed forms hold for a sensor at the particle center, so
sensor_offset ([particle] sensor_offset_nm) must be 0; it stays in the
schema and in the canonical text behind config_hash.
"""

from __future__ import annotations

import configparser
import hashlib
import io
import math
import sys
from dataclasses import dataclass, replace
from decimal import Decimal, InvalidOperation
from functools import cached_property
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from .bath import (
    ParticleGeometry,
    SurfaceBath,
    VolumeBath,
    b_perp_sq_surface,
    b_perp_sq_volume,
    is_spin,
)
from .constants import GAMMA_E, TAU_C_MAX, TAU_C_MIN
from .core_relax import NoiseSource, t1_total
from .errors import ConfigError, ParameterError, allocate, nonnegative, positive, require
from .hydro import (
    A_S_ACETONE_DEFAULT,
    A_S_WATER_DEFAULT,
    HydroParams,
    SolventMixture,
    default_table_path,
    hydro_params_at,
    load_viscosity_table,
    microviscosity_factor,
    rbm_rate,
    total_rate,
    translational_rate,
)

if TYPE_CHECKING:
    from .sensitivity import SensitivityCurve

MOLECULE_RADIUS_CAL = 4.96071985972771303e-10   # m
SURFACE_DENSITY_CAL = 1.60756319173900774e+18   # 1/m^2 (1.61 /nm^2)
SURFACE_RATE_CAL = 18.0e9                       # 1/s
VIBRATION_RATE_CAL = 2.85289116413692436e+10    # 1/s
KAPPA_DIP_CAL = 4.13478003922003705e-16         # (1/s) per (1/m^3)
OPTIMAL_DENSITY_CAL = 6.89475863191954133e+25   # 1/m^3

# Longest dark-time grid, in units of the predicted T1.
MAX_TAU_SPAN_FACTOR = 100.0
# the largest normal draw whose math.exp is finite
_LOG_FLOAT_MAX = math.log(sys.float_info.max)


@dataclass(frozen=True)
class Scenario:
    """Full configuration with calibrated defaults (bare 25 nm particle in
    water; add a molecular bath by setting gd_density)."""

    # particle
    diameter: float = 25e-9
    sensor_offset: float = 0.0
    # surface bath
    surface_density: float = SURFACE_DENSITY_CAL
    surface_rate: float = SURFACE_RATE_CAL
    surface_spin: float = 0.5
    surface_gamma: float = GAMMA_E
    # molecular bath
    gd_density: float = 0.0
    gd_spin: float = 3.5
    gd_gamma: float = GAMMA_E
    standoff: float = 0.0
    vibration_rate: float = VIBRATION_RATE_CAL
    kappa_dip: float = KAPPA_DIP_CAL
    # solvent and molecule
    x_water: float = 1.0
    viscosity_table: str = ""       # "" = table shipped with the package
    a_s_water: float = A_S_WATER_DEFAULT
    a_s_other: float = A_S_ACETONE_DEFAULT
    molecule_radius: float = MOLECULE_RADIUS_CAL
    # environment
    temperature: float = 298.0
    t1_bulk: float = 3e-3
    # measurement
    shots_per_point: int = 200_000
    detection_window: float = 500e-9
    photon_rate: float = 1e5
    contrast: float = 0.2
    include_reference: bool = True
    n_dark_times: int = 12
    tau_min: float = 1e-6
    tau_span_factor: float = 5.0
    acquisition_time: float = 10.0
    # spot-to-spot jitter (relative log-normal spreads, demo-grade)
    density_jitter: float = 0.0
    diameter_jitter: float = 0.0
    # reproducibility
    seed: int = 12345

    def __post_init__(self):
        # each key's valid range is declared once, in _SCHEMA
        for (section, key), (attr, _, to_text, (ok, what)) in _SCHEMA.items():
            v = getattr(self, attr)
            if not ok(v):
                shown = repr(v) if isinstance(v, float) and not math.isfinite(v) else to_text(v)
                raise ParameterError(f"[{section}] {key} must be {what}, got {shown}")
        # the radius**4 bounds that the surface field derives from the diameter
        ParticleGeometry(diameter=self.diameter)

    @cached_property
    def mixture(self) -> SolventMixture:
        """The solvent, built and validated once per scenario."""
        table = load_viscosity_table(self.viscosity_table or default_table_path())
        return SolventMixture(viscosity_table=table, a_s_water=self.a_s_water,
                              a_s_other=self.a_s_other)

    def hydro_at(self, x) -> HydroParams:
        """Hydrodynamic inputs at water mole fraction x (scalar or array)."""
        return hydro_params_at(self.mixture, self.molecule_radius, self.temperature, x=x)


def predict(sc: Scenario, *, gd_density=None, x_water=None, diameter=None,
            surface_density=None) -> dict:
    """Predict T1 and every intermediate quantity for a scenario.

    Returns one mapping under the names of the t1 report and the sweep
    columns, in the report's order: t1_total's T1 and rates, the molecular
    bath's fluctuation rates (total_rate's, as gd_rate_<name>_per_s), then
    the fields, viscosity and inputs.  With array overrides every value is
    an array that broadcasts against the others: a value holds the shape
    of the inputs it depends on.

    Keyword overrides evaluate other parameter points without rebuilding
    the scenario; they are how sweeps and spot jitter are implemented.
    Each may be a scalar or an array, and arrays broadcast against each
    other, so a whole sweep is one call.  Each override element is checked
    against its config key's range; a numerical overflow raises
    FloatingPointError rather than leaving an inf or NaN in the result.
    """
    for name, value in (("diameter", diameter), ("surface_density", surface_density),
                        ("gd_density", gd_density), ("x_water", x_water)):
        if value is not None:
            ok, what = _RANGE[name]
            require(ok(value), f"{name} must be {what}, got {{!r}}", value)
    n = sc.gd_density if gd_density is None else gd_density
    x = sc.x_water if x_water is None else x_water
    d = sc.diameter if diameter is None else diameter
    sigma = sc.surface_density if surface_density is None else surface_density

    with np.errstate(over="raise", divide="raise", invalid="raise"):
        geom = ParticleGeometry(diameter=d)
        b2_surf = b_perp_sq_surface(geom, SurfaceBath(
            areal_density=sigma, spin_quantum_number=sc.surface_spin, gamma=sc.surface_gamma))
        b2_mol = b_perp_sq_volume(geom, VolumeBath(
            number_density=n, spin_quantum_number=sc.gd_spin, gamma=sc.gd_gamma,
            standoff=sc.standoff))
        p = sc.hydro_at(x)
        # the density is valid by now; a product that overflows names the
        # coefficient, for a scalar (a silent inf) and an array alike
        with np.errstate(over="ignore"):
            r_dip = sc.kappa_dip * n
        require(r_dip < math.inf, f"{_KEY['kappa_dip']} {sc.kappa_dip!r} is too large: "
                "its dipolar rate at density {!r} /m^3 overflows", n)
        # the translational decorrelation length is the closest
        # sensor-molecule distance, particle radius plus standoff
        rates = total_rate(r_dip=r_dip, r_vib=sc.vibration_rate,
                           r_trans=translational_rate(p, geom.radius + sc.standoff),
                           r_rot=rbm_rate(p))

        sources = {"surface": NoiseSource(b_perp_sq=b2_surf, tau_c=1.0 / sc.surface_rate)}
        # the molecular source exists where its field does; elsewhere it
        # contributes exactly zero.  Where it exists its correlation time
        # must lie in the window; the error names the density it fails at
        tau_mol = 1.0 / rates["total"]
        require(((tau_mol >= TAU_C_MIN) & (tau_mol <= TAU_C_MAX)) | (b2_mol == 0.0),
                f"at {_KEY['gd_density']} {{!r}} the molecular bath's correlation time 1/R "
                f"leaves its window: tau_c must lie in [{TAU_C_MIN:g}, {TAU_C_MAX:g}] s", n)
        if np.asarray(b2_mol > 0.0).any():
            sources["molecular"] = NoiseSource(b_perp_sq=b2_mol, tau_c=tau_mol)
        doc = t1_total(sources, t1_bulk=sc.t1_bulk)

    return doc | {f"gd_rate_{name}_per_s": rate for name, rate in rates.items()} | {
        "b_perp_sq_surface_t2": b2_surf, "b_perp_sq_molecular_t2": b2_mol,
        "viscosity_pa_s": p.eta, "microviscosity_factor": microviscosity_factor(p.a, p.a_s),
        "x_water": x, "diameter_m": d, "gd_density_per_m3": n,
        "surface_density_per_m2": sigma}


def measurement_plan(sc: Scenario, t1_expected: float):
    """Acquisition plan (a measure_sim.MeasurementPlan) with the default
    log-spaced tau grid."""
    # imported here: the forward verbs never load the simulation and fit
    from .measure_sim import MeasurementPlan, default_dark_times

    allocate(sc.n_dark_times, f"{_KEY['n_dark_times']} {sc.n_dark_times}")
    tau_min = _SCHEMA["measurement", "tau_min_us"][2](sc.tau_min)
    span = _SCHEMA["measurement", "tau_span_factor"][2](sc.tau_span_factor)
    require(sc.tau_min < sc.tau_span_factor * t1_expected < math.inf,
            f"{_KEY['tau_min']} {tau_min} and tau_span_factor {span} give no dark-time grid: "
            f"tau_span_factor x the predicted T1 of {t1_expected * 1e6:.6g} us must be finite "
            "and above tau_min_us")
    return MeasurementPlan(
        dark_times=default_dark_times(t1_expected, n_points=sc.n_dark_times,
                                      tau_min=sc.tau_min,
                                      span_factor=sc.tau_span_factor),
        shots_per_point=sc.shots_per_point,
        detection_window=sc.detection_window, photon_rate=sc.photon_rate,
        contrast=sc.contrast, include_reference=sc.include_reference)


def _lognormal_factor(rng: np.random.Generator, attr: str, spread: float) -> float:
    """exp of one normal draw of the given spread; a draw whose exp
    overflows is a ParameterError naming the spread's key."""
    z = rng.normal(0.0, spread)
    if z > _LOG_FLOAT_MAX:
        raise ParameterError(f"{_KEY[attr]} {spread!r} is too large: it drew a log-normal "
                             f"factor e^{z:.6g}, which overflows")
    return math.exp(z)


def draw_spots(sc: Scenario, stream: np.random.SeedSequence, n_spots: int):
    """True T1 of every spot, from one array predict, with log-normal
    density and size jitter.

    Spot j draws from the j-th child spawned from stream, in fixed order, a
    diameter factor, a molecular-density factor, and a surface-density
    factor (median-preserving log-normals with the configured relative
    spreads).  The draw order is fixed even at zero jitter so stream layouts
    stay comparable across configurations.  Returns the T1 array and the
    spots' generators, each left where its curve draws begin; a spot outside
    the model's domain raises before any curve is drawn.
    """
    if n_spots < 2:
        raise ParameterError(f"need >= 2 spots, got {n_spots}")
    spreads = [(attr, getattr(sc, attr))
               for attr in ("diameter_jitter", "density_jitter", "density_jitter")]
    factors = allocate((n_spots, 3), f"spot count {n_spots}")
    rngs = [np.random.default_rng(child) for child in stream.spawn(n_spots)]
    factors[:] = [[_lognormal_factor(rng, attr, s) for attr, s in spreads] for rng in rngs]
    d, n, sigma = factors.T
    pred = predict(sc, diameter=sc.diameter * d, gd_density=sc.gd_density * n,
                   surface_density=sc.surface_density * sigma)
    return pred["t1_s"], rngs


def density_sensitivity_curve(sc: Scenario, grid=None) -> SensitivityCurve:
    """Minimal detectable rate versus molecular-bath density.

    The default grid spans three decades around the scenario's density, or
    around OPTIMAL_DENSITY_CAL for a scenario without a molecular bath.
    The grid is checked first; then one array predict over it supplies the
    field variance and total rate of the molecular bath at every density,
    so the curve shares the forward model, and its density domain, with
    sweep.  The sensitivity module loads here, so that the verbs that
    never build a curve do not load it.
    """
    from .sensitivity import (
        SensitivityInputs,
        check_density_grid,
        default_density_grid,
        optimize_density,
    )

    if grid is None:
        grid = default_density_grid(sc.gd_density if sc.gd_density > 0.0
                                    else OPTIMAL_DENSITY_CAL)
    grid = check_density_grid(grid)
    pred = predict(sc, gd_density=grid)
    b2 = pred["b_perp_sq_molecular_t2"]
    require(b2 > 0.0, f"{_KEY['gd_density']} {{!r}} is too small: its field variance "
            "underflows to 0 T^2", grid)
    return optimize_density(grid, SensitivityInputs(
        contrast=sc.contrast, photon_rate=sc.photon_rate,
        detection_window=sc.detection_window, acquisition_time=sc.acquisition_time,
        b_perp_sq=b2, r_total=pred["gd_rate_total_per_s"]))


# config format: INI sections with strict schema; every key optional,
# unknown sections/keys rejected.  Conversions are (text -> SI, SI -> text).
# All unit scales are powers of ten, applied as exact decimal exponent
# shifts, so parse and serialize are exact inverses bit for bit.

def _decimal_text(d: Decimal) -> str:
    # prettify without changing the value: plain notation for moderate
    # magnitudes, scientific otherwise, trailing zeros stripped
    if d == 0:
        return "0"
    n = d.normalize()
    _, digits, exp = n.as_tuple()
    adjusted = exp + len(digits) - 1
    if -4 <= adjusted <= 16:
        return format(n, "f")
    return format(n, "e")


def _scaled(k: int):
    def to_si(s: str) -> float:
        try:
            d = Decimal(s).scaleb(k)
        except InvalidOperation:
            # Decimal signals syntax errors as ArithmeticError; config
            # parsing needs the ValueError family
            raise ValueError(f"not a number: {s!r}") from None
        v = float(d)
        # a finite number beyond double range would read as inf, and a
        # nonzero one below it as 0; a literal inf or nan goes on to
        # Scenario, whose checks name the key
        if d.is_finite() and not math.isfinite(v):
            raise ValueError(f"{s.strip()!r} overflows a double")
        if d and not v:
            raise ValueError(f"{s.strip()!r} underflows a double to 0")
        return v

    def to_text(v: float) -> str:
        return _decimal_text(Decimal(repr(float(v))).scaleb(-k))

    return to_si, to_text


_FLOAT = _scaled(0)
_INT = (int, str)
_NM = _scaled(-9)
_NS = _scaled(-9)
_US = _scaled(-6)
_MS = _scaled(-3)
_GHZ = _scaled(9)
_PER_NM2 = _scaled(18)


def _parse_bool(s: str) -> bool:
    v = s.strip().lower()
    if v in ("true", "yes", "on", "1"):
        return True
    if v in ("false", "no", "off", "0"):
        return False
    raise ValueError(f"not a boolean: {s!r}")


_BOOL = (_parse_bool, lambda v: "true" if v else "false")
_STR = (lambda s: s.strip(), str)

# valid ranges: (test of the SI value, what a value outside it must be)
_ANY = (lambda v: True, "any value")
_POSITIVE = (positive, "finite and > 0")
_NONNEGATIVE = (nonnegative, "finite and >= 0")
_NONZERO = (lambda v: v != 0.0 and math.isfinite(v), "finite and nonzero")
_UNIT = (lambda v: (v >= 0.0) & (v <= 1.0), "in [0, 1]")
_OPEN_UNIT = (lambda v: 0.0 < v < 1.0, "in (0, 1)")
_SPIN = (is_spin, "a positive half-integer")


def _at_least(k: int):
    return (lambda v: v >= k), f"an integer >= {k}"


# (section, key) -> (scenario attribute, parse, format, valid range)
_SCHEMA = {
    ("particle", "diameter_nm"): ("diameter", *_NM, _POSITIVE),
    ("particle", "sensor_offset_nm"): ("sensor_offset", *_NM, (
        lambda v: v == 0.0, "0 (the bath closed forms assume a centered sensor)")),
    ("surface_bath", "areal_density_per_nm2"): ("surface_density", *_PER_NM2, _NONNEGATIVE),
    ("surface_bath", "fluctuation_rate_ghz"): ("surface_rate", *_GHZ, (
        lambda v: positive(v) and TAU_C_MIN <= 1.0 / v <= TAU_C_MAX,
        f"> 0 with a correlation time 1/R in [{TAU_C_MIN:g}, {TAU_C_MAX:g}] s")),
    ("surface_bath", "spin"): ("surface_spin", *_FLOAT, _SPIN),
    ("surface_bath", "gamma_rad_per_s_per_t"): ("surface_gamma", *_FLOAT, _NONZERO),
    ("molecular_bath", "density_per_m3"): ("gd_density", *_FLOAT, _NONNEGATIVE),
    ("molecular_bath", "spin"): ("gd_spin", *_FLOAT, _SPIN),
    ("molecular_bath", "gamma_rad_per_s_per_t"): ("gd_gamma", *_FLOAT, _NONZERO),
    ("molecular_bath", "standoff_nm"): ("standoff", *_NM, _NONNEGATIVE),
    ("molecular_bath", "vibration_rate_ghz"): ("vibration_rate", *_GHZ, _NONNEGATIVE),
    ("molecular_bath", "dipolar_coefficient_m3_per_s"): ("kappa_dip", *_FLOAT, _NONNEGATIVE),
    ("solvent", "x_water"): ("x_water", *_FLOAT, _UNIT),
    ("solvent", "table_path"): ("viscosity_table", *_STR, _ANY),
    ("solvent", "a_s_water_nm"): ("a_s_water", *_NM, _NONNEGATIVE),
    ("solvent", "a_s_other_nm"): ("a_s_other", *_NM, _NONNEGATIVE),
    ("molecule", "radius_nm"): ("molecule_radius", *_NM, _POSITIVE),
    ("environment", "temperature_k"): ("temperature", *_FLOAT, _POSITIVE),
    ("environment", "t1_bulk_ms"): ("t1_bulk", *_MS, _POSITIVE),
    ("measurement", "shots_per_point"): ("shots_per_point", *_INT, _at_least(1)),
    ("measurement", "detection_window_ns"): ("detection_window", *_NS, _POSITIVE),
    ("measurement", "photon_rate_per_s"): ("photon_rate", *_FLOAT, _POSITIVE),
    ("measurement", "contrast"): ("contrast", *_FLOAT, _OPEN_UNIT),
    ("measurement", "include_reference"): ("include_reference", *_BOOL, _ANY),
    ("measurement", "n_dark_times"): ("n_dark_times", *_INT, _at_least(4)),
    ("measurement", "tau_min_us"): ("tau_min", *_US, _POSITIVE),
    ("measurement", "tau_span_factor"): ("tau_span_factor", *_FLOAT, (
        lambda v: 0.0 < v <= MAX_TAU_SPAN_FACTOR,
        f"in (0, {MAX_TAU_SPAN_FACTOR:g}] (a grid to 100 T1 already samples e^-100 "
        "of the decay)")),
    ("measurement", "acquisition_time_s"): ("acquisition_time", *_FLOAT, _POSITIVE),
    ("spots", "density_jitter"): ("density_jitter", *_FLOAT, _NONNEGATIVE),
    ("spots", "diameter_jitter"): ("diameter_jitter", *_FLOAT, _NONNEGATIVE),
    ("random", "seed"): ("seed", *_INT, _at_least(0)),
}
# Scenario attribute -> "[section] key", its one spelling in messages
_KEY = {attr: f"[{section}] {key}" for (section, key), (attr, *_) in _SCHEMA.items()}
# Scenario attribute -> its valid range, which predict's overrides share
_RANGE = {attr: valid for attr, *_, valid in _SCHEMA.values()}


def scenario_from_text(text: str, source: str = "<string>") -> Scenario:
    """Parse config text; a table_path is taken as given, not resolved.

    Unknown sections or keys, duplicate keys and unparsable values are
    rejected with a ConfigError naming source, section and key.
    """
    parser = configparser.ConfigParser(interpolation=None, strict=True,
                                       inline_comment_prefixes=("#",))
    try:
        parser.read_string(text, source=source)
    except configparser.Error as exc:
        raise ConfigError(f"malformed config: {exc}") from exc

    kwargs = {}
    for section in parser.sections():
        for key, raw in parser.items(section):
            try:
                attr, to_si, *_ = _SCHEMA[(section, key)]
            except KeyError:
                known = sorted(k for s, k in _SCHEMA if s == section)
                if known:
                    raise ConfigError(
                        f"{source}: unknown key [{section}] {key}; "
                        f"valid keys: {', '.join(known)}") from None
                raise ConfigError(f"{source}: unknown section [{section}]") from None
            try:
                kwargs[attr] = to_si(raw)
            except ValueError as exc:
                raise ConfigError(f"{source}: bad value for [{section}] {key}: {exc}") from exc
    return Scenario(**kwargs)


def parse_config(path) -> Scenario:
    """Load a scenario config file.

    Parses like scenario_from_text; additionally a missing or non-UTF-8
    file is a ConfigError, and a relative table path resolves against the
    config file's directory and must exist.
    """
    path = Path(path)
    try:
        text = path.read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    sc = scenario_from_text(text, str(path))
    if not sc.viscosity_table:
        return sc
    resolved = Path(sc.viscosity_table)
    if not resolved.is_absolute():
        resolved = path.parent / resolved
    if not resolved.is_file():
        raise ConfigError(f"{path}: [solvent] table_path does not exist: {resolved}")
    return replace(sc, viscosity_table=str(resolved.resolve()))


def serialize_scenario(sc: Scenario) -> str:
    """Canonical INI text: every key explicit, sections and keys sorted.

    Two semantically identical scenarios serialize to identical text, which
    is what makes the config hash stable under key reordering.
    """
    by_section: dict = {}
    for (section, key), (attr, _, to_text, _) in _SCHEMA.items():
        by_section.setdefault(section, {})[key] = to_text(getattr(sc, attr))
    out = io.StringIO()
    for section in sorted(by_section):
        out.write(f"[{section}]\n")
        for key in sorted(by_section[section]):
            out.write(f"{key} = {by_section[section][key]}\n")
        out.write("\n")
    return out.getvalue()


def config_hash(sc: Scenario) -> str:
    """SHA-256 of the canonical serialization."""
    return hashlib.sha256(serialize_scenario(sc).encode("utf-8")).hexdigest()
