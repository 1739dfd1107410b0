"""Cross-checks pitting closed forms against independent numerical routes.

Three families of checks are bundled here:

* ``quadrature``: the Lorentzian spectral density integrates back to its
  variance and has the Lorentzian shape, checked by one fixed 21-point
  Gauss-Legendre rule under omega tau_c = tan theta, which maps a correct
  density onto a constant.
* ``bath_mc``: the closed-form mean-square transverse fields agree with
  the Monte Carlo dipolar sum within statistics, and the Monte Carlo
  standard error shrinks as samples^-1/2.
* ``sensitivity``: the minimal-detectable-rate formula equals an
  independent error-propagation estimate, whose signal derivative is exact,
  times a predicted constant factor, to rounding.

Each check produces an OracleCheck carrying the statistics behind the
verdict, so a failure is diagnosable from the report alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .bath import (
    ParticleGeometry,
    SurfaceBath,
    VolumeBath,
    b_perp_mc_batch,
    b_perp_sq_surface,
    b_perp_sq_volume,
)
from .constants import OMEGA_0
from .core_relax import NoiseSource, lorentzian_psd
from .errors import ParameterError, SingularityError
from .sensitivity import SensitivityInputs, delta_r_min, delta_r_oracle

# statistical acceptance band for Monte Carlo vs closed form
MC_SIGMA_BAND = 3.0
# allowed departure of the stderr scaling exponent from -1/2
SLOPE_TOLERANCE = 0.05
# allowed relative error of a check whose exact value is known: rounding only
# (the formula/oracle ratios, the Lorentzian's integral and quadrature nodes)
ROUNDING_TOLERANCE = 1e-12


@dataclass(frozen=True)
class OracleCheck:
    """One named comparison with its verdict and supporting numbers."""

    name: str
    passed: bool
    details: dict


@dataclass(frozen=True)
class OracleReport:
    checks: tuple

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)


def format_report(report: OracleReport) -> str:
    lines = []
    for check in report.checks:
        lines.append(f"{'PASS' if check.passed else 'FAIL'}  {check.name}")
        for key in sorted(check.details):
            lines.append(f"      {key} = {check.details[key]}")
    lines.append(f"overall: {'PASS' if report.passed else 'FAIL'}")
    return "\n".join(lines)


def _sig3(x: float) -> float:
    """x rounded to 3 significant digits, for report lines whose later
    digits are round-off."""
    return float(f"{x:.3g}")


# (b_perp_sq in T^2, tau_c in s) of the quadrature check's spectral densities
_QUAD_CASES = ((1.0, 1.0e-9), (2.5e-8, 1.0 / 18.0e9), (0.3, 1.0e-6))
# the quadrature check's rule: 21 Gauss-Legendre nodes x and weights w on
# [-1, 1]; theta = pi/4 (x + 1) spans [0, pi/2]
_GL_NODES, _GL_WEIGHTS = (v.tolist() for v in np.polynomial.legendre.leggauss(21))


def check_lorentzian_quadrature() -> OracleCheck:
    """Integrated spectral density equals the field variance.

    The density is even in frequency, so the full-line integral over
    d omega / (2 pi) is 1/pi times the half-line one.  Under omega tau_c =
    tan theta the half line maps onto [0, pi/2], and a correct Lorentzian
    turns into the constant g = S(omega) sec^2(theta) / tau_c = 2 b_perp_sq.
    One fixed 21-point Gauss-Legendre sum in theta, one array call of the
    density under test, then checks both the normalization, (1/pi) sum
    w_i g_i against b_perp_sq, and the shape, each g_i against 2 b_perp_sq,
    to ROUNDING_TOLERANCE; the weights are positive and sum to 2, so the
    normalization error cannot exceed the node error beyond rounding.  The
    errors are reported to 3 significant digits; the verdict uses them
    unrounded, and a NaN fails it.
    """
    details, errs = {}, []
    tan = np.array([math.tan(math.pi / 4.0 * (x + 1.0)) for x in _GL_NODES])
    for i, (b2, tau_c) in enumerate(_QUAD_CASES):
        psd = lorentzian_psd(NoiseSource(b_perp_sq=b2, tau_c=tau_c), tan / tau_c)
        g = psd * (1.0 + tan * tan) / tau_c
        try:  # (1/pi) times the sum over theta, whose weights are pi/4 w
            norm = math.fsum(w * v for w, v in zip(_GL_WEIGHTS, g.tolist())) / 4.0
        except (ValueError, OverflowError):  # inf - inf, or a sum past DBL_MAX
            norm = math.nan
        # np.max, unlike max, propagates a NaN
        errs.append((abs(norm - b2) / b2, float(np.max(np.abs(g - 2.0 * b2))) / (2.0 * b2)))
        details[f"case{i}_rel_err_norm"], details[f"case{i}_rel_err_node"] = map(_sig3, errs[-1])
    details["worst_rel_err_norm"], details["worst_rel_err_node"] = map(_sig3, np.max(errs, 0))
    passed = all(e <= ROUNDING_TOLERANCE for e in np.ravel(errs))
    return OracleCheck("lorentzian_quadrature", passed, details)


# fixed comparison point: 25 nm particle, 1 spin per nm^2 surface bath
_MC_GEOMETRY = ParticleGeometry(diameter=25.0e-9)
_MC_SURFACE = SurfaceBath(areal_density=1.0e18, spin_quantum_number=0.5)
_MC_VOLUME = VolumeBath(number_density=1.0e26, spin_quantum_number=3.5)


def check_bath_mc() -> OracleCheck:
    """Monte Carlo dipolar sums agree with the closed forms.

    Both bath geometries are compared at the fixed reference point, 10^6
    samples each, within MC_SIGMA_BAND standard errors, and the surface-bath
    standard error is fitted against sample count on a log-log grid to
    confirm the samples^-1/2 scaling.  The seven sums run as one
    b_perp_mc_batch.  Fixed seeds make the report fixed.
    """
    samples, seed = 1_000_000, 20260822
    details = {"samples": samples, "seed": seed}
    sizes = [10_000, 31_623, 100_000, 316_228, 1_000_000]
    mc_s, mc_v, *scaling = b_perp_mc_batch(
        [(_MC_GEOMETRY, _MC_SURFACE, samples, seed), (_MC_GEOMETRY, _MC_VOLUME, samples, seed + 1)]
        + [(_MC_GEOMETRY, _MC_SURFACE, n, seed + 10 + i) for i, n in enumerate(sizes)])

    closed_s = b_perp_sq_surface(_MC_GEOMETRY, _MC_SURFACE)
    z_s = (mc_s.mean - closed_s) / mc_s.stderr
    details["surface_closed_t2"] = closed_s
    details["surface_mc_t2"] = mc_s.mean
    details["surface_stderr_t2"] = mc_s.stderr
    details["surface_z"] = z_s

    closed_v = b_perp_sq_volume(_MC_GEOMETRY, _MC_VOLUME)
    z_v = (mc_v.mean - closed_v) / mc_v.stderr
    details["volume_closed_t2"] = closed_v
    details["volume_mc_t2"] = mc_v.mean
    details["volume_stderr_t2"] = mc_v.stderr
    details["volume_z"] = z_v
    details["volume_tail_fraction"] = mc_v.tail_fraction
    details["volume_tail_warning"] = mc_v.tail_warning

    slope = float(np.polyfit(np.log(sizes), np.log([mc.stderr for mc in scaling]), 1)[0])
    details["stderr_slope"] = slope

    passed = (abs(z_s) <= MC_SIGMA_BAND and abs(z_v) <= MC_SIGMA_BAND
              and abs(slope + 0.5) <= SLOPE_TOLERANCE)
    return OracleCheck("bath_mc", passed, details)


def check_sensitivity_ratio() -> OracleCheck:
    """Formula and error-propagation oracle differ by a predicted constant.

    Evaluated on a 40-point log grid of total rates spanning 0.1 to 100
    times the level splitting, skipping the rates that the sensitivity
    module's resonance guard rejects (the one on the splitting).  The
    oracle's derivative is exact, so every ratio equals
    sqrt(2 / (e * s(tau=T1))) to rounding: the formula prices the shot
    noise of a bare exponential at depth 1/e, the oracle that of the full
    signal including its baseline.  The ratios must lie within
    ROUNDING_TOLERANCE of their mean, and the mean within it of the constant.
    """
    template = SensitivityInputs(
        contrast=0.2, photon_rate=1.0e5, detection_window=500.0e-9,
        acquisition_time=10.0, b_perp_sq=1.0e-8, r_total=OMEGA_0 / 10.0)
    w = OMEGA_0
    grid = np.logspace(math.log10(0.1 * w), math.log10(100.0 * w), 40)
    ratios = []
    excluded = 0
    for r in grid:
        inp = replace(template, r_total=float(r))
        try:
            ratios.append(delta_r_min(inp) / delta_r_oracle(inp))
        except SingularityError:
            excluded += 1

    mean = float(np.mean(ratios))
    max_dev = float(np.max(np.abs(np.array(ratios) / mean - 1.0)))
    depth = 1.0 - template.contrast + template.contrast / math.e
    expected = math.sqrt(2.0 / (math.e * depth))

    details = {
        "points_used": len(ratios),
        "points_excluded": excluded,
        "mean_ratio": mean,
        "max_relative_deviation": max_dev,
        "expected_constant_offset": expected,
    }
    passed = max_dev <= ROUNDING_TOLERANCE and abs(mean / expected - 1.0) <= ROUNDING_TOLERANCE
    return OracleCheck("sensitivity_ratio", passed, details)


_CHECKS = {
    "quadrature": (check_lorentzian_quadrature,),
    "bath_mc": (check_bath_mc,),
    "sensitivity": (check_sensitivity_ratio,),
}


def run_oracles(which: str = "all") -> OracleReport:
    """Run one named check family, or all of them."""
    if which == "all":
        names = tuple(_CHECKS)
    elif which in _CHECKS:
        names = (which,)
    else:
        valid = ", ".join(sorted(_CHECKS) + ["all"])
        raise ParameterError(f"unknown oracle {which!r}; expected one of: {valid}")
    checks = tuple(fn() for name in names for fn in _CHECKS[name])
    return OracleReport(checks=checks)
