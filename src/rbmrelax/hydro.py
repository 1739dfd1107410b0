"""Hydrodynamic fluctuation rates: rotational Brownian motion of a tracked
molecule, translational diffusion, and the composition of the total
fluctuation rate from its four components (dipolar, vibrational,
translational, rotational).

Rotational rates follow Stokes-Einstein-Debye with a microviscosity
correction for solvent molecules of finite size; solvent-mixture viscosity
comes from a shipped reference table with monotone cubic (PCHIP)
interpolation.  The interpolant is a numpy port of scipy's
PchipInterpolator (same derivative rule, same piecewise-power coefficients,
same evaluation order), so it reproduces scipy bit for bit without
importing it; each SolventMixture builds it once, on first use.

Every rate function broadcasts over numpy arrays: composition, radius and
viscosity may be arrays, checked where they enter (scenario and
load_viscosity_table); the powers derived here are checked element-wise.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import cached_property
from importlib import resources
from pathlib import Path

import numpy as np

from .constants import K_B
from .errors import ConfigError, power_finite, require
from .table import read_table


@dataclass(frozen=True)
class HydroParams:
    """Hydrodynamic inputs for one molecule in one solvent.

    a: hydrodynamic radius of the tracked molecule (m); a_s: effective
    solvent molecule radius (m, 0 recovers the continuum limit); eta:
    dynamic viscosity (Pa*s); temperature in K.  Fields may be numpy
    arrays that broadcast together.  a, eta and temperature are finite and
    > 0, a_s finite and >= 0 (preconditions).
    """

    a: float
    a_s: float
    eta: float
    temperature: float

    def __post_init__(self):
        # the rotational rate divides by a**3, which must neither overflow
        # nor underflow
        require(power_finite(self.a, 3),
                "molecule radius {!r} m is too large: its cube overflows", self.a)
        require(self.a**3 >= sys.float_info.min,
                "molecule radius {!r} m is too small: its cube underflows", self.a)


@dataclass(frozen=True)
class SolventMixture:
    """Binary water/cosolvent mixture with a tabulated viscosity curve.

    The viscosity table is a tuple of (mole fraction water, viscosity Pa*s)
    rows at the reference temperature, sorted ascending and covering
    [0, 1], as load_viscosity_table returns it; a_s_water and a_s_other are
    the effective solvent radii (m), finite and >= 0.  Every function of
    composition takes the mole fraction, in [0, 1], as an argument.
    """

    viscosity_table: tuple
    a_s_water: float
    a_s_other: float

    def __post_init__(self):
        object.__setattr__(self, "viscosity_table", tuple(
            (float(x), float(eta)) for x, eta in self.viscosity_table))

    @cached_property
    def interpolant(self) -> Pchip:
        """The viscosity curve, built on first use."""
        return Pchip(*np.array(self.viscosity_table).T)


def microviscosity_factor(a, a_s):
    """Finite-solvent-size correction to continuum rotational friction.

    f_r = [6 u + (1 + 3u/(1+2u)) / (1+2u)^3]^-1  with u = a_s/a.

    Always in (0, 1]; equals 1 in the continuum limit a_s = 0 and decreases
    monotonically as the solvent molecules grow relative to the solute.
    a is finite and > 0, a_s finite and >= 0.
    """
    u = a_s / a
    one_plus_2u = 1.0 + 2.0 * u
    require(power_finite(one_plus_2u, 3),
            "solvent-to-molecule radius ratio {!r} is too large: (1 + 2 a_s/a)**3 overflows", u)
    bracket = 6.0 * u + (1.0 + 3.0 * u / one_plus_2u) / one_plus_2u**3
    return 1.0 / bracket


def rbm_rate(p: HydroParams):
    """Rotational Brownian fluctuation rate, 1/s.

    R_rot = k_B T / (8 pi a^3 eta f_r); strictly decreasing in both a and
    eta.  This is the inverse rotational correlation time of the molecule.
    """
    f_r = microviscosity_factor(p.a, p.a_s)
    return K_B * p.temperature / (8.0 * math.pi * p.a**3 * p.eta * f_r)


def translational_diffusivity(p: HydroParams):
    """Stokes-Einstein translational diffusion coefficient, m^2/s."""
    return K_B * p.temperature / (6.0 * math.pi * p.eta * p.a)


def translational_rate(p: HydroParams, length_scale):
    """Rate at which diffusion decorrelates the coupling, D_t / L^2 in 1/s.

    The length scale is the distance over which a molecule must move for
    its dipolar coupling to the sensor to change appreciably; the particle
    radius is the natural choice; it is finite and > 0.
    """
    return translational_diffusivity(p) / length_scale**2


def _pchip_end_slope(h0, h1, m0, m1):
    # scipy's PchipInterpolator._edge_case: one-sided three-point estimate,
    # limited so the end piece keeps the data's shape
    d = ((2 * h0 + h1) * m0 - h0 * m1) / (h0 + h1)
    if np.sign(d) != np.sign(m0):
        return 0.0
    if np.sign(m0) != np.sign(m1) and abs(d) > 3.0 * abs(m0):
        return 3.0 * m0
    return d


def _pchip_slopes(h, m):
    # scipy's PchipInterpolator._find_derivatives: weighted harmonic mean of
    # the neighbouring secants, zero at local extrema and flat secants
    if m.size == 1:
        return np.array([m[0], m[0]])
    sign = np.sign(m)
    flat = (sign[1:] != sign[:-1]) | (m[1:] == 0) | (m[:-1] == 0)
    w1 = 2 * h[1:] + h[:-1]
    w2 = h[1:] + 2 * h[:-1]
    d = np.empty(m.size + 1)
    with np.errstate(divide="ignore", invalid="ignore"):
        whmean = (w1 / m[:-1] + w2 / m[1:]) / (w1 + w2)
        d[1:-1] = np.where(flat, 0.0, 1.0 / whmean)
    d[0] = _pchip_end_slope(h[0], h[1], m[0], m[1])
    d[-1] = _pchip_end_slope(h[-1], h[-2], m[-1], m[-2])
    return d


class Pchip:
    """Monotone piecewise-cubic Hermite interpolant of 1-D data.

    A numpy port of scipy.interpolate.PchipInterpolator: the same node
    slopes, CubicHermiteSpline's coefficients, and PPoly's evaluation
    order, so values agree with scipy bit for bit.  Points outside the
    nodes extrapolate the end pieces, as scipy does by default.
    """

    def __init__(self, x, y):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        h = np.diff(x)
        m = np.diff(y) / h
        d = _pchip_slopes(h, m)
        t = (d[:-1] + d[1:] - 2 * m) / h
        self._x = x
        self._interior = x[1:-1]
        # row k holds the coefficients of power k of the offset from the
        # left node of each piece
        self._coeffs = np.stack((y[:-1], d[:-1], (m - d[:-1]) / h - t, t / h))

    def __call__(self, xq):
        """Interpolated values; a scalar query gives a float."""
        xq = np.asarray(xq, dtype=float)
        # piece index from the interior nodes alone: 0 below x[1], the last
        # piece from x[-2] on, so outside points extrapolate the end pieces
        i = self._interior.searchsorted(xq, side="right")
        s = xq - self._x[i]
        c = self._coeffs[:, i]
        s2 = s * s
        values = c[0] + c[1] * s + c[2] * s2 + c[3] * (s2 * s)
        return values if xq.ndim else float(values)


def mixture_viscosity(m: SolventMixture, x):
    """Viscosity of the mixture at water mole fraction x, Pa*s.

    Monotone cubic interpolation through the table: exact at the nodes and
    free of the over/undershoot a plain cubic spline would produce around
    the interior viscosity maximum.
    """
    return m.interpolant(x)


def effective_solvent_radius(m: SolventMixture, x):
    """Mole-fraction-weighted effective solvent radius, m."""
    return x * m.a_s_water + (1.0 - x) * m.a_s_other


def hydro_params_at(m: SolventMixture, a: float, temperature: float, x) -> HydroParams:
    """HydroParams for the mixture evaluated at composition x; an array x
    gives array fields."""
    return HydroParams(a=a, a_s=effective_solvent_radius(m, x),
                       eta=mixture_viscosity(m, x), temperature=temperature)


def total_rate(r_dip, r_vib, r_trans, r_rot) -> dict:
    """Compose the total fluctuation rate from its four components: the
    components under dip, vib, trans and rot, and their sum under total,
    all in 1/s."""
    total = r_dip + r_vib + r_trans + r_rot
    # a sum of Python floats overflows to inf without an error
    require(total < math.inf, "the molecular bath's fluctuation rates sum to {!r} /s", total)
    return {"dip": r_dip, "vib": r_vib, "trans": r_trans, "rot": r_rot, "total": total}


VISCOSITY_COLUMNS = ("mole_fraction", "viscosity_mPa_s")


def load_viscosity_table(path) -> tuple:
    """Load a solvent viscosity table (see rbmrelax.table).

    The header must name the columns ``mole_fraction viscosity_mPa_s``, so
    a table in other units is rejected instead of being misread; values
    must be finite and viscosities > 0.  Viscosities are converted to Pa*s.
    The table must be strictly sorted by mole fraction and cover 0 through 1.
    """
    rows, _ = read_table(path, VISCOSITY_COLUMNS, "viscosity table")
    for x, eta in rows:
        if eta <= 0.0:
            raise ConfigError(f"{path}: viscosity at mole fraction {x!r} must be > 0 mPa*s, "
                              f"got {eta!r}")
    xs = [r[0] for r in rows]
    if any(b <= a for a, b in zip(xs, xs[1:])):
        raise ConfigError(f"{path}: rows must be strictly sorted by mole fraction")
    if xs[0] != 0.0 or xs[-1] != 1.0:
        raise ConfigError(f"{path}: table must cover mole fractions [0, 1]")
    return tuple((x, eta_mpa_s * 1e-3) for x, eta_mpa_s in rows)


def default_table_path() -> Path:
    """Path of the water/acetone viscosity table shipped with the package."""
    return Path(resources.files("rbmrelax").joinpath(
        "data/water_acetone_viscosity_298K.txt"))


# Literature-typical effective molecular radii, m.  Configurable per scenario.
A_S_WATER_DEFAULT = 0.14e-9
A_S_ACETONE_DEFAULT = 0.25e-9
