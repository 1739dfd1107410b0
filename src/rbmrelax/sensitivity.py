"""Minimal detectable change of the total fluctuation rate, and its
optimization over bath density.

The closed form propagates photon shot noise through the Lorentzian
relaxation model for a readout at the optimal dark time tau = T1, where a
factor exp(-1) enters the signal derivative; that is the origin of Euler's
number in the expression:

    delta_R_min = (1 / (C sqrt(D T_D T))) * sqrt(2 e R / (3 gamma^2 B_perp^2))
                  * (R^2 + omega0^2)^(3/2) / |R^2 - omega0^2|

It diverges at R = omega0: there the relaxation rate is stationary in R and
the sensor carries no first-order information about rate changes.  An
independent error-propagation oracle differentiates the composed signal
model exactly (by complex step), and the formula equals it times a
predicted constant, to rounding (validation.check_sensitivity_ratio).

The formula broadcasts over arrays of field variance and rate, so a whole
density grid is one evaluation; grid points on the resonance are masked out
before it.  optimize_density takes those arrays as SensitivityInputs; the
scenario's forward model (scenario.density_sensitivity_curve) computes
them.  The curve it returns holds its points as one (n, 3) array of
density, rate and delta_r_min columns.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, replace
import numpy as np

from .constants import GAMMA_E, OMEGA_0
from .errors import ParameterError, SingularityError, positive, require
from .table import write_table

# Relative half-width of the rejected resonance neighborhood.  Within it the
# formula's divergence is dominated by cancellation noise, not physics.
RESONANCE_GUARD = 1e-9


@dataclass(frozen=True)
class SensitivityInputs:
    """Everything the minimal-detectable-rate formula needs.

    r_total is the total fluctuation rate of the probed bath (1/s);
    b_perp_sq its mean-square transverse field (T^2); acquisition_time the
    total averaging time T (s).  b_perp_sq and r_total may be arrays.  The
    sensor is the NV electron spin (GAMMA_E), probed at the level splitting
    OMEGA_0.  Preconditions: contrast in (0, 1), every other field finite
    and > 0.  Checked: a finite, positive shot-noise factor.
    """

    contrast: float
    photon_rate: float
    detection_window: float
    acquisition_time: float
    b_perp_sq: float
    r_total: float

    def __post_init__(self):
        root = self.contrast * math.sqrt(
            self.photon_rate * self.detection_window * self.acquisition_time)
        require(positive(root) and positive(1.0 / root),
                "shot-noise factor 1 / (C sqrt(D T_D T)) is not finite and positive")


def _on_resonance(r_total):
    return abs(r_total - OMEGA_0) <= RESONANCE_GUARD * OMEGA_0


def _guard_resonance(r_total):
    hit = _on_resonance(r_total)
    if np.any(hit):
        raise SingularityError(
            f"rate {np.extract(hit, r_total)[0]:g} /s sits on the level splitting "
            f"{OMEGA_0:g} rad/s; the sensor is first-order insensitive to rate changes there")


def delta_r_min(inp: SensitivityInputs):
    """Minimal detectable rate change, 1/s.

    Scales as 1/sqrt(T) and 1/sqrt(B_perp^2); invariant under the trade
    C -> C/k, photon_rate -> k^2 photon_rate.
    """
    r, w = inp.r_total, OMEGA_0
    _guard_resonance(r)
    prefactor = 1.0 / (inp.contrast * np.sqrt(
        inp.photon_rate * inp.detection_window * inp.acquisition_time))
    # a result beyond the float range fails, as predict does, naming the keys
    # of the shot-noise factor when it is that factor that takes it there
    with np.errstate(over="raise", divide="raise", invalid="raise"):
        core = np.sqrt(2.0 * math.e * r / (3.0 * GAMMA_E**2 * inp.b_perp_sq))
        lor = (r**2 + w**2) ** 1.5 / abs(r**2 - w**2)
        try:
            return prefactor * core * lor
        except FloatingPointError:
            raise ParameterError(
                "[measurement] contrast, photon_rate_per_s, detection_window_ns and "
                "acquisition_time_s give a shot-noise factor 1 / (C sqrt(D T_D T)) of "
                f"{float(prefactor):.6g}: delta_r_min overflows") from None


def induced_rate(inp: SensitivityInputs, r: float) -> float:
    """Bath-induced relaxation rate 3 gamma^2 B_perp^2 r / (r^2 + omega0^2)."""
    return 3.0 * GAMMA_E**2 * inp.b_perp_sq * r / (r**2 + OMEGA_0**2)


def delta_r_oracle(inp: SensitivityInputs) -> float:
    """Error-propagation estimate of the minimal detectable rate.

    Models the actual measurement: a single-dark-time readout at tau = T1,
    where T1 = 1/(induced rate), of s(R) = 1 - C + C exp(-T1 induced_rate(R)).
    s is evaluated once, at R + ih on Python scalars: its real part is s(R)
    and its imaginary part over h is ds/dR, exact to rounding (complex step;
    Squire and Trapp, SIAM Review 40, 110, 1998).  The photon shot noise of
    the normalized signal accumulated over the acquisition time (shot
    duration dominated by the dark time, reference taken as exactly known)
    is divided by that derivative.

    Bulk relaxation is deliberately excluded: the closed form ignores it too,
    and it carries no information about the bath rate.
    """
    r = float(inp.r_total)
    _guard_resonance(r)
    t1 = 1.0 / induced_rate(inp, r)
    h = 1e-20 * r  # no difference is taken, so any step this small is exact
    s = 1.0 - inp.contrast + inp.contrast * cmath.exp(-t1 * induced_rate(inp, complex(r, h)))
    photons = inp.photon_rate * inp.detection_window * inp.acquisition_time / t1
    return math.sqrt(s.real / photons) / abs(s.imag / h)


@dataclass(frozen=True)
class SensitivityCurve:
    """delta_r_min versus bath density, with its minimum located.

    points: (n, 3) array of (density 1/m^3, r_total 1/s, delta_r_min 1/s)
    rows, strictly ascending in density; argmin_index is the row of the
    smallest delta_r_min.  skipped lists densities rejected as resonant.
    boundary_warning means the minimum sits on the grid edge: either the
    grid is too narrow or the curve has no interior minimum.
    """

    points: np.ndarray
    argmin_index: int
    boundary_warning: bool
    skipped: tuple = ()

    @property
    def argmin_density(self) -> float:
        return float(self.points[self.argmin_index, 0])

    @property
    def rate_at_min(self) -> float:
        return float(self.points[self.argmin_index, 1])

    @property
    def delta_min(self) -> float:
        return float(self.points[self.argmin_index, 2])


def default_density_grid(center: float) -> tuple:
    """Log grid of 121 densities, 40 per decade over three decades, centered
    (geometrically) on a given value."""
    if not (math.isfinite(center) and center > 0.0):
        raise ParameterError(f"grid center must be positive, got {center!r}")
    lo, hi = math.log10(center) - 1.5, math.log10(center) + 1.5
    return tuple(10.0 ** (lo + (hi - lo) * i / 120) for i in range(121))


def check_density_grid(density_grid) -> np.ndarray:
    """The grid as a float array, once it is known to hold >= 2 positive,
    strictly ascending densities spanning at least two decades."""
    grid = np.asarray(density_grid, dtype=float)
    if grid.ndim != 1 or grid.size < 2 or not np.all(positive(grid)):
        raise ParameterError("density grid must contain >= 2 positive values")
    if np.any(grid[1:] <= grid[:-1]):
        raise ParameterError("density grid must be strictly ascending")
    if grid[-1] / grid[0] < 100.0:
        raise ParameterError("density grid must span at least two decades")
    return grid


def optimize_density(density_grid, inputs: SensitivityInputs) -> SensitivityCurve:
    """Evaluate delta_r_min over a density grid and locate its minimum.

    inputs.b_perp_sq and inputs.r_total hold the field variance and total
    fluctuation rate at each grid density (arrays of the grid's shape; a
    scalar applies to every density).  The grid must pass
    check_density_grid.  Grid points on the resonance are skipped, not
    fatal.
    """
    grid = check_density_grid(density_grid)
    inp = replace(inputs, b_perp_sq=np.broadcast_to(inputs.b_perp_sq, grid.shape),
                  r_total=np.broadcast_to(inputs.r_total, grid.shape))
    keep = ~_on_resonance(inp.r_total)
    if not keep.any():
        raise ParameterError("every grid point was resonant; nothing to optimize")
    rates = inp.r_total[keep]
    deltas = delta_r_min(replace(inp, b_perp_sq=inp.b_perp_sq[keep], r_total=rates))

    idx = int(np.argmin(deltas))
    return SensitivityCurve(
        points=np.column_stack((grid[keep], rates, deltas)), argmin_index=idx,
        boundary_warning=idx in (0, deltas.size - 1), skipped=tuple(grid[~keep].tolist()))


CURVE_COLUMNS = ("density_per_m3", "r_total_per_s", "delta_r_min_per_s")


def write_sensitivity_curve(curve: SensitivityCurve, path) -> None:
    """Write the curve as a table (see rbmrelax.table) plus an argmin
    summary block of metadata comments."""
    comments = ["argmin",
                f"density_per_m3 = {curve.argmin_density:.17g}",
                f"r_total_per_s = {curve.rate_at_min:.17g}",
                f"delta_r_min_per_s = {curve.delta_min:.17g}",
                f"boundary_warning = {str(curve.boundary_warning).lower()}"]
    if curve.skipped:
        comments.append("skipped_densities = " +
                        ",".join(f"{n:.17g}" for n in curve.skipped))
    write_table(path, dict(zip(CURVE_COLUMNS, curve.points.T)), comments)
