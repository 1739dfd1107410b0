"""Derivation of the calibrated model constants shipped in the defaults.

Several model parameters are not measurable directly and are instead fixed
once against reference anchor values:

* the hydrodynamic radius of the magnetic molecule, from its known
  rotational rate of 14.2 GHz in pure acetone;
* the particle surface-spin areal density, from the 130 us T1 of a bare
  25 nm particle (surface-spin fluctuation rate set at the Lorentzian
  response maximum, R = omega0, which minimizes the density required);
* the vibrational rate offset and the dipolar rate-per-density coefficient
  of the molecular bath, from the sensitivity optimum: minimal detectable
  rate 6.9 GHz at a total rate of 60.2 GHz for a 20 nm particle at
  C = 0.2, 1e5 counts/s, 500 ns window, 10 s averaging.

Run it from the repository root to print every derived constant:

    PYTHONPATH=src python3 tools/calibrate.py

The frozen copies live in rbmrelax/scenario.py; tests/test_calibrate.py
re-derives each of them.  No CLI verb needs this script.
"""

from __future__ import annotations

from dataclasses import dataclass

from scipy.optimize import brentq

from rbmrelax.bath import (
    ParticleGeometry,
    SurfaceBath,
    VolumeBath,
    b_perp_sq_surface,
    volume_amplitude,
)
from rbmrelax.constants import OMEGA_0
from rbmrelax.core_relax import NoiseSource, rate_contribution
from rbmrelax.errors import positive, require
from rbmrelax.hydro import (
    A_S_ACETONE_DEFAULT,
    A_S_WATER_DEFAULT,
    SolventMixture,
    default_table_path,
    hydro_params_at,
    load_viscosity_table,
    rbm_rate,
    translational_rate,
)
from rbmrelax.sensitivity import SensitivityInputs, delta_r_min

# Longitudinal relaxation of the sensor spin in clean bulk crystal; a few ms
# is typical at room temperature.
T1_BULK_DEFAULT = 3.0e-3    # s
ROOM_TEMPERATURE = 298.0    # K, all shipped solvent data refers to this

# Anchor values the calibration reproduces.
ACETONE_ROTATIONAL_RATE = 14.2e9   # 1/s, molecule tumbling in pure acetone
BARE_T1_25NM = 130e-6              # s, bare 25 nm particle
BARE_DIAMETER = 25e-9              # m
SURFACE_RATE = 18.0e9              # 1/s, see module docstring
OPTIMUM_DELTA_20NM = 6.9e9         # 1/s, best detectable rate change, 20 nm
OPTIMUM_TOTAL_RATE = 60.2e9        # 1/s, total bath rate at that optimum
OPTIMUM_DIAMETER = 20e-9           # m
READOUT_CONTRAST = 0.2
PHOTON_RATE = 1e5                  # counts/s
DETECTION_WINDOW = 500e-9          # s
ACQUISITION_TIME = 10.0            # s


class NoSolutionError(ValueError):
    """A calibration has no solution in its search bracket."""


def reference_mixture() -> SolventMixture:
    """Water/acetone mixture backed by the shipped viscosity table."""
    return SolventMixture(viscosity_table=load_viscosity_table(default_table_path()),
                          a_s_water=A_S_WATER_DEFAULT, a_s_other=A_S_ACETONE_DEFAULT)


def calibrate_molecule_radius(mixture: SolventMixture | None = None,
                              temperature: float = ROOM_TEMPERATURE,
                              target_rate: float = ACETONE_ROTATIONAL_RATE) -> float:
    """Hydrodynamic radius reproducing the anchor rotational rate at x = 0.

    Bracketed root search on rbm_rate(a) - target over a in [0.1, 2] nm;
    the rate is strictly decreasing in a, so the root is unique.
    """
    if mixture is None:
        mixture = reference_mixture()

    def excess(a):
        return rbm_rate(hydro_params_at(mixture, a, temperature, x=0.0)) - target_rate

    lo, hi = 0.1e-9, 2.0e-9
    if excess(lo) < 0.0 or excess(hi) > 0.0:
        raise NoSolutionError("target rotational rate not bracketed by radii 0.1..2 nm")
    return float(brentq(excess, lo, hi, xtol=1e-18, rtol=1e-15))


def calibrate_surface(t1_target: float = BARE_T1_25NM,
                      diameter: float = BARE_DIAMETER,
                      t1_bulk: float = T1_BULK_DEFAULT,
                      surface_rate: float = SURFACE_RATE) -> float:
    """Areal surface-spin density (spin-1/2 electrons) at which a bare
    particle relaxes at t1_target.

    B_perp^2 is linear in sigma, so the inversion is closed-form:
    sigma = (1/t1_target - 1/t1_bulk) / rate-per-unit-density.
    """
    require(positive(t1_target), "t1_target must be positive, got {!r}", t1_target)
    if t1_target >= t1_bulk:
        raise NoSolutionError(
            f"t1_target ({t1_target:g} s) must be shorter than t1_bulk ({t1_bulk:g} s)")
    rate_needed = 1.0 / t1_target - 1.0 / t1_bulk
    b2_per_sigma = b_perp_sq_surface(ParticleGeometry(diameter=diameter),
                                     SurfaceBath(areal_density=1.0))
    rate_per_sigma = rate_contribution(
        NoiseSource(b_perp_sq=b2_per_sigma, tau_c=1.0 / surface_rate))
    return rate_needed / rate_per_sigma


def _log_curvature_terms(r: float, omega0: float) -> float:
    """d/dR of log(delta^2) without the density-dependent term.

    With the bath field variance proportional to density and the total rate
    R = R_base + kappa * n, delta^2 is proportional to
    (R / (R - R_base)) * (R^2 + w^2)^3 / (R^2 - w^2)^2 and its optimum
    satisfies 1/(R - R_base) = 1/R + 6R/(R^2+w^2) - 4R/(R^2-w^2).
    """
    return 1.0 / r + 6.0 * r / (r**2 + omega0**2) - 4.0 * r / (r**2 - omega0**2)


def base_rate_for_optimum(r_opt: float = OPTIMUM_TOTAL_RATE,
                          omega0: float = OMEGA_0) -> float:
    """Density-independent rate R_base placing the sensitivity optimum at r_opt."""
    slope = _log_curvature_terms(r_opt, omega0)
    if slope <= 0.0:
        raise NoSolutionError(f"no interior optimum can sit at {r_opt:g} /s")
    base = r_opt - 1.0 / slope
    if base <= 0.0:
        raise NoSolutionError(f"required base rate is non-positive at {r_opt:g} /s")
    return base


@dataclass(frozen=True)
class GdCalibration:
    """Molecular-bath constants pinned by the sensitivity optimum."""

    molecule_radius: float      # m
    base_rate: float            # 1/s, vib + trans + rot at the optimum
    vibration_rate: float       # 1/s
    kappa_dip: float            # 1/s per (1/m^3)
    optimal_density: float      # 1/m^3
    b_perp_sq_at_optimum: float  # T^2


def calibrate_gd_bath(mixture: SolventMixture | None = None,
                      temperature: float = ROOM_TEMPERATURE) -> GdCalibration:
    """Fix the molecular-bath constants from the sensitivity anchors.

    Order matters: the rotational and translational rates in water follow
    from the calibrated radius, the vibrational rate takes up the remainder
    of the required base rate, the field variance needed for the anchor
    sensitivity fixes the optimal density, and the dipolar coefficient is
    whatever rate is left at that density.
    """
    if mixture is None:
        mixture = reference_mixture()
    a = calibrate_molecule_radius(mixture, temperature)
    r0 = OPTIMUM_DIAMETER / 2.0

    water = hydro_params_at(mixture, a, temperature, x=1.0)
    r_rot = rbm_rate(water)
    r_trans = translational_rate(water, r0)
    base = base_rate_for_optimum()
    r_vib = base - r_rot - r_trans
    if r_vib <= 0.0:
        raise NoSolutionError(
            "rotation plus translation already exceed the required base rate")

    # invert the sensitivity formula for the field variance at the optimum
    probe = SensitivityInputs(contrast=READOUT_CONTRAST, photon_rate=PHOTON_RATE,
                              detection_window=DETECTION_WINDOW,
                              acquisition_time=ACQUISITION_TIME,
                              b_perp_sq=1.0, r_total=OPTIMUM_TOTAL_RATE)
    b2_opt = (delta_r_min(probe) / OPTIMUM_DELTA_20NM) ** 2

    bath_unit = VolumeBath(number_density=1.0)
    n_opt = b2_opt * r0**3 / volume_amplitude(bath_unit)
    kappa = (OPTIMUM_TOTAL_RATE - base) / n_opt
    return GdCalibration(molecule_radius=a, base_rate=base, vibration_rate=r_vib,
                         kappa_dip=kappa, optimal_density=n_opt,
                         b_perp_sq_at_optimum=b2_opt)


def main() -> None:
    mixture = reference_mixture()
    a = calibrate_molecule_radius(mixture)
    sigma = calibrate_surface()
    gd = calibrate_gd_bath(mixture)
    acetone = hydro_params_at(mixture, a, ROOM_TEMPERATURE, x=0.0)
    water = hydro_params_at(mixture, a, ROOM_TEMPERATURE, x=1.0)
    print(f"molecule_radius      = {a:.17e} m")
    print(f"  rate in acetone    = {rbm_rate(acetone) / 1e9:.6f} GHz")
    print(f"  rate in water      = {rbm_rate(water) / 1e9:.6f} GHz")
    print(f"surface_density      = {sigma:.17e} /m^2 ({sigma * 1e-18:.6f} /nm^2)")
    print(f"base_rate            = {gd.base_rate:.17e} /s")
    print(f"vibration_rate       = {gd.vibration_rate:.17e} /s")
    print(f"kappa_dip            = {gd.kappa_dip:.17e} s^-1 m^3")
    print(f"optimal_density      = {gd.optimal_density:.17e} /m^3")
    print(f"b_perp_sq_at_optimum = {gd.b_perp_sq_at_optimum:.17e} T^2")


if __name__ == "__main__":
    main()
