"""Mean-square transverse dipolar fields at a sensor inside a nanoparticle.

Two bath geometries are supported: spins spread over the particle surface
with an areal density, and molecules filling the exterior volume with a
number density.  The sensor sits at the particle center, where closed
forms exist; a Monte Carlo dipolar sum validates them.

The closed forms rest on two geometric constants that the Monte Carlo
oracle checks rather than assumes:

* the orientation-averaged squared dipolar field of one moment mu at
  distance r is 2 * (mu0/4pi)^2 mu^2 / r^6;
* a sensor whose axis is random with respect to the bath sees 2/3 of that
  variance transverse to its axis.

Their product is the factor 4/3 in the amplitude constants below.

The closed forms broadcast: diameter, areal density and number density may
be numpy arrays, validated element by element.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .constants import GAMMA_E, HBAR, MU0_OVER_4PI
from .errors import ParameterError, nonnegative, positive, require

# Orientation-averaged variance factor of a single dipole (see module
# docstring) and the transverse fraction for a randomly oriented sensor.
ISOTROPIC_VARIANCE_FACTOR = 2.0
TRANSVERSE_FRACTION = 2.0 / 3.0
_GEOM = ISOTROPIC_VARIANCE_FACTOR * TRANSVERSE_FRACTION  # 4/3

# Monte Carlo defaults
MIN_MC_SAMPLES = 10_000
DEFAULT_CUTOFF_FACTOR = 20.0
# samples per spawned stream; changing it changes every Monte Carlo result
_CHUNK = 250_000


def _check_spin(s: float) -> float:
    if not math.isfinite(s) or s <= 0.0 or abs(2.0 * s - round(2.0 * s)) > 1e-9:
        raise ParameterError(f"spin quantum number must be a positive half-integer, got {s!r}")
    return s


def moment_sq(spin: float, gamma: float) -> float:
    """Squared magnitude gamma^2 hbar^2 S(S+1) of a fluctuating moment, (J/T)^2."""
    s = _check_spin(spin)
    return gamma**2 * HBAR**2 * s * (s + 1.0)


@dataclass(frozen=True)
class ParticleGeometry:
    """Spherical particle with the sensor at its center; diameter may be a
    numpy array."""

    diameter: float

    def __post_init__(self):
        require(positive(self.diameter), "diameter must be positive, got {!r}", self.diameter)
        # the surface field divides by radius**4, which must not underflow
        require(self.radius**4 >= sys.float_info.min,
                "diameter {!r} m is too small: its radius**4 underflows", self.diameter)

    @property
    def radius(self) -> float:
        return self.diameter / 2.0


@dataclass(frozen=True)
class SurfaceBath:
    """Unpaired spins spread uniformly over the particle surface."""

    areal_density: float        # 1/m^2
    spin_quantum_number: float = 0.5
    gamma: float = GAMMA_E

    def __post_init__(self):
        require(nonnegative(self.areal_density),
                "areal density must be >= 0, got {!r}", self.areal_density)
        _check_spin(self.spin_quantum_number)
        if self.gamma == 0.0 or not math.isfinite(self.gamma):
            raise ParameterError("gamma must be finite and nonzero")


@dataclass(frozen=True)
class VolumeBath:
    """Magnetic molecules filling the solvent outside the particle.

    standoff is the closest-approach distance beyond the particle radius
    (0 means molecules reach the surface).
    """

    number_density: float       # 1/m^3
    spin_quantum_number: float = 3.5
    gamma: float = GAMMA_E
    standoff: float = 0.0

    def __post_init__(self):
        require(nonnegative(self.number_density),
                "number density must be >= 0, got {!r}", self.number_density)
        _check_spin(self.spin_quantum_number)
        if self.gamma == 0.0 or not math.isfinite(self.gamma):
            raise ParameterError("gamma must be finite and nonzero")
        if not (math.isfinite(self.standoff) and self.standoff >= 0.0):
            raise ParameterError(f"standoff must be >= 0, got {self.standoff!r}")


def surface_amplitude(bath: SurfaceBath) -> float:
    """Amplitude A such that B_perp^2 = A * sigma / r0^4, units T^2 m^2."""
    return MU0_OVER_4PI**2 * moment_sq(bath.spin_quantum_number, bath.gamma) \
        * _GEOM * 4.0 * math.pi


def volume_amplitude(bath: VolumeBath) -> float:
    """Amplitude A such that B_perp^2 = A * n / r_min^3, units T^2 m^3."""
    return MU0_OVER_4PI**2 * moment_sq(bath.spin_quantum_number, bath.gamma) \
        * _GEOM * (4.0 * math.pi / 3.0)


def b_perp_sq_surface(g: ParticleGeometry, bath: SurfaceBath):
    """Mean-square transverse field from the surface bath, T^2.

    Integrating the single-spin variance 2 (mu0/4pi)^2 mu^2 / r0^6 times the
    transverse fraction over the sphere gives A_s * sigma / r0^4; linear in
    the areal density.
    """
    return surface_amplitude(bath) * bath.areal_density / g.radius**4


def b_perp_sq_volume(g: ParticleGeometry, bath: VolumeBath):
    """Mean-square transverse field from the exterior molecular bath, T^2.

    The exterior integral of r^-6 from r_min = r0 + standoff outward gives
    A_v * n / r_min^3; linear in the number density.
    """
    r_min = g.radius + bath.standoff
    return volume_amplitude(bath) * bath.number_density / r_min**3


@dataclass(frozen=True)
class McFieldResult:
    """Monte Carlo estimate of B_perp^2 with its reproducibility record.

    tail_fraction is the analytic beyond-cutoff share added to the mean
    (volume baths only); tail_warning flags a cutoff too small for the
    requested precision (tail correction exceeding the standard error).
    """

    mean: float
    stderr: float
    samples: int
    seed: int
    tail_fraction: float = 0.0
    tail_warning: bool = False


def _norms(v: np.ndarray) -> np.ndarray:
    """Row norms sqrt(x*x + y*y + z*z) of a (3, k) array; the same sum, in
    the same order, as np.linalg.norm(axis=1) of its transpose."""
    s = v[0] * v[0]
    s += v[1] * v[1]
    s += v[2] * v[2]
    return np.sqrt(s, out=s)


def _unit_columns(rng: np.random.Generator, k: int) -> np.ndarray:
    v = np.ascontiguousarray(rng.standard_normal((k, 3)).T)
    v /= _norms(v)
    return v


def _dipole_samples(rng, k, g: ParticleGeometry, bath, r_min, r_cut) -> np.ndarray:
    """Per-spin transverse field variance samples, T^2.

    Draws, in this order: the radii (volume bath only, one rng.random(k)),
    the positions and the moment orientations (one standard_normal((k, 3))
    each).  That order fixes every Monte Carlo number.  The arithmetic runs
    in place on contiguous (3, k) copies, one row per Cartesian component.
    """
    if isinstance(bath, SurfaceBath):
        radii = g.radius
    else:
        u = rng.random(k)
        radii = np.cbrt(r_min**3 + u * (r_cut**3 - r_min**3))
    pos = _unit_columns(rng, k)
    pos *= radii
    moments = _unit_columns(rng, k)

    dist = _norms(pos)
    rhat = pos
    rhat /= dist

    cos3 = moments[0] * rhat[0]
    cos3 += moments[1] * rhat[1]
    cos3 += moments[2] * rhat[2]
    cos3 *= 3.0
    scale = MU0_OVER_4PI * math.sqrt(moment_sq(bath.spin_quantum_number, bath.gamma))
    dist3 = dist**3
    # the ensemble is isotropic about the centered sensor, so the lab z
    # axis serves as the sensor axis and only the x and y field components
    # are formed
    fx, fy = rhat[0], rhat[1]
    for f, m in ((fx, moments[0]), (fy, moments[1])):
        f *= cos3
        f -= m
        f *= scale
        f /= dist3
        f *= f
    fx += fy
    return fx


def b_perp_mc(g: ParticleGeometry, bath, samples: int, seed: int,
              cutoff_factor: float = DEFAULT_CUTOFF_FACTOR) -> McFieldResult:
    """Monte Carlo dipolar sum for either bath geometry.

    Positions are sampled uniformly on the sphere surface (surface bath) or
    uniformly in the exterior shell out to cutoff_factor * r_min (volume
    bath, with the analytic r^-6 tail beyond the cutoff added back).  Spin
    orientations are isotropic.  Sampling is split into fixed-size chunks,
    each drawing from its own spawned child stream; the sums of x and x^2
    run over every chunk, and the mean and variance come from those totals,
    so the result is reproducible for a given (samples, seed) regardless of
    how chunks are dispatched.

    Returns the estimated mean and standard error of B_perp^2 in T^2;
    deterministic for fixed inputs.
    """
    if samples < MIN_MC_SAMPLES:
        raise ParameterError(f"need at least {MIN_MC_SAMPLES} samples, got {samples}")
    r_cut = None
    if isinstance(bath, SurfaceBath):
        density, r_min = bath.areal_density, g.radius
        n_spins = bath.areal_density * 4.0 * math.pi * g.radius**2
        tail = 0.0
    elif isinstance(bath, VolumeBath):
        density = bath.number_density
        r_min = g.radius + bath.standoff
        r_cut = cutoff_factor * r_min
        if cutoff_factor <= 1.0:
            raise ParameterError("cutoff_factor must exceed 1")
        n_spins = bath.number_density * (4.0 * math.pi / 3.0) * (r_cut**3 - r_min**3)
        tail = volume_amplitude(bath) * bath.number_density / r_cut**3
    else:
        raise ParameterError(f"unsupported bath type {type(bath).__name__}")

    if density == 0.0:
        return McFieldResult(0.0, 0.0, samples, seed)

    n_chunks = (samples + _CHUNK - 1) // _CHUNK
    streams = np.random.SeedSequence(seed).spawn(n_chunks)
    count, total, total_sq = 0, 0.0, 0.0
    for i, child in enumerate(streams):
        k = min(_CHUNK, samples - i * _CHUNK)
        vals = _dipole_samples(np.random.default_rng(child), k, g, bath, r_min, r_cut)
        count += k
        total += float(vals.sum())
        total_sq += float(np.dot(vals, vals))

    mean_one = total / count
    var_one = max(total_sq / count - mean_one**2, 0.0) * count / (count - 1)
    stderr = math.sqrt(var_one / count) * n_spins
    mean = mean_one * n_spins + tail
    tail_fraction = tail / mean if mean > 0.0 else 0.0
    return McFieldResult(mean=mean, stderr=stderr, samples=samples, seed=seed,
                         tail_fraction=tail_fraction,
                         tail_warning=bool(stderr > 0.0 and tail > stderr))
