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

The Monte Carlo sum draws four uniforms and takes one sine per spin.
The sensor is centered with its axis along z, so B_perp^2 does not change
when a spin's position and moment turn together about z; each position is
therefore taken in the x-z half-plane, rhat = (sin theta, 0, cos theta)
with cos theta uniform on [-1, 1).  The moment is isotropic: cos theta_m
uniform on [-1, 1) and phi = 2 pi u uniform on [0, 2 pi).  cos phi is the
quarter-period sine sin(2 pi (|u - 1/2| - 1/4)), whose subtractions are
exact for multiples of 2^-53: libm takes it in about half the time of
cos on [0, 2 pi), and the two differ by at most 6.4e-16.  A volume-bath
spin's r^3 is uniform on [r_min^3, r_cut^3], which places it uniformly in
the shell.  Each chunk uses the uniforms of one rng.random((rows, k))
block whose rows are, in order, r^3 (volume bath only), cos theta,
cos theta_m and u.

The Monte Carlo runs in a fixed working set and never holds that block.
Per chunk the k columns are cut into contiguous parts, one per CPU (each
of at least _MIN_PART scratch columns), run on threads.  Part [a, b)
advances each row r's own generator r * k + a doubles into the chunk's
stream; per tile the kernel fills the rows of the part's columns of one
(rows + 2, _TILE) scratch block, computes in place with the two extra
rows as temporaries, and writes the samples into one chunk-wide row.
Both are allocated once per b_perp_mc call: a traced peak of 3.2 MiB
(surface) and 3.4 MiB (volume) whatever the sample count.  Every step
acts element by element, so no number depends on _TILE or the part
count; _CHUNK, which sets the streams, changes every one.

The closed forms broadcast: diameter, areal density and number density may
be numpy arrays, checked where they enter (scenario); the powers derived
from them here are checked element by element.
"""

from __future__ import annotations

import math
import os
import sys
import threading
from dataclasses import dataclass

import numpy as np

from .constants import GAMMA_E, HBAR, MU0_OVER_4PI
from .errors import ParameterError, power_finite, require

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
# columns of the scratch block, 256 KiB per row, shared by the parts; it
# changes no result.  With two parts on a 2-vCPU Xeon (2 MiB of L2 per core)
# 32,768 outran 16,384 by 18% and trailed 65,536, twice the block, by 7%
_TILE = 32_768
_MIN_PART = 8_192   # least scratch columns of a part, when a chunk is split


def is_spin(s: float) -> bool:
    """Whether s is a positive half-integer (to 1e-9); 2s is finite first."""
    return math.isfinite(2.0 * s) and s > 0.0 and abs(2.0 * s - round(2.0 * s)) <= 1e-9


def moment_sq(spin: float, gamma: float) -> float:
    """Squared magnitude gamma^2 hbar^2 S(S+1) of a fluctuating moment,
    (J/T)^2, for a positive half-integer spin (is_spin)."""
    require(power_finite(gamma, 2), "gamma {!r} is too large: its square overflows", gamma)
    m2 = gamma**2 * HBAR**2 * spin * (spin + 1.0)
    require(m2 < math.inf,
            f"spin {spin!r} and gamma {gamma!r} give a squared moment of {{!r}}", m2)
    return m2


@dataclass(frozen=True)
class ParticleGeometry:
    """Spherical particle with the sensor at its center; diameter, > 0, may
    be a numpy array."""

    diameter: float

    def __post_init__(self):
        # the surface field divides by radius**4, which must neither
        # overflow nor underflow
        require(power_finite(self.radius, 4),
                "diameter {!r} m is too large: its radius**4 overflows", self.diameter)
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
    require(power_finite(r_min, 3),
            "standoff {!r} m is too large: (radius + standoff)**3 overflows", bath.standoff)
    return volume_amplitude(bath) * bath.number_density / r_min**3


@dataclass(frozen=True)
class McFieldResult:
    """Monte Carlo estimate of B_perp^2 and its standard error.

    tail_fraction is the analytic beyond-cutoff share added to the mean
    (volume baths only); tail_warning flags a cutoff too small for the
    requested precision (tail correction exceeding the standard error).
    """

    mean: float
    stderr: float
    tail_fraction: float = 0.0
    tail_warning: bool = False


def _dipole_samples(gens, out, scratch, g: ParticleGeometry, bath, r_min, r_cut) -> np.ndarray:
    """Per-spin transverse field variance samples, T^2, written to out,
    columns [a, b) of a chunk's k, which it returns.

    gens holds one generator per row of the module docstring, each placed
    where column a of its row of rng.random((rows, k)) lies in the chunk's
    stream, so column j takes the doubles of column j of that block: one
    column per spin, a layout that fixes every Monte Carlo number.  With rhat =
    (sin theta, 0, cos theta), m . rhat = m_x sin theta + m_z cos theta,
    B_x = 3 (m . rhat) sin theta - m_x and B_y = -m_y, with m_y^2 =
    sin^2 theta_m (1 - cos^2 phi) and cos phi = sin(2 pi (|u - 1/2| - 1/4))
    (module docstring).  Tiles of at most scratch.shape[1] columns are
    drawn into the first rows of scratch (rows + 2 rows) and computed in
    place, the last two rows being temporaries; each tile's samples go to
    its columns of out.
    """
    scale = MU0_OVER_4PI * math.sqrt(moment_sq(bath.spin_quantum_number, bath.gamma))
    if isinstance(bath, SurfaceBath):
        amp = scale / g.radius**3
    else:
        # r^3 uniform on [r_min^3, r_cut^3] places the spin uniformly in the
        # shell; dividing it by the moment's scale keeps (r^3)^2 in range
        r3_span = (r_cut**3 - r_min**3) / scale
        r3_low = r_min**3 / scale

    for a in range(0, out.size, scratch.shape[1]):
        tile = scratch[:, :out.size - a]
        for gen, row in zip(gens, tile):
            gen.random(out=row)
        c, mz, cphi, mx, my2 = tile[-5:]
        c *= 2.0
        c -= 1.0
        mz *= 2.0
        mz -= 1.0
        cphi -= 0.5
        np.abs(cphi, out=cphi)
        cphi -= 0.25                            # |u - 1/2| - 1/4, exact
        cphi *= 2.0 * math.pi
        np.sin(cphi, out=cphi)                  # cos phi

        np.multiply(mz, mz, out=mx)
        np.subtract(1.0, mx, out=mx)            # sin^2 theta_m
        np.multiply(cphi, cphi, out=my2)
        np.subtract(1.0, my2, out=my2)
        my2 *= mx
        np.sqrt(mx, out=mx)
        mx *= cphi
        s = np.multiply(c, c, out=cphi)
        np.subtract(1.0, s, out=s)
        np.sqrt(s, out=s)                       # sin theta

        mz *= c
        bx = np.multiply(mx, s, out=out[a:a + tile.shape[1]])
        bx += mz                                # m . rhat
        bx *= 3.0
        bx *= s
        bx -= mx
        bx *= bx
        bx += my2

        if isinstance(bath, SurfaceBath):
            bx *= amp * amp
        else:
            r3 = tile[0]
            r3 *= r3_span
            r3 += r3_low
            r3 *= r3
            bx /= r3
    return out


def b_perp_mc(g: ParticleGeometry, bath, samples: int, seed: int,
              cutoff_factor: float = DEFAULT_CUTOFF_FACTOR) -> McFieldResult:
    """Monte Carlo dipolar sum for either bath geometry.

    Positions are sampled uniformly on the sphere surface (surface bath) or
    uniformly in the exterior shell out to cutoff_factor * r_min (volume
    bath, r^3 uniform, with the analytic r^-6 tail beyond the cutoff added
    back), each in the x-z half-plane: a turn about the sensor axis leaves
    B_perp^2 unchanged.  Spin orientations are isotropic (cos theta_m and
    phi uniform).  Sampling is split into fixed-size chunks, each taking
    the uniforms of one rng.random((rows, chunk)) block of its own spawned
    child stream, rows in the order r^3 (volume only), cos theta,
    cos theta_m, phi, drawn row by row and tile by tile in a working set
    that does not grow with samples, split by column across the CPUs
    (module docstring).  The sums of x and x^2 run over each whole chunk,
    as numpy pairwise sums, so they do not depend on the BLAS thread count;
    the mean and variance come from those totals, so no number depends on
    the part count and the result is reproducible for a given (samples,
    seed).  An exception in any part is raised here once every part ends.

    Returns the estimated mean and standard error of B_perp^2 in T^2;
    deterministic for fixed inputs.
    """
    require(isinstance(samples, (int, np.integer)) and samples >= MIN_MC_SAMPLES,
            f"samples must be an integer >= {MIN_MC_SAMPLES}, got {{!r}}", samples)
    r_cut = None
    if isinstance(bath, SurfaceBath):
        density, r_min = bath.areal_density, g.radius
        n_spins = bath.areal_density * 4.0 * math.pi * g.radius**2
        tail = 0.0
    elif isinstance(bath, VolumeBath):
        density = bath.number_density
        r_min = g.radius + bath.standoff
        require(math.isfinite(cutoff_factor) and cutoff_factor > 1.0,
                "cutoff_factor must be finite and exceed 1, got {!r}", cutoff_factor)
        r_cut = cutoff_factor * r_min
        require(power_finite(r_cut, 3),
                "cutoff_factor {!r} is too large: (cutoff_factor * r_min)**3 overflows",
                cutoff_factor)
        n_spins = bath.number_density * (4.0 * math.pi / 3.0) * (r_cut**3 - r_min**3)
        tail = volume_amplitude(bath) * bath.number_density / r_cut**3
    else:
        raise ParameterError(f"unsupported bath type {type(bath).__name__}")

    if density == 0.0:
        return McFieldResult(0.0, 0.0)

    n_chunks = (samples + _CHUNK - 1) // _CHUNK
    streams = np.random.SeedSequence(seed).spawn(n_chunks)
    rows = 3 if isinstance(bath, SurfaceBath) else 4
    width = min(_CHUNK, samples)
    out = np.empty(width)
    scratch = np.empty((rows + 2, min(_TILE, width)))
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    n_parts = max(1, min(cpus, scratch.shape[1] // _MIN_PART))
    blocks = np.array_split(scratch, n_parts, axis=1)
    errors = []

    def run_part(child, k, p):
        a, b = k * p // n_parts, k * (p + 1) // n_parts
        try:    # column a of row r of random((rows, k)) lies r * k + a doubles in
            gens = [np.random.Generator(np.random.PCG64(child).advance(r * k + a))
                    for r in range(rows)]
            out[a:b] = _dipole_samples(gens, out[a:b], blocks[p], g, bath, r_min, r_cut)
        except BaseException as exc:    # raised by the caller once every part has ended
            errors.append(exc)

    count, total, total_sq = 0, 0.0, 0.0
    for i, child in enumerate(streams):
        k = min(_CHUNK, samples - i * _CHUNK)
        threads = [threading.Thread(target=run_part, args=(child, k, p))
                   for p in range(1, n_parts)]
        for t in threads:
            t.start()
        run_part(child, k, 0)
        for t in threads:
            t.join()
        if errors:
            raise errors[0]
        vals = out[:k]
        count += k
        # numpy's pairwise sums, not a BLAS dot: the totals do not depend
        # on the BLAS thread count
        total += float(vals.sum())
        total_sq += float(np.square(vals, out=vals).sum())

    mean_one = total / count
    var_one = max(total_sq / count - mean_one**2, 0.0) * count / (count - 1)
    stderr = math.sqrt(var_one / count) * n_spins
    mean = mean_one * n_spins + tail
    tail_fraction = tail / mean if mean > 0.0 else 0.0
    return McFieldResult(mean=mean, stderr=stderr, tail_fraction=tail_fraction,
                         tail_warning=bool(stderr > 0.0 and tail > stderr))
