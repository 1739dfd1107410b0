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
Threads, one per CPU up to the chunk count, run whole chunks of every
request of a b_perp_mc_batch.  Row r of a k-column chunk draws from its
own generator, advanced r * k doubles into the chunk's stream.  The chunk
is walked as numpy's pairwise sum walks a k-wide row, a node of more than
_TILE columns splitting at k//2 - (k//2) % 8, so its sums are numpy's
bit for bit; each leaf is drawn, computed and summed in the worker's one
(rows + 2, _TILE) block, two rows being temporaries: a traced peak of
1.3 MiB (surface) and 1.5 MiB (volume) per worker.  No number depends on
_TILE or the worker count; _CHUNK, which sets the streams, changes every
one.

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
# columns of each worker's block, 256 KiB per row; it changes no result.  Two
# workers on a 2-vCPU Xeon took 18% longer at 16,384, and as long at 65,536
_TILE = 32_768


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


def _dipole_samples(gens, tile, g: ParticleGeometry, bath, r_min, r_cut) -> np.ndarray:
    """Per-spin transverse field variance samples, T^2, of a chunk's next
    tile.shape[1] columns, written to and returned as the spent cos theta
    row of tile, whose first rows the uniforms fill and whose last two are
    temporaries.  gens holds one generator per row of the module
    docstring, each where that column of its row of rng.random((rows, k))
    lies in the chunk's stream: one column per spin, a layout that fixes
    every Monte Carlo number.  With rhat = (sin theta, 0, cos theta),
    m . rhat = m_x sin theta + m_z cos theta, B_x = 3 (m . rhat) sin theta
    - m_x and B_y = -m_y, with m_y^2 = sin^2 theta_m (1 - cos^2 phi) and
    cos phi = sin(2 pi (|u - 1/2| - 1/4))."""
    scale = MU0_OVER_4PI * math.sqrt(moment_sq(bath.spin_quantum_number, bath.gamma))
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
    bx = np.multiply(mx, s, out=c)          # cos theta is spent
    bx += mz                                # m . rhat
    bx *= 3.0
    bx *= s
    bx -= mx
    bx *= bx
    bx += my2

    if isinstance(bath, SurfaceBath):
        amp = scale / g.radius**3
        bx *= amp * amp
    else:
        # r^3 uniform on [r_min^3, r_cut^3] places the spin uniformly in the
        # shell; dividing it by the moment's scale keeps (r^3)^2 in range
        r3 = tile[0]
        r3 *= (r_cut**3 - r_min**3) / scale
        r3 += r_min**3 / scale
        r3 *= r3
        bx /= r3
    return bx


def _chunk_sums(gens, block, n, *kernel_args) -> tuple:
    """Sum and sum of squares of a chunk's next n samples, bit for bit
    numpy's pairwise sums of one n-wide row of them: a node wider than
    block splits where numpy's does, and each leaf sums one tile."""
    if n <= block.shape[1]:
        vals = _dipole_samples(gens, block[:, :n], *kernel_args)
        return float(vals.sum()), float(np.square(vals, out=vals).sum())
    h = n // 2 - n // 2 % 8
    (s1, q1), (s2, q2) = (_chunk_sums(gens, block, m, *kernel_args) for m in (h, n - h))
    return s1 + s2, q1 + q2


def _mc_setup(g: ParticleGeometry, bath, samples: int, seed: int,
              cutoff_factor: float = DEFAULT_CUTOFF_FACTOR) -> tuple:
    """Checks one b_perp_mc request; returns its sample rows, r_min, r_cut,
    spin count, analytic tail and chunk streams (none at zero density)."""
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
    n_chunks = 0 if density == 0.0 else (samples + _CHUNK - 1) // _CHUNK
    streams = np.random.SeedSequence(seed).spawn(n_chunks)
    return 3 if isinstance(bath, SurfaceBath) else 4, r_min, r_cut, n_spins, tail, streams


def b_perp_mc_batch(requests) -> list:
    """b_perp_mc of each request, a tuple of its positional arguments
    (g, bath, samples, seed[, cutoff_factor]), all checked before anything
    is drawn.  Threads, one per CPU up to the chunk count, take the
    (request, chunk) jobs largest first (module docstring), and each
    request adds its chunk sums in chunk order: no result depends on the
    worker count or the rest of the batch.  A worker's exception is raised
    once every worker has ended."""
    setups = [_mc_setup(*request) for request in requests]
    jobs = sorted(((min(_CHUNK, requests[i][2] - c * _CHUNK), i, c)
                   for i, setup in enumerate(setups) for c in range(len(setup[-1]))),
                  key=lambda job: -job[0])
    sums = [[None] * len(setup[-1]) for setup in setups]
    todo, lock, errors = iter(jobs), threading.Lock(), []

    def work():
        try:
            block = np.empty((max(setup[0] for setup in setups) + 2, min(_TILE, jobs[0][0])))
            while not errors:
                with lock:
                    k, i, c = next(todo, (0, 0, 0))
                if not k:
                    return
                rows, r_min, r_cut, _, _, streams = setups[i]
                gens = [np.random.Generator(np.random.PCG64(streams[c]).advance(r * k))
                        for r in range(rows)]
                sums[i][c] = _chunk_sums(gens, block[-rows - 2:], k, *requests[i][:2],
                                         r_min, r_cut)
        except BaseException as exc:    # raised by the caller once every worker has ended
            errors.append(exc)

    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    threads = [threading.Thread(target=work) for _ in range(1, min(cpus, len(jobs)))]
    for t in threads:
        t.start()
    if jobs:
        work()
    for t in threads:
        t.join()
    if errors:
        raise errors[0]

    results = []
    for request, (*_, n_spins, tail, streams), chunk_sums in zip(requests, setups, sums):
        count, total, total_sq = request[2], 0.0, 0.0
        for s, q in chunk_sums:    # in chunk order, which Python's sum() may not keep
            total, total_sq = total + s, total_sq + q
        mean_one = total / count
        var_one = max(total_sq / count - mean_one**2, 0.0) * count / (count - 1)
        stderr = math.sqrt(var_one / count) * n_spins
        mean = mean_one * n_spins + tail
        results.append(McFieldResult(mean, stderr, tail / mean if mean > 0.0 else 0.0,
                                     bool(stderr > 0.0 and tail > stderr))
                       if streams else McFieldResult(0.0, 0.0))
    return results


def b_perp_mc(g: ParticleGeometry, bath, samples: int, seed: int,
              cutoff_factor: float = DEFAULT_CUTOFF_FACTOR) -> McFieldResult:
    """Monte Carlo dipolar sum for either bath geometry, the one-request
    case of b_perp_mc_batch.

    Positions are sampled uniformly on the sphere surface (surface bath) or
    uniformly in the exterior shell out to cutoff_factor * r_min (volume
    bath, r^3 uniform, with the analytic r^-6 tail beyond the cutoff added
    back), each in the x-z half-plane: a turn about the sensor axis leaves
    B_perp^2 unchanged.  Spin orientations are isotropic.  Each fixed-size
    chunk takes its uniforms from its own spawned child stream, and the
    mean and variance come from numpy's pairwise sums of x and x^2 over
    each chunk (module docstring), so they depend on neither the BLAS
    thread count nor the worker count.

    Returns the estimated mean and standard error of B_perp^2 in T^2;
    deterministic for fixed (samples, seed).
    """
    return b_perp_mc_batch([(g, bath, samples, seed, cutoff_factor)])[0]
