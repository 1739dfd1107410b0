import itertools
import math
import os
import sys
import threading
import tracemalloc

import numpy as np
import pytest

from rbmrelax import bath as bath_module
from rbmrelax.bath import (
    DEFAULT_CUTOFF_FACTOR,
    ParticleGeometry,
    SurfaceBath,
    VolumeBath,
    _chunk_sums,
    _dipole_samples,
    b_perp_mc,
    b_perp_mc_batch,
    b_perp_sq_surface,
    b_perp_sq_volume,
    moment_sq,
)
from rbmrelax.constants import GAMMA_E, HBAR, MU0_OVER_4PI
from rbmrelax.errors import ParameterError

GEOM = ParticleGeometry(diameter=25.0e-9)
SURFACE = SurfaceBath(areal_density=1.0e18, spin_quantum_number=0.5)
VOLUME = VolumeBath(number_density=1.0e26, spin_quantum_number=3.5)


def test_moment_sq_value():
    # gamma^2 hbar^2 S(S+1) for S=1/2, hand-evaluated
    expected = GAMMA_E**2 * HBAR**2 * 0.75
    assert moment_sq(0.5, GAMMA_E) == pytest.approx(expected, rel=1e-14)


def test_surface_closed_form_value():
    # hand-evaluated (mu0/4pi)^2 mu^2 (4/3) 4 pi sigma / r0^4
    assert b_perp_sq_surface(GEOM, SURFACE) == pytest.approx(
        1.7748894029885463e-09, rel=1e-13)


def test_volume_closed_form_value():
    # hand-evaluated (mu0/4pi)^2 mu^2 (4/3) (4 pi / 3) n / r0^3
    assert b_perp_sq_volume(GEOM, VOLUME) == pytest.approx(
        1.5530282276149779e-08, rel=1e-13)


def test_linearity_in_density():
    base_s = b_perp_sq_surface(GEOM, SURFACE)
    base_v = b_perp_sq_volume(GEOM, VOLUME)
    for k in (2.0, 7.5, 1e-3):
        s2 = b_perp_sq_surface(GEOM, SurfaceBath(areal_density=k * 1.0e18))
        v2 = b_perp_sq_volume(GEOM, VolumeBath(number_density=k * 1.0e26))
        assert s2 == pytest.approx(k * base_s, rel=1e-12)
        assert v2 == pytest.approx(k * base_v, rel=1e-12)


def test_volume_standoff_shortens_field():
    near = b_perp_sq_volume(GEOM, VOLUME)
    far = b_perp_sq_volume(
        GEOM, VolumeBath(number_density=1.0e26, spin_quantum_number=3.5,
                         standoff=5.0e-9))
    # r_min grows from 12.5 to 17.5 nm; field scales as r_min^-3
    assert far / near == pytest.approx((12.5 / 17.5) ** 3, rel=1e-12)


def test_geometry_validation():
    with pytest.raises(ParameterError):
        ParticleGeometry(diameter=0.0)
    # radius**4 underflows to 0 in double precision, for a scalar or an element
    with pytest.raises(ParameterError, match=r"^diameter 1e-300 m is too small"):
        ParticleGeometry(diameter=1e-300)
    with pytest.raises(ParameterError, match=r"^diameter 1e-300 m is too small"):
        ParticleGeometry(diameter=np.array([25e-9, 1e-300]))


def test_mc_matches_surface_closed_form():
    closed = b_perp_sq_surface(GEOM, SURFACE)
    mc = b_perp_mc(GEOM, SURFACE, samples=100_000, seed=11)
    assert abs(mc.mean - closed) <= 3.0 * mc.stderr
    assert mc.stderr > 0.0
    assert mc.tail_fraction == 0.0


def test_mc_matches_volume_closed_form():
    closed = b_perp_sq_volume(GEOM, VOLUME)
    mc = b_perp_mc(GEOM, VOLUME, samples=100_000, seed=12)
    assert abs(mc.mean - closed) <= 3.0 * mc.stderr
    assert 0.0 < mc.tail_fraction < 0.01


def test_mc_deterministic_and_seed_sensitive():
    a = b_perp_mc(GEOM, SURFACE, samples=20_000, seed=5)
    b = b_perp_mc(GEOM, SURFACE, samples=20_000, seed=5)
    c = b_perp_mc(GEOM, SURFACE, samples=20_000, seed=6)
    assert a == b
    assert a.mean != c.mean


def test_mc_chunking_invariant():
    # crossing the internal chunk boundary must not change the estimator
    big = b_perp_mc(GEOM, SURFACE, samples=260_000, seed=9)
    small = b_perp_mc(GEOM, SURFACE, samples=250_000, seed=9)
    # first chunk identical by construction, so means are close but the
    # merged result reflects all samples
    assert big.mean != small.mean
    assert abs(big.mean - small.mean) < 5.0 * small.stderr


def test_mc_zero_density_shortcut():
    mc = b_perp_mc(GEOM, SurfaceBath(areal_density=0.0), samples=50_000, seed=3)
    assert mc.mean == 0.0 and mc.stderr == 0.0


def test_mc_sample_floor():
    with pytest.raises(ParameterError):
        b_perp_mc(GEOM, SURFACE, samples=9_999, seed=1)


def test_mc_tail_warning_on_tight_cutoff():
    mc = b_perp_mc(GEOM, VOLUME, samples=10_000, seed=4, cutoff_factor=1.5)
    assert mc.tail_fraction > 0.01
    assert mc.tail_warning
    with pytest.raises(ParameterError):
        b_perp_mc(GEOM, VOLUME, samples=10_000, seed=4, cutoff_factor=0.9)


def half_plane_reference(rng, k, g, bath, r_min, r_cut, azimuth=None):
    """The kernel's sampling written out as (k, 3) vectors: the same uniforms
    in the same row order build the full position rhat (sin theta cos psi,
    sin theta sin psi, cos theta), the full isotropic moment m and the
    vector field 3 (m . rhat) rhat - m.  azimuth psi (default 0) turns
    every position and moment together about the sensor axis z (a scalar or
    one angle per sample).

    The moment's y component is sin theta_m |sin phi| signed by sin phi;
    |sin phi| comes from cos phi, as in the kernel, because sin(phi) from
    np.sin differs from it by rounding that 1 - cos^2 phi amplifies near
    phi = 0 and pi.  Returns the samples and the (k, 3) r and m arrays."""
    u = rng.random((3 if isinstance(bath, SurfaceBath) else 4, k))
    cos_t, cos_m = 2.0 * u[-3] - 1.0, 2.0 * u[-2] - 1.0
    phi = 2.0 * math.pi * u[-1]
    if isinstance(bath, SurfaceBath):
        radii = np.full(k, g.radius)
    else:
        radii = np.cbrt(r_min**3 + u[0] * (r_cut**3 - r_min**3))
    sin_t, sin_m, cos_p = np.sqrt(1.0 - cos_t**2), np.sqrt(1.0 - cos_m**2), np.cos(phi)
    sin_p = np.copysign(np.sqrt(1.0 - cos_p**2), np.sin(phi))
    rhat = np.column_stack((sin_t, np.zeros(k), cos_t))
    moments = np.column_stack((sin_m * cos_p, sin_m * sin_p, cos_m))
    if azimuth is not None:
        c, s = np.cos(azimuth), np.sin(azimuth)
        rhat, moments = (np.column_stack((c * v[:, 0] - s * v[:, 1],
                                          s * v[:, 0] + c * v[:, 1], v[:, 2]))
                         for v in (rhat, moments))
    mu = math.sqrt(moment_sq(bath.spin_quantum_number, bath.gamma))
    cosang = np.einsum("ij,ij->i", moments, rhat)
    field = MU0_OVER_4PI * mu * (3.0 * cosang[:, None] * rhat - moments) / radii[:, None] ** 3
    return field[:, 0] ** 2 + field[:, 1] ** 2, radii[:, None] * rhat, moments


def normal_vector_samples(gens, tile, g, bath, r_min, r_cut):
    """The earlier dipole kernel: Gaussian-normalized position and moment
    vectors (one standard_normal((k, 3)) each) and r^3-uniform radii through
    a cube root.  It draws a different stream, so it lives here only, as
    the distributional reference for the half-plane kernel.  It takes the
    kernel's arguments, but only the first generator and the width k of
    tile, and returns a fresh array."""
    rng, k = gens[0], tile.shape[1]

    def unit_vectors():
        v = rng.standard_normal((k, 3))
        return v / np.linalg.norm(v, axis=1, keepdims=True)

    if isinstance(bath, SurfaceBath):
        radii = np.full(k, g.radius)
    else:
        u = rng.random(k)
        radii = np.cbrt(r_min**3 + u * (r_cut**3 - r_min**3))
    pos = unit_vectors() * radii[:, None]
    moments = unit_vectors()
    dist = np.linalg.norm(pos, axis=1)
    rhat = pos / dist[:, None]
    mu = math.sqrt(moment_sq(bath.spin_quantum_number, bath.gamma))
    cosang = np.einsum("ij,ij->i", moments, rhat)
    field = MU0_OVER_4PI * mu * (3.0 * cosang[:, None] * rhat - moments) / dist[:, None] ** 3
    return field[:, 0] ** 2 + field[:, 1] ** 2


def _rows(bath):
    return 3 if isinstance(bath, SurfaceBath) else 4


def quarter_period_cos(u):
    """cos(2 pi u) as the kernel takes it, sin(2 pi (|u - 1/2| - 1/4)),
    computed in place on u, which it returns."""
    u -= 0.5
    np.abs(u, out=u)
    u -= 0.25
    u *= 2.0 * math.pi
    return np.sin(u, out=u)


@pytest.mark.parametrize("u", [np.array([0.0, 2.0**-53, 0.125, 0.25, 0.5, 0.75,
                                         1.0 - 2.0**-53]),
                               np.random.default_rng(2).random(1_000_000)],
                         ids=["edges", "draws"])
def test_quarter_period_sine_matches_the_cosine(u):
    # the subtractions are exact for multiples of 2^-53, so the fold and
    # the scalar reference differ only by the rounding of two libm calls
    want = np.cos(2.0 * math.pi * u)
    got = quarter_period_cos(u.copy())
    np.testing.assert_allclose(got, want, rtol=0.0, atol=2.0**-50)
    assert np.all(np.abs(got) <= 1.0)


def one_shot_samples(rng, k, g, bath, r_min, r_cut):
    """The earlier form of the half-plane kernel: one fresh rng.random((rows,
    k)) block and two fresh temporaries, with the arithmetic on whole rows.
    The tiled kernel, drawing each row from its own generator, must give
    the same bits from the same draws."""
    u = rng.random((_rows(bath), k))
    c, mz, cphi = u[-3], u[-2], u[-1]
    c *= 2.0
    c -= 1.0
    mz *= 2.0
    mz -= 1.0
    quarter_period_cos(cphi)

    mx = np.multiply(mz, mz)
    np.subtract(1.0, mx, out=mx)            # sin^2 theta_m
    my2 = np.multiply(cphi, cphi)
    np.subtract(1.0, my2, out=my2)
    my2 *= mx
    np.sqrt(mx, out=mx)
    mx *= cphi
    s = np.multiply(c, c, out=cphi)
    np.subtract(1.0, s, out=s)
    np.sqrt(s, out=s)                       # sin theta

    mz *= c
    bx = np.multiply(mx, s, out=c)
    bx += mz                                # m . rhat
    bx *= 3.0
    bx *= s
    bx -= mx
    bx *= bx
    bx += my2

    scale = MU0_OVER_4PI * math.sqrt(moment_sq(bath.spin_quantum_number, bath.gamma))
    if isinstance(bath, SurfaceBath):
        amp = scale / g.radius**3
        bx *= amp * amp
    else:
        r3 = u[0]
        r3 *= (r_cut**3 - r_min**3) / scale
        r3 += r_min**3 / scale
        r3 *= r3
        bx /= r3
    return bx


def chunk_gens(seed, k, bath):
    """One generator per row, each advanced to where its row of
    default_rng(seed).random((rows, k)) starts."""
    return [np.random.Generator(np.random.PCG64(seed).advance(r * k))
            for r in range(_rows(bath))]


def tiled_samples(seed, k, bath, r_min, r_cut):
    """The kernel run tile by tile over k columns in one fresh block, the
    samples materialised in one k-wide row.  Returns the samples and the
    last row's generator, which goes on where random((rows, k)) ends."""
    gens = chunk_gens(seed, k, bath)
    block = np.empty((_rows(bath) + 2, min(bath_module._TILE, k)))
    tiles = [_dipole_samples(gens, block[:, :min(block.shape[1], k - a)], GEOM, bath,
                             r_min, r_cut).copy() for a in range(0, k, block.shape[1])]
    return np.concatenate(tiles), gens[-1]


def _limits(bath):
    r_min = GEOM.radius
    return r_min, None if isinstance(bath, SurfaceBath) else DEFAULT_CUTOFF_FACTOR * r_min


@pytest.mark.parametrize("bath", [SURFACE, VOLUME], ids=["surface", "volume"])
@pytest.mark.parametrize("k", [10_000, 10_001, 250_000])
def test_dipole_kernel_matches_reference(bath, k):
    # einsum's order of the three products in cos theta depends on the
    # build, so samples agree to rounding, not bit for bit
    r_min, r_cut = _limits(bath)
    rng_ref = np.random.default_rng(k)
    got, last = tiled_samples(k, k, bath, r_min, r_cut)
    want, pos, _ = half_plane_reference(rng_ref, k, GEOM, bath, r_min, r_cut)
    assert got.shape == (k,)
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)
    # both kernels use up the same draws
    assert last.random() == rng_ref.random()
    # the reference's positions lie on the sphere or in the shell
    dist = np.linalg.norm(pos, axis=1)
    assert np.all(dist >= r_min * (1.0 - 1e-15))
    if r_cut is not None:
        assert np.all(dist <= r_cut * (1.0 + 1e-15))


@pytest.mark.parametrize("bath", [SURFACE, VOLUME], ids=["surface", "volume"])
@pytest.mark.parametrize("k", [10_000, 65_536, 65_537, 250_000])
def test_tiled_kernel_is_bit_identical_to_one_shot(bath, k):
    # per-row generators draw the block's doubles, and every step acts
    # element by element, so tiles change no bit; 65,536 and 65,537
    # columns end on and just past a tile edge of 32,768
    r_min, r_cut = _limits(bath)
    rng_ref = np.random.default_rng(k)
    got, last = tiled_samples(k, k, bath, r_min, r_cut)
    want = one_shot_samples(rng_ref, k, GEOM, bath, r_min, r_cut)
    assert np.array_equal(got, want)
    # the last row's generator goes on where random((rows, k)) stopped
    assert last.random() == rng_ref.random()


@pytest.mark.parametrize("bath", [SURFACE, VOLUME], ids=["surface", "volume"])
@pytest.mark.parametrize("tile", [1_000, 250_000])
def test_mc_tile_width_changes_no_bit(monkeypatch, bath, tile):
    # 260,000 samples: a full chunk, then a 10,000-column one in the same block
    want = b_perp_mc(GEOM, bath, samples=260_000, seed=9)
    monkeypatch.setattr(bath_module, "_TILE", tile)
    assert b_perp_mc(GEOM, bath, samples=260_000, seed=9) == want


def seen_cpus():
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1


@pytest.mark.parametrize("bath", [SURFACE, VOLUME], ids=["surface", "volume"])
def test_mc_working_set_is_one_block(bath):
    # one (rows + 2, _TILE) block of doubles per worker plus 1 MiB for the
    # rest, however many chunks run, and no chunk-wide row: at two workers
    # 3.5 MiB surface, 4.0 MiB volume (traced 2.5 and 3.0 MiB)
    workers = min(seen_cpus(), 4)   # 1,000,000 samples are four chunks
    bound = workers * (_rows(bath) + 2) * bath_module._TILE * 8 + 2**20
    tracemalloc.start()
    try:
        b_perp_mc(GEOM, bath, samples=1_000_000, seed=21)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= bound


def report_cpus(monkeypatch, n):
    """Make b_perp_mc_batch see n CPUs, so that it runs up to n workers."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)), raising=False)


class CountedThread(threading.Thread):
    """A thread that counts its starts in the class's list."""
    started = []

    def start(self):
        CountedThread.started.append(self)
        super().start()


@pytest.mark.parametrize("bath", [SURFACE, VOLUME], ids=["surface", "volume"])
@pytest.mark.parametrize("samples", [10_000, 260_000, 1_000_000])
def test_mc_does_not_depend_on_the_worker_count(monkeypatch, bath, samples):
    # a batch equals its requests run one by one, bit for bit, whatever the
    # number of workers; 260,000 samples are a full chunk, then a
    # 10,000-column one, and the other request adds two chunks
    other = (GEOM, VOLUME if bath is SURFACE else SURFACE, 300_000, 3)
    report_cpus(monkeypatch, 1)
    want = [b_perp_mc(GEOM, bath, samples=samples, seed=17), b_perp_mc(*other)]
    monkeypatch.setattr(threading, "Thread", CountedThread)
    n_chunks = -(-samples // bath_module._CHUNK) + 2
    for cpus in (1, 2, 3, 5, None):
        if cpus is None:   # the platform cannot tell the CPUs: one worker
            monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        else:
            report_cpus(monkeypatch, cpus)
        CountedThread.started.clear()
        assert b_perp_mc_batch([(GEOM, bath, samples, 17), other]) == want
        # the caller's thread is a worker too
        assert len(CountedThread.started) == min(cpus or 1, n_chunks) - 1
        assert b_perp_mc(GEOM, bath, samples=samples, seed=17) == want[0]


def test_mc_batch_does_not_depend_on_its_order_or_split(monkeypatch):
    # more workers than cores, switching threads often: a lost, repeated
    # or misplaced chunk sum would change a result
    requests = [(GEOM, bath, n, seed) for seed, (bath, n) in enumerate(
        [(SURFACE, 10_000), (VOLUME, 260_000), (SURFACE, 31_623), (VOLUME, 10_000),
         (SURFACE, 600_000), (VOLUME, 50_000), (SurfaceBath(areal_density=0.0), 20_000)])]
    report_cpus(monkeypatch, 1)
    want = [b_perp_mc(*request) for request in requests]
    assert want[-1] == bath_module.McFieldResult(0.0, 0.0)
    report_cpus(monkeypatch, 8)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        assert b_perp_mc_batch(requests) == want
        assert b_perp_mc_batch(requests[::-1]) == want[::-1]
        assert b_perp_mc_batch(requests[:3]) + b_perp_mc_batch(requests[3:]) == want
    finally:
        sys.setswitchinterval(interval)


@pytest.mark.parametrize("bath", [SURFACE, VOLUME], ids=["surface", "volume"])
@pytest.mark.parametrize("tile", [1_000, 32_768])
@pytest.mark.parametrize("k", [10_000, 10_007, 31_623, 65_537, 249_999, 250_000])
def test_chunk_sums_are_numpys_pairwise_sums(bath, tile, k):
    # the chunk's tree of tiles, split where numpy's pairwise sum splits a
    # row, gives np.sum's bits over the materialised row; if numpy ever
    # changes its summation order, this test says so
    r_min, r_cut = _limits(bath)
    row, _ = tiled_samples(k, k, bath, r_min, r_cut)
    block = np.empty((_rows(bath) + 2, min(tile, k)))
    got = _chunk_sums(chunk_gens(k, k, bath), block, k, GEOM, bath, r_min, r_cut)
    assert got == (float(row.sum()), float(np.square(row).sum()))


@pytest.mark.parametrize("bath", [SURFACE, VOLUME], ids=["surface", "volume"])
@pytest.mark.parametrize("cpus", [2, 3])
def test_mc_working_set_and_tiles_at_several_parts(monkeypatch, bath, cpus):
    # the chunks dealt to several workers, each with its own block, whose
    # width changes no bit
    report_cpus(monkeypatch, cpus)
    test_mc_working_set_is_one_block(bath)
    for tile in (1_000, 250_000):
        with monkeypatch.context() as m:
            test_mc_tile_width_changes_no_bit(m, bath, tile)


def test_mc_raises_a_failing_worker(monkeypatch):
    # a worker that fails on its thread fails the batch once every worker
    # has ended: one exception, no result, no thread left running
    calls = itertools.count()

    def fail_on_the_third_tile(*args):
        if next(calls) == 2:
            raise MemoryError("worker")
        return _dipole_samples(*args)

    report_cpus(monkeypatch, 2)
    monkeypatch.setattr(bath_module, "_dipole_samples", fail_on_the_third_tile)
    before = threading.active_count()
    with pytest.raises(MemoryError, match="^worker$"):
        b_perp_mc_batch([(GEOM, VOLUME, 260_000, 9), (GEOM, SURFACE, 500_000, 8)])
    assert threading.active_count() == before


@pytest.mark.parametrize("kwargs, match", [
    ({"cutoff_factor": math.inf}, r"^cutoff_factor must be finite and exceed 1, got inf$"),
    ({"cutoff_factor": math.nan}, r"^cutoff_factor must be finite and exceed 1, got nan$"),
    ({"cutoff_factor": 1e300}, r"^cutoff_factor 1e\+300 is too large"),
    ({"samples": 10_000.5}, r"^samples must be an integer >= 10000, got 10000\.5$"),
    ({"samples": 20_000.0}, r"^samples must be an integer >= 10000, got 20000\.0$"),
], ids=["cutoff-inf", "cutoff-nan", "cutoff-overflow", "samples-fraction", "samples-float"])
def test_mc_rejects_bad_arguments(kwargs, match):
    args = {"samples": 20_000, "seed": 1, **kwargs}
    with pytest.raises(ParameterError, match=match):
        b_perp_mc(GEOM, VOLUME, **args)


@pytest.mark.parametrize("bath", [SURFACE, VOLUME], ids=["surface", "volume"])
def test_dipole_samples_invariant_under_turns_about_the_axis(bath):
    # B_perp^2 depends on the position and moment only through their
    # common azimuth-free geometry, which is what lets the kernel fix the
    # position's azimuth at 0; every sample is a sum of squares
    r_min, r_cut = _limits(bath)
    k = 20_000
    got, _ = tiled_samples(3, k, bath, r_min, r_cut)
    assert np.all(got >= 0.0)
    azimuth = np.random.default_rng(4).uniform(0.0, 2.0 * math.pi, k)
    turned, pos, moments = half_plane_reference(
        np.random.default_rng(3), k, GEOM, bath, r_min, r_cut, azimuth=azimuth)
    # the turned positions and moments are spread over every azimuth
    for v in (pos, moments):
        psi = np.arctan2(v[:, 1], v[:, 0])
        assert np.histogram(psi, bins=8, range=(-math.pi, math.pi))[0].min() > k / 8 * 0.9
    np.testing.assert_allclose(turned, got, rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("bath", [SURFACE, VOLUME], ids=["surface", "volume"])
@pytest.mark.parametrize("seed", [101, 202])
def test_half_plane_kernel_matches_normal_vector_kernel(monkeypatch, bath, seed):
    # the two streams are independent estimates of one mean; the reference
    # draws every tile of a chunk from its first generator only
    new = b_perp_mc(GEOM, bath, samples=1_000_000, seed=seed)
    monkeypatch.setattr(bath_module, "_dipole_samples", normal_vector_samples)
    old = b_perp_mc(GEOM, bath, samples=1_000_000, seed=seed)
    assert old.mean != new.mean
    assert abs(new.mean - old.mean) <= 4.0 * math.hypot(new.stderr, old.stderr)
    assert new.stderr == pytest.approx(old.stderr, rel=0.2)


def test_surface_z_spread_over_seeds():
    # z = (MC - closed form) / stderr over many seeds is a standard normal
    # sample: its mean within 4 standard errors of 0, its variance within
    # 4 standard errors of 1 (the variance of a sample variance of n
    # normals is 2 / (n - 1))
    closed = b_perp_sq_surface(GEOM, SURFACE)
    n = 400
    z = np.array([(mc.mean - closed) / mc.stderr for mc in
                  (b_perp_mc(GEOM, SURFACE, samples=10_000, seed=5000 + i) for i in range(n))])
    assert abs(z.mean()) < 4.0 / math.sqrt(n)
    assert abs(z.var(ddof=1) - 1.0) < 4.0 * math.sqrt(2.0 / (n - 1))


@pytest.mark.parametrize("bath, seed, mean, stderr", [
    (SURFACE, 9, 1.7733916040603673e-09, 2.31087665896819e-12),
    (VOLUME, 10, 1.9344459335204807e-08, 2.5442047957003882e-09),
], ids=["surface", "volume"])
def test_mc_pinned_across_two_chunks(bath, seed, mean, stderr):
    # recorded with half_plane_reference in place of the kernel; any change
    # to the draws, their order or the chunking moves these far beyond 1e-12
    mc = b_perp_mc(GEOM, bath, samples=260_000, seed=seed)
    assert mc.mean == pytest.approx(mean, rel=1e-12)
    assert mc.stderr == pytest.approx(stderr, rel=1e-12)
