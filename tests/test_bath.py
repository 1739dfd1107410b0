import math

import numpy as np
import pytest

from rbmrelax.bath import (
    DEFAULT_CUTOFF_FACTOR,
    ParticleGeometry,
    SurfaceBath,
    VolumeBath,
    _dipole_samples,
    b_perp_mc,
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
    with pytest.raises(ParameterError):
        moment_sq(0.3, GAMMA_E)
    with pytest.raises(ParameterError):
        moment_sq(-0.5, GAMMA_E)


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
    assert big.samples == 260_000
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


def reference_samples(rng, k, g, bath, r_min, r_cut):
    """The row-wise (k, 3) dipole kernel that _dipole_samples replaced: unit
    vectors through np.linalg.norm, cos theta through einsum, and all three
    field components formed.  It lives here only, as the reference."""
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


@pytest.mark.parametrize("bath", [SURFACE, VOLUME], ids=["surface", "volume"])
@pytest.mark.parametrize("k", [10_000, 10_001, 250_000])
def test_dipole_kernel_matches_reference(bath, k):
    # einsum's order of the three products in cos theta depends on the
    # build, so samples agree to rounding, not bit for bit
    r_min = GEOM.radius
    r_cut = None if isinstance(bath, SurfaceBath) else DEFAULT_CUTOFF_FACTOR * r_min
    rng, rng_ref = np.random.default_rng(k), np.random.default_rng(k)
    got = _dipole_samples(rng, k, GEOM, bath, r_min, r_cut)
    want = reference_samples(rng_ref, k, GEOM, bath, r_min, r_cut)
    assert got.shape == (k,)
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)
    # both kernels use up the same draws
    assert rng.random() == rng_ref.random()


@pytest.mark.parametrize("bath, seed, mean, stderr", [
    (SURFACE, 9, 1.7756356164888528e-09, 2.309005390236922e-12),
    (VOLUME, 10, 1.9492646701975638e-08, 2.3434540067281385e-09),
], ids=["surface", "volume"])
def test_mc_pinned_across_two_chunks(bath, seed, mean, stderr):
    # recorded with the reference kernel above; any change to the draws,
    # their order or the chunking moves these far beyond 1e-12
    mc = b_perp_mc(GEOM, bath, samples=260_000, seed=seed)
    assert mc.mean == pytest.approx(mean, rel=1e-12)
    assert mc.stderr == pytest.approx(stderr, rel=1e-12)
