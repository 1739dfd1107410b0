"""The oracle's adaptive quadrature against a reference, and its limit.

The reference is scipy.integrate.quad, which the quadrature oracle called
before it got its own numpy rule.  It lives here only, as scipy's
least_squares does for the fit.  Both sides run with the oracle's own
settings: epsabs 0, the given epsrel, at most 200 subintervals.
"""

import math
import warnings

import numpy as np
import pytest
from scipy.integrate import quad

import rbmrelax.validation as validation
from rbmrelax.core_relax import NoiseSource, lorentzian_psd
from rbmrelax.validation import (
    QUAD_LIMIT,
    _QUAD_CASES,
    _adaptive_quad,
    _QuadratureLimit,
    check_lorentzian_quadrature,
)

# the oracle's three integrals: (a, b, breakpoints, epsrel)
RANGES = ((0.0, 1.0, (), 1e-12), (1.0, math.inf, (), 1e-12),
          (0.0, 50.0, (1.0,), 1e-13))
# agreement with scipy and with the antiderivative: both quadratures aim at
# a relative error of 1e-12 or better, so they may differ by that much
AGREEMENT = 1e-12


def scipy_quad(f, a, b, points, epsrel):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a scipy IntegrationWarning fails
        value, _ = quad(f, a, b, points=list(points) or None, limit=QUAD_LIMIT,
                        epsabs=0.0, epsrel=epsrel)
    return value


def rescaled_density(b2, tau_c, tau_ref):
    """The oracle's integrand: lorentzian_psd at omega = u / tau_ref."""
    src = NoiseSource(b_perp_sq=b2, tau_c=tau_c)
    return lambda u: lorentzian_psd(src, u / tau_ref) / tau_ref


def antiderivative_integral(b2, k, a, b):
    """Integral of 2 b2 k / (1 + (k u)^2) over [a, b], the density above
    with k = tau_c / tau_ref."""
    if math.isinf(b):
        return 2.0 * b2 * math.atan(1.0 / (a * k))
    return 2.0 * b2 * (math.atan(b * k) - math.atan(a * k))


@pytest.mark.parametrize("case", range(len(_QUAD_CASES)))
@pytest.mark.parametrize("a, b, points, epsrel", RANGES)
def test_oracle_cases_match_scipy(case, a, b, points, epsrel):
    b2, tau_c = _QUAD_CASES[case]
    f = rescaled_density(b2, tau_c, tau_c)
    ours = _adaptive_quad(f, a, b, epsrel=epsrel, points=points)
    assert ours == pytest.approx(scipy_quad(f, a, b, points, epsrel),
                                 rel=AGREEMENT, abs=0.0)
    assert ours == pytest.approx(antiderivative_integral(b2, 1.0, a, b),
                                 rel=AGREEMENT, abs=0.0)


@pytest.mark.parametrize("tau_c", np.logspace(-12.0, -3.0, 10))
@pytest.mark.parametrize("a, b, points, epsrel", RANGES)
def test_sharply_peaked_density_matches_scipy(tau_c, a, b, points, epsrel):
    # one frequency scale for every tau_c, so the knee of the density moves
    # from u = 3e4 to u = 3e-5: a narrow peak at u = 0, or a long flat top
    tau_ref = math.sqrt(1e-12 * 1e-3)
    f = rescaled_density(0.3, tau_c, tau_ref)
    ours = _adaptive_quad(f, a, b, epsrel=epsrel, points=points)
    assert ours == pytest.approx(scipy_quad(f, a, b, points, epsrel),
                                 rel=AGREEMENT, abs=0.0)
    assert ours == pytest.approx(antiderivative_integral(0.3, tau_c / tau_ref, a, b),
                                 rel=AGREEMENT, abs=0.0)


def test_polynomial_is_exact_to_round_off():
    # degree 9 is within both Gauss-Legendre rules, so one interval serves;
    # positive on [0, 2], so round-off is relative to the value itself.
    # Round-off here is 50 machine epsilons, the smallest relative
    # tolerance QUADPACK accepts: numpy's 21-point weights carry relative
    # errors of a few epsilons each.
    round_off = 50 * np.finfo(float).eps
    poly = np.polynomial.Polynomial(np.arange(1.0, 11.0))
    exact = poly.integ()(2.0) - poly.integ()(0.0)
    ours = _adaptive_quad(lambda x: float(poly(x)), 0.0, 2.0, epsrel=1e-13)
    assert ours == pytest.approx(exact, rel=round_off, abs=0.0)
    assert ours == pytest.approx(scipy_quad(poly, 0.0, 2.0, (), 1e-13),
                                 rel=round_off, abs=0.0)


def test_half_line_maps_a_decaying_tail():
    ours = _adaptive_quad(lambda x: math.exp(-x), 1.0, math.inf, epsrel=1e-12)
    assert ours == pytest.approx(math.exp(-1.0), rel=AGREEMENT, abs=0.0)


def oscillating(x):
    # 800,000 periods over [0, 50]: 200 subintervals cannot resolve them
    return 1.0 + 0.5 * math.sin(1.0e5 * x)


def test_subdivision_limit_raises():
    with pytest.raises(_QuadratureLimit, match="in 200 subintervals"):
        _adaptive_quad(oscillating, 0.0, 50.0, epsrel=1e-13, points=(1.0,))
    # a NaN integrand never meets its tolerance either
    with pytest.raises(_QuadratureLimit):
        _adaptive_quad(lambda x: math.nan, 0.0, 1.0, epsrel=1e-12)


def test_check_fails_when_a_quadrature_runs_out_of_subintervals(monkeypatch):
    def unresolvable_psd(source, omega):
        return lorentzian_psd(source, omega) * oscillating(omega * source.tau_c)

    monkeypatch.setattr(validation, "lorentzian_psd", unresolvable_psd)
    check = check_lorentzian_quadrature()
    assert not check.passed
    for i in range(len(_QUAD_CASES)):
        assert "missed epsrel" in check.details[f"case{i}_failure"]
        assert f"case{i}_rel_err_full" not in check.details


def test_check_reports_errors_to_three_digits():
    check = check_lorentzian_quadrature()
    assert check.passed
    for key, value in check.details.items():
        assert value == float(f"{value:.3g}"), key
