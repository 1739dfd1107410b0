"""The batched variable-projection fit against a reference, and against
itself.

The reference is the per-curve damped least-squares fit the package used
before the batched fit: scipy's Levenberg-Marquardt with an analytic
Jacobian, started from the curve's own baseline, amplitude and T1 guess.
It lives here only, as scipy's PchipInterpolator does for hydro.
"""

import math
from pathlib import Path

import numpy as np
import pytest
from scipy.optimize import least_squares

from rbmrelax.measure_sim import (
    MeasurementPlan,
    RelaxationCurve,
    default_dark_times,
    expected_signal,
    fit_curves,
    fit_exponential,
    simulate_curve,
)
from rbmrelax.scenario import draw_spots, measurement_plan, parse_config, predict

CONFIGS = Path(__file__).resolve().parents[1] / "configs"
T1_REF = 130e-6


def lm_reference(tau, y, sig):
    """(t1, t1_stderr, converged, singular_curvature) of the LM fit."""
    order = np.argsort(tau, kind="stable")
    tau, y, sig = tau[order], y[order], sig[order]
    weighted = bool(np.all(sig > 0.0))
    w = 1.0 / sig if weighted else np.ones_like(tau)

    b0, a0 = float(y[-1]), float(y[0] - y[-1])
    if abs(a0) < 1e-12:
        a0 = max(abs(b0), 1.0) * 1e-3
    level = b0 + a0 / math.e
    crossing = tau[np.nonzero(y <= level)[0]] if a0 > 0 else tau[np.nonzero(y >= level)[0]]
    t10 = float(crossing[0]) if crossing.size else float(np.median(tau))

    def decay(t1):
        return np.exp(np.clip(-tau / t1, -700.0, 50.0))

    def residuals(p):
        b, a, t1 = p
        return (b + a * decay(t1) - y) * w

    def jac(p):
        _, a, t1 = p
        e = decay(t1)
        return np.column_stack([np.ones_like(tau), e, a * e * tau / t1**2]) * w[:, None]

    res = least_squares(residuals, x0=[b0, a0, t10], jac=jac, method="lm",
                        xtol=1e-14, ftol=1e-14, gtol=1e-14, max_nfev=2000)
    jtj = res.jac.T @ res.jac
    singular = False
    try:
        cov = np.linalg.inv(jtj)
        if not np.all(np.isfinite(cov)):
            raise np.linalg.LinAlgError
    except np.linalg.LinAlgError:
        cov = np.linalg.pinv(jtj)
        singular = True
    if not weighted:
        cov = cov * (2.0 * res.cost / (tau.size - 3))
    t1 = float(res.x[2])
    converged = bool(res.success) and res.status != 0 and t1 > 0.0
    return t1, math.sqrt(max(cov[2, 2], 0.0)), converged, singular


def simulated(config: str, n_spots: int):
    sc = parse_config(CONFIGS / config)
    plan = measurement_plan(sc, predict(sc).t1)
    t1_true, rngs = draw_spots(sc, np.random.SeedSequence(sc.seed, spawn_key=(0,)), n_spots)
    return [simulate_curve(float(t), plan, rng) for t, rng in zip(t1_true, rngs)]


def unweighted_curves(n):
    # one shot per point: stderr is the 0 sentinel, the fit is unweighted;
    # 5e5 counts per shot keep the decay resolved
    plan = MeasurementPlan(dark_times=default_dark_times(T1_REF), shots_per_point=1,
                           detection_window=500e-9, photon_rate=1e12, contrast=0.2)
    return [simulate_curve(T1_REF, plan, seed) for seed in range(n)]


def near_flat_curves(n):
    # a 1e-6 amplitude on a unit baseline, resolved at 1% noise
    rng = np.random.default_rng(5)
    taus = default_dark_times(T1_REF)
    curves = []
    for _ in range(n):
        pts = []
        for tau in taus:
            mu = 1.0 + 1e-6 * math.exp(-tau / T1_REF)
            pts.append((tau, mu + rng.normal(0.0, 1e-8), 1e-8))
        curves.append(RelaxationCurve(points=tuple(pts)))
    return curves


def unit_test_curves():
    # the noise-free, shuffled and rescaled curves the unit tests fit
    plan = MeasurementPlan(dark_times=default_dark_times(T1_REF), shots_per_point=200_000,
                           detection_window=500e-9, photon_rate=1e5, contrast=0.2)
    exact = RelaxationCurve(points=tuple((t, expected_signal(t, T1_REF, 0.2), 1e-6)
                                         for t in plan.dark_times))
    noisy = [simulate_curve(T1_REF, plan, seed) for seed in (5, 42, 99)]
    scaled = [RelaxationCurve(points=tuple((t * k, y, e) for t, y, e in noisy[0].points))
              for k in (1e-3, 1e3)]
    return [exact, RelaxationCurve(points=exact.points[::-1])] + noisy + scaled


CASES = {
    "gd_water": lambda: simulated("gd_water_25nm.ini", 500),
    "gd_acetone": lambda: simulated("gd_acetone_x046_25nm.ini", 500),
    "unit_test_curves": unit_test_curves,
    "unweighted": lambda: unweighted_curves(40),
    "near_flat": lambda: near_flat_curves(40),
}


@pytest.mark.parametrize("case", CASES)
def test_batched_fit_matches_lm_reference(case):
    # LM steps in (b, A, T1): next to a unit baseline its stopping rule
    # leaves the T1 of a 1e-6 amplitude off by up to ~2e-6, so the reference
    # fits the near-flat curves with the baseline moved to 0, an exact
    # subtraction that leaves T1 and its error as they are
    shift = 1.0 if case == "near_flat" else 0.0
    curves = CASES[case]()
    points = np.array([c.points for c in curves])
    fits = fit_curves(points[..., 0], points[..., 1], points[..., 2])
    assert len(fits) == len(curves)
    for curve, fit in zip(curves, fits):
        tau, y, sig = curve.arrays()
        t1, stderr, converged, singular = lm_reference(tau, y - shift, sig)
        assert (fit.converged, fit.singular_curvature) == (converged, singular)
        assert fit.converged
        assert fit.t1_hat == pytest.approx(t1, rel=1e-6)
        assert fit.t1_stderr == pytest.approx(stderr, rel=1e-6)


def test_fit_is_batch_invariant():
    # a row's fit must not depend on the rows sharing its batch: the same
    # bits alone, in a batch of 500 and in a reversed batch
    curves = simulated("gd_water_25nm.ini", 500)
    points = np.array([c.points for c in curves])
    together = fit_curves(points[..., 0], points[..., 1], points[..., 2])
    reversed_ = fit_curves(points[::-1, :, 0], points[::-1, :, 1], points[::-1, :, 2])[::-1]
    for curve, fit, fit_rev in zip(curves, together, reversed_):
        alone = fit_exponential(curve)
        assert alone.as_dict() == fit.as_dict() == fit_rev.as_dict()


def test_optimum_beyond_the_search_range_is_not_converged():
    # a decay far faster than the shortest dark time reads as a constant:
    # chi2 falls towards T1 -> 0, so the optimum sits on the lower bound
    taus = np.geomspace(1e-3, 1.0, 12)
    y = 0.8 + 0.2 * np.exp(-taus / 1e-9) + np.where(np.arange(12) % 2, 1e-4, -1e-4)
    fit, = fit_curves(taus[None], y[None], np.full((1, 12), 1e-4))
    assert not fit.converged
    assert fit.message == "not converged: optimum on the T1 search bound"
    assert math.isnan(fit.t1_hat) and math.isnan(fit.t1_stderr)


def test_converged_message_fits_the_old_width():
    fit = fit_exponential(unit_test_curves()[0])
    assert fit.converged and len(fit.message) <= 44


def test_non_finite_curvature_is_not_converged():
    # a stderr of 1e-170 squares past the largest double, so the curvature
    # matrix overflows: the fit reports that instead of handing the matrix
    # to an SVD that may never return
    taus = np.geomspace(1e-6, 1e-3, 8)
    y = 0.8 + 0.2 * np.exp(-taus / 1e-4) + 1e-171 * np.arange(8)
    with np.errstate(all="ignore"):
        fit, = fit_curves(taus[None], y[None], np.full((1, 8), 1e-170))
    assert not fit.converged
    assert fit.message == "not converged: covariance not finite"


def test_non_positive_t1_variance_is_not_converged():
    # a 5,000-shot curve whose true T1 (43.7 us) sits inside the grid, but
    # whose noise leaves a near-straight line: chi2 keeps falling toward
    # T1 -> infinity, the bracket closes near 4,450 s, and the T1 variance
    # of the curvature matrix comes out negative
    curve = RelaxationCurve((
        (1e-06, 0.94921875, 0.08501458940399313),
        (2.15887914036145e-06, 1.0465116279069768, 0.09111067924819671),
        (4.6607591426877845e-06, 1.0338983050847457, 0.09439468192660438),
        (1.0062015691397573e-05, 0.8365758754863813, 0.07731976836167237),
        (2.1722675786147812e-05, 0.9826086956521739, 0.09203327716749454),
        (4.689663162754928e-05, 0.9537815126050421, 0.0884858790042825),
        (0.00010124415977393096, 0.8640350877192983, 0.0840475982658144),
        (0.0002185739046193613, 0.7586206896551724, 0.07149541261247877)))
    fit = fit_exponential(curve)
    assert fit.covariance[2][2] < 0.0
    assert not fit.converged
    assert fit.message == "not converged: T1 variance not positive"
    assert math.isnan(fit.t1_hat) and math.isnan(fit.t1_stderr)
