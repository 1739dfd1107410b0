"""The batched variable-projection fit against a reference, and against
itself.

The reference is the per-curve damped least-squares fit the package used
before the batched fit: scipy's Levenberg-Marquardt with an analytic
Jacobian, started from the curve's own baseline, amplitude and T1 guess.
It lives here only, as scipy's PchipInterpolator does for hydro.
"""

import json
import math
from pathlib import Path

import numpy as np
import pytest
from scipy.optimize import least_squares

from rbmrelax.measure_sim import (
    MeasurementPlan,
    default_dark_times,
    fit_curves,
    fit_exponential,
    simulate_curve,
)
from rbmrelax.scenario import draw_spots, measurement_plan, parse_config, predict

CONFIGS = Path(__file__).resolve().parents[1] / "configs"
T1_REF = 130e-6
# the record of a row whose tau grid is too short to fit, key by key in
# fit_curves' order
TOO_SHORT = {"t1_hat_s": math.nan, "t1_stderr_s": math.nan, "amplitude": math.nan,
             "baseline": math.nan, "covariance": [[0.0] * 3 for _ in range(3)],
             "reduced_chi_sq": math.nan, "converged": False,
             "message": "tau grid too short: must reach 2x the t1 guess or span a decade",
             "singular_curvature": False}


def rows(fits):
    """fit_curves' columns as one dict of plain values per row."""
    lists = {key: column.tolist() for key, column in fits.items()}
    return [dict(zip(lists, row)) for row in zip(*lists.values())]


def same_fields(a, b) -> bool:
    """Equal values, bit for bit, with NaN equal to NaN (as JSON text)."""
    return json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


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


# Each case is a (tau, signal, stderr) triple of (n_curves, n_points) arrays.

def simulated(config: str, n_spots: int):
    sc = parse_config(CONFIGS / config)
    plan = measurement_plan(sc, predict(sc)["t1_s"])
    t1_true, rngs = draw_spots(sc, np.random.SeedSequence(sc.seed, spawn_key=(0,)), n_spots)
    return simulate_curve(t1_true, rngs, plan)


def seeded(plan, seeds):
    # spot j draws from default_rng(seeds[j])
    return simulate_curve(np.full(len(seeds), T1_REF),
                          [np.random.default_rng(seed) for seed in seeds], plan)


def unweighted_curves(n):
    # one shot per point: stderr is the 0 sentinel, the fit is unweighted;
    # 5e5 counts per shot keep the decay resolved
    plan = MeasurementPlan(dark_times=default_dark_times(T1_REF), shots_per_point=1,
                           detection_window=500e-9, photon_rate=1e12, contrast=0.2)
    return seeded(plan, range(n))


def near_flat_curves(n):
    # a 1e-6 amplitude on a unit baseline, resolved at 1% noise
    rng = np.random.default_rng(5)
    tau = np.tile(default_dark_times(T1_REF), (n, 1))
    y = 1.0 + 1e-6 * np.exp(-tau / T1_REF) + rng.normal(0.0, 1e-8, tau.shape)
    return tau, y, np.full_like(tau, 1e-8)


def unit_test_curves():
    # the noise-free, shuffled and rescaled curves the unit tests fit
    plan = MeasurementPlan(dark_times=default_dark_times(T1_REF), shots_per_point=200_000,
                           detection_window=500e-9, photon_rate=1e5, contrast=0.2)
    tau = np.array(plan.dark_times)
    exact = np.array([tau, 0.8 + 0.2 * np.exp(-tau / T1_REF), np.full_like(tau, 1e-6)])
    noisy = np.array(seeded(plan, (5, 42, 99))).transpose(1, 0, 2)
    tau0, y0, sig0 = noisy[0]
    scaled = [(tau0 * k, y0, sig0) for k in (1e-3, 1e3)]
    curves = np.array([exact, exact[:, ::-1], *noisy, *scaled])
    return curves[:, 0], curves[:, 1], curves[:, 2]


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
    fits = fit_curves(*curves)
    assert len(fits["converged"]) == len(curves[0])
    for tau, y, sig, fit in zip(*curves, rows(fits)):
        t1, stderr, converged, singular = lm_reference(tau, y - shift, sig)
        assert (fit["converged"], fit["singular_curvature"]) == (converged, singular)
        assert fit["converged"]
        assert fit["t1_hat_s"] == pytest.approx(t1, rel=1e-6)
        assert fit["t1_stderr_s"] == pytest.approx(stderr, rel=1e-6)


@pytest.mark.parametrize("case", CASES)
def test_fit_columns_hold_the_record_invariants(case):
    # what a per-row record once re-checked on every fit: one entry per row
    # in each column, a 3x3 covariance per row, and a finite, positive T1
    # wherever the fit converged
    curves = CASES[case]()
    n = len(curves[0])
    fits = fit_curves(*curves)
    assert list(fits) == list(TOO_SHORT)
    assert all(len(column) == n for column in fits.values())
    assert fits["covariance"].shape == (n, 3, 3)
    t1 = fits["t1_hat_s"][fits["converged"]]
    assert np.all(np.isfinite(t1) & (t1 > 0.0))


def test_too_short_row_keeps_the_failed_record():
    # a 1-5 ms linear grid under a 10 ms decay neither spans a decade nor
    # reaches twice the curve's T1 guess: inserted among the unit-test
    # curves, its row holds the failed record field for field, and the
    # other rows come out as they do without it
    curves = unit_test_curves()
    taus = np.linspace(1e-3, 5e-3, curves[0].shape[-1])
    short = (taus, 0.8 + 0.2 * np.exp(-taus / 10e-3), np.full_like(taus, 1e-3))
    mixed = fit_curves(*(np.insert(v, 2, row, axis=0) for v, row in zip(curves, short)))
    assert same_fields(rows(mixed)[2], TOO_SHORT)
    without = rows(fit_curves(*curves))
    assert same_fields(rows(mixed)[:2] + rows(mixed)[3:], without)


def test_fit_is_batch_invariant():
    # a row's fit must not depend on the rows sharing its batch: the same
    # bits alone, in a batch of 500 and in a reversed batch
    curves = simulated("gd_water_25nm.ini", 500)
    together = rows(fit_curves(*curves))
    reversed_ = rows(fit_curves(*(v[::-1] for v in curves)))[::-1]
    for tau, y, sig, fit, fit_rev in zip(*curves, together, reversed_):
        alone, = rows(fit_exponential(tau, y, sig))
        assert alone == fit == fit_rev


def test_optimum_beyond_the_search_range_is_not_converged():
    # a decay far faster than the shortest dark time reads as a constant:
    # chi2 falls towards T1 -> 0, so the optimum sits on the lower bound
    taus = np.geomspace(1e-3, 1.0, 12)
    y = 0.8 + 0.2 * np.exp(-taus / 1e-9) + np.where(np.arange(12) % 2, 1e-4, -1e-4)
    fit, = rows(fit_curves(taus[None], y[None], np.full((1, 12), 1e-4)))
    assert not fit["converged"]
    assert fit["message"] == "not converged: optimum on the T1 search bound"
    assert math.isnan(fit["t1_hat_s"]) and math.isnan(fit["t1_stderr_s"])


def test_converged_message_fits_the_old_width():
    fit, = rows(fit_exponential(*(v[0] for v in unit_test_curves())))
    assert fit["converged"] and len(fit["message"]) <= 44


def test_non_finite_curvature_is_not_converged():
    # a stderr of 1e-170 squares past the largest double, so the curvature
    # matrix overflows: the fit reports that instead of handing the matrix
    # to an SVD that may never return
    taus = np.geomspace(1e-6, 1e-3, 8)
    y = 0.8 + 0.2 * np.exp(-taus / 1e-4) + 1e-171 * np.arange(8)
    with np.errstate(all="ignore"):
        fit, = rows(fit_curves(taus[None], y[None], np.full((1, 8), 1e-170)))
    assert not fit["converged"]
    assert fit["message"] == "not converged: covariance not finite"


def test_non_positive_t1_variance_is_not_converged():
    # a 5,000-shot curve whose true T1 (43.7 us) sits inside the grid, but
    # whose noise leaves a near-straight line: chi2 keeps falling toward
    # T1 -> infinity, the bracket closes near 4,450 s, and the T1 variance
    # of the curvature matrix comes out negative
    curve = np.array((
        (1e-06, 0.94921875, 0.08501458940399313),
        (2.15887914036145e-06, 1.0465116279069768, 0.09111067924819671),
        (4.6607591426877845e-06, 1.0338983050847457, 0.09439468192660438),
        (1.0062015691397573e-05, 0.8365758754863813, 0.07731976836167237),
        (2.1722675786147812e-05, 0.9826086956521739, 0.09203327716749454),
        (4.689663162754928e-05, 0.9537815126050421, 0.0884858790042825),
        (0.00010124415977393096, 0.8640350877192983, 0.0840475982658144),
        (0.0002185739046193613, 0.7586206896551724, 0.07149541261247877)))
    fit, = rows(fit_exponential(*curve.T))
    assert fit["covariance"][2][2] < 0.0
    assert not fit["converged"]
    assert fit["message"] == "not converged: T1 variance not positive"
    assert math.isnan(fit["t1_hat_s"]) and math.isnan(fit["t1_stderr_s"])
