"""Photon-counting relaxometry: protocol simulation, decay fitting, and
spot-ensemble statistics.

The simulated protocol reads the sensor after a variable dark time tau and
normalizes the signal window against a fully repolarized reference window of
equal length.  Expected normalized signal:

    s(tau) = 1 - C + C * exp(-tau / T1)

so s(0) = 1 and the long-tau thermal limit is 1 - C.  All counts are
Poisson; both the signal and reference Poisson errors propagate into the
per-point standard error through first-order ratio statistics.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.optimize import least_squares

from .errors import ConfigError, ParameterError
from .table import read_table, write_table

_MIN_FIT_POINTS = 4


@dataclass(frozen=True)
class MeasurementPlan:
    """Acquisition settings for one relaxation curve.

    dark_times: sorted tau grid in s (>= 4 points); shots_per_point: shot
    repetitions per tau; detection_window: readout window length in s;
    photon_rate: detected counts/s during the window; contrast: relative
    signal swing between polarized and thermal states, in (0, 1).
    """

    dark_times: tuple
    shots_per_point: int
    detection_window: float
    photon_rate: float
    contrast: float
    include_reference: bool = True

    def __post_init__(self):
        taus = tuple(float(t) for t in self.dark_times)
        if len(taus) < _MIN_FIT_POINTS:
            raise ParameterError(f"need >= {_MIN_FIT_POINTS} dark times, got {len(taus)}")
        if any(t < 0.0 or not math.isfinite(t) for t in taus):
            raise ParameterError("dark times must be finite and >= 0")
        if any(b < a for a, b in zip(taus, taus[1:])):
            raise ParameterError("dark times must be sorted ascending")
        if self.shots_per_point < 1:
            raise ParameterError(f"shots_per_point must be >= 1, got {self.shots_per_point!r}")
        if not (math.isfinite(self.detection_window) and self.detection_window > 0.0):
            raise ParameterError("detection window must be positive")
        if not (math.isfinite(self.photon_rate) and self.photon_rate > 0.0):
            raise ParameterError("photon rate must be positive")
        if not (0.0 < self.contrast < 1.0):
            raise ParameterError(f"contrast must lie in (0, 1), got {self.contrast!r}")
        object.__setattr__(self, "dark_times", taus)

    @property
    def counts_per_shot(self) -> float:
        """Expected reference counts in one shot."""
        return self.photon_rate * self.detection_window


def default_dark_times(t1_expected: float, n_points: int = 12,
                       tau_min: float = 1e-6, span_factor: float = 5.0) -> tuple:
    """Log-spaced tau grid from tau_min to span_factor * t1_expected."""
    if not (math.isfinite(t1_expected) and t1_expected > 0.0):
        raise ParameterError(f"t1_expected must be positive, got {t1_expected!r}")
    if n_points < _MIN_FIT_POINTS:
        raise ParameterError(f"need >= {_MIN_FIT_POINTS} points, got {n_points}")
    tau_max = span_factor * t1_expected
    if tau_max <= tau_min:
        raise ParameterError("tau grid is empty: span_factor * t1_expected <= tau_min")
    return tuple(np.geomspace(tau_min, tau_max, n_points))


def expected_signal(tau: float, t1: float, contrast: float) -> float:
    """Noise-free normalized signal at dark time tau."""
    return 1.0 - contrast + contrast * math.exp(-tau / t1)


@dataclass(frozen=True)
class RelaxationCurve:
    """Normalized relaxation signal versus dark time.

    points: tuple of (tau_s, signal, stderr).
    """

    points: tuple

    def __post_init__(self):
        pts = tuple((float(t), float(y), float(e)) for t, y, e in self.points)
        for t, y, e in pts:
            if t < 0.0 or not math.isfinite(t):
                raise ParameterError(f"bad dark time {t!r}")
            if not math.isfinite(y):
                raise ParameterError(f"bad signal value {y!r}")
            if e < 0.0 or not math.isfinite(e):
                raise ParameterError(f"bad stderr {e!r}")
        object.__setattr__(self, "points", pts)

    def arrays(self):
        a = np.array(self.points, dtype=float)
        return a[:, 0], a[:, 1], a[:, 2]


def simulate_curve(t1_true: float, plan: MeasurementPlan, seed) -> RelaxationCurve:
    """Simulate one relaxation curve with photon shot noise.

    Per dark time, expected signal counts per shot are
    counts_per_shot * s(tau) and reference counts are counts_per_shot; the
    normalized signal is the ratio of shot-summed totals.  A sum of
    independent Poisson draws is itself Poisson, so only the totals are
    drawn.  Deterministic for a fixed seed.

    With shots_per_point == 1 the per-point error is not estimable from the
    data; stderr is set to 0 as a sentinel that downstream fits treat as
    "unweighted".
    """
    if not (math.isfinite(t1_true) and t1_true > 0.0):
        raise ParameterError(f"t1_true must be positive, got {t1_true!r}")
    rng = np.random.default_rng(seed)
    shots = plan.shots_per_point
    mu_ref_shot = plan.counts_per_shot

    points = []
    for tau in plan.dark_times:
        mu_sig_shot = mu_ref_shot * expected_signal(tau, t1_true, plan.contrast)
        sig_total = int(rng.poisson(shots * mu_sig_shot))
        if plan.include_reference:
            ref_total = int(rng.poisson(shots * mu_ref_shot))
            denom = max(ref_total, 1)
            y = sig_total / denom
            # var(S/R) ~ (1/R^2) (var S + y^2 var R), Poisson variances
            # estimated by the observed totals (floored at 1 count)
            err = math.sqrt(max(sig_total, 1) + y**2 * max(ref_total, 1)) / denom
        else:
            denom = shots * mu_ref_shot
            y = sig_total / denom
            err = math.sqrt(max(sig_total, 1)) / denom
        points.append((tau, y, err if shots > 1 else 0.0))

    return RelaxationCurve(points=tuple(points))


@dataclass(frozen=True)
class FitResult:
    """Exponential-decay fit b + A exp(-tau/T1) with uncertainty report.

    covariance is the 3x3 matrix over (baseline, amplitude, t1);
    reduced_chi_sq is chi^2 per degree of freedom for weighted fits and the
    residual variance for unweighted ones.  singular_curvature flags a
    pseudo-inverted (inflated) covariance.
    """

    t1_hat: float
    t1_stderr: float
    amplitude: float
    baseline: float
    covariance: tuple
    reduced_chi_sq: float
    converged: bool
    message: str = ""
    singular_curvature: bool = False

    def __post_init__(self):
        cov = tuple(tuple(float(v) for v in row) for row in self.covariance)
        if len(cov) != 3 or any(len(row) != 3 for row in cov):
            raise ParameterError("covariance must be 3x3")
        if self.converged and not (math.isfinite(self.t1_hat) and self.t1_hat > 0.0):
            raise ParameterError("a converged fit must report a positive t1")
        object.__setattr__(self, "covariance", cov)

    def as_dict(self) -> dict:
        return {
            "t1_hat_s": self.t1_hat,
            "t1_stderr_s": self.t1_stderr,
            "amplitude": self.amplitude,
            "baseline": self.baseline,
            "covariance": [list(row) for row in self.covariance],
            "reduced_chi_sq": self.reduced_chi_sq,
            "converged": self.converged,
            "message": self.message,
            "singular_curvature": self.singular_curvature,
        }


def failed_fit(message: str) -> FitResult:
    zero = ((0.0,) * 3,) * 3
    return FitResult(t1_hat=math.nan, t1_stderr=math.nan, amplitude=math.nan,
                     baseline=math.nan, covariance=zero, reduced_chi_sq=math.nan,
                     converged=False, message=message)


def _model(params, tau):
    b, a, t1 = params
    return b + a * np.exp(np.clip(-tau / t1, -700.0, 50.0))


def _starting_point(tau, y):
    # baseline from the tail, amplitude from the head-tail swing, t1 from
    # where the signal first crosses baseline + amplitude/e
    b0 = float(y[-1])
    a0 = float(y[0] - y[-1])
    if abs(a0) < 1e-12:
        a0 = max(abs(b0), 1.0) * 1e-3
    level = b0 + a0 / math.e
    crossing = tau[np.nonzero(y <= level)[0]] if a0 > 0 else tau[np.nonzero(y >= level)[0]]
    t10 = float(crossing[0]) if crossing.size else float(np.median(tau))
    if t10 <= 0.0:
        t10 = float(np.median(tau[tau > 0])) if np.any(tau > 0) else 1.0
    return b0, a0, t10


def fit_exponential(curve: RelaxationCurve) -> FitResult:
    """Weighted nonlinear least squares for a single-exponential decay.

    Damped least-squares iteration with an analytic Jacobian; weights are
    inverse per-point variances, falling back to an unweighted fit when any
    stderr is 0 (the shots=1 sentinel).  Standard errors come from the local
    curvature at the optimum: for weighted fits the unscaled (J^T J)^-1 of
    the whitened residuals (errors are known, not estimated), for unweighted
    fits scaled by the residual variance.  Point order is irrelevant.

    Non-convergence is reported via converged=False, never raised.
    """
    tau, y, sig = curve.arrays()
    if tau.size < _MIN_FIT_POINTS:
        raise ParameterError(f"need >= {_MIN_FIT_POINTS} points to fit, got {tau.size}")
    order = np.argsort(tau, kind="stable")
    tau, y, sig = tau[order], y[order], sig[order]

    weighted = bool(np.all(sig > 0.0))
    w = 1.0 / sig if weighted else np.ones_like(tau)

    b0, a0, t10 = _starting_point(tau, y)
    pos = tau[tau > 0.0]
    decade_span = pos.size > 0 and pos.max() / pos.min() >= 10.0
    if tau.max() < 2.0 * t10 and not decade_span:
        raise ParameterError(
            "tau grid too short: must reach 2x the t1 guess or span a decade")

    def residuals(p):
        return (_model(p, tau) - y) * w

    def jac(p):
        _, a, t1 = p
        e = np.exp(np.clip(-tau / t1, -700.0, 50.0))
        cols = np.column_stack([np.ones_like(tau), e, a * e * tau / t1**2])
        return cols * w[:, None]

    res = least_squares(residuals, x0=[b0, a0, t10], jac=jac, method="lm",
                        xtol=1e-14, ftol=1e-14, gtol=1e-14, max_nfev=2000)
    b_hat, a_hat, t1_hat = (float(v) for v in res.x)
    dof = tau.size - 3
    chi2 = float(2.0 * res.cost)
    red_chi2 = chi2 / dof if dof > 0 else math.nan

    jtj = res.jac.T @ res.jac
    singular = False
    try:
        cov = np.linalg.inv(jtj)
        if not np.all(np.isfinite(cov)):
            raise np.linalg.LinAlgError
    except np.linalg.LinAlgError:
        cov = np.linalg.pinv(jtj)
        singular = True
    if not weighted and dof > 0:
        cov = cov * red_chi2
    cov = (cov + cov.T) / 2.0

    converged = bool(res.success) and res.status != 0 and t1_hat > 0.0 \
        and math.isfinite(t1_hat)
    message = res.message if converged else f"not converged: {res.message}"
    if converged:
        return FitResult(t1_hat=t1_hat, t1_stderr=float(math.sqrt(max(cov[2, 2], 0.0))),
                         amplitude=a_hat, baseline=b_hat,
                         covariance=tuple(map(tuple, cov)), reduced_chi_sq=red_chi2,
                         converged=True, message=message, singular_curvature=singular)
    return FitResult(t1_hat=math.nan, t1_stderr=math.nan, amplitude=a_hat,
                     baseline=b_hat, covariance=tuple(map(tuple, cov)),
                     reduced_chi_sq=red_chi2, converged=False, message=message,
                     singular_curvature=singular)


@dataclass(frozen=True)
class SpotResult:
    """One simulated spot: its true T1, its curve and its fit."""

    t1_true: float
    curve: RelaxationCurve
    fit: FitResult


def simulate_spot_ensemble(t1_true, rngs, plan: MeasurementPlan):
    """Simulate and fit many detection spots, yielding one SpotResult each.

    Spot j has true T1 t1_true[j] and draws its curve from rngs[j]; both
    come from scenario.draw_spots, so the ensemble is reproducible and
    insensitive to execution order.  Fit failures are flagged per spot
    (converged=False), never fatal.
    """
    for t1_spot, rng in zip(t1_true, rngs, strict=True):
        t1_spot = float(t1_spot)
        curve = simulate_curve(t1_spot, plan, rng)
        try:
            fit = fit_exponential(curve)
        except ParameterError as exc:
            fit = failed_fit(str(exc))
        yield SpotResult(t1_spot, curve, fit)


@dataclass(frozen=True)
class GaussianSummary:
    """Maximum-likelihood Gaussian parameters of a sample."""

    mean: float
    sigma: float
    n: int


def gaussian_summary(samples) -> GaussianSummary:
    """Fit a Gaussian to samples by maximum likelihood (mean, 1/N variance)."""
    arr = np.asarray([float(s) for s in samples], dtype=float)
    if arr.size < 5:
        raise ParameterError(f"need >= 5 samples, got {arr.size}")
    if not np.all(np.isfinite(arr)):
        raise ParameterError("samples must be finite")
    sigma = float(arr.std(ddof=0))
    if sigma == 0.0:
        raise ParameterError("degenerate sample: zero variance")
    return GaussianSummary(mean=float(arr.mean()), sigma=sigma, n=int(arr.size))


def separation_scores(a: GaussianSummary, b: GaussianSummary) -> dict:
    """Peak-separation statistics between two Gaussian summaries.

    Two conventions are reported: the geometric-mean-sigma score
    |mean_a - mean_b| / sqrt(sigma_a sigma_b) and the pooled-sigma z-score
    |mean_a - mean_b| / sqrt((sigma_a^2 + sigma_b^2)/2).
    """
    gap = abs(a.mean - b.mean)
    return {
        "z_geometric": gap / math.sqrt(a.sigma * b.sigma),
        "z_pooled": gap / math.sqrt((a.sigma**2 + b.sigma**2) / 2.0),
    }


CURVE_HEADER = ("tau_s", "signal", "stderr")


def write_curve(curve: RelaxationCurve, path) -> None:
    """Write a curve as a table (see rbmrelax.table), lossless at 17
    significant digits."""
    write_table(path, CURVE_HEADER, curve.points)


def read_curve(path) -> RelaxationCurve:
    """Parse a curve table; row numbers in errors."""
    rows, _ = read_table(path, CURVE_HEADER, "curve file")
    try:
        return RelaxationCurve(points=rows)
    except ParameterError as exc:
        raise ConfigError(f"{path}: invalid curve data: {exc}") from exc


def write_fit_json(fit: FitResult, path, plan: MeasurementPlan | None = None,
                   seed=None, extra: dict | None = None) -> None:
    """Export a fit as JSON, with the plan and seed for reproducibility."""
    doc = fit.as_dict()
    if plan is not None:
        doc["plan"] = {
            "dark_times_s": list(plan.dark_times),
            "shots_per_point": plan.shots_per_point,
            "detection_window_s": plan.detection_window,
            "photon_rate_per_s": plan.photon_rate,
            "contrast": plan.contrast,
            "include_reference": plan.include_reference,
        }
    if seed is not None:
        doc["seed"] = seed
    if extra:
        doc.update(extra)
    Path(path).write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
