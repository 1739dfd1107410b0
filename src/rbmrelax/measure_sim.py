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

    # one draw over the (signal, reference) means of every dark time, in
    # the order of one scalar draw per total
    means = []
    for tau in plan.dark_times:
        means.append(shots * (mu_ref_shot * expected_signal(tau, t1_true, plan.contrast)))
        if plan.include_reference:
            means.append(shots * mu_ref_shot)
    totals = iter(rng.poisson(means).tolist())

    points = []
    for tau in plan.dark_times:
        sig_total = next(totals)
        if plan.include_reference:
            ref_total = next(totals)
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


# The search for T1 runs in x = ln T1 over the range where the model can
# still change: below a hundredth of the shortest positive dark time every
# point has decayed by e^-100, and beyond 1e8 times the longest one the
# decay's curvature, (tau/T1)^2, is lost in double precision, so the model
# is a straight line.  An optimum on either bound is not converged.
_SEARCH_BELOW = math.log(1e2)
_SEARCH_ABOVE = math.log(1e8)
_GRID_POINTS = 64          # coarse grid that brackets the minimum
_GOLDEN_STEPS = 20         # narrows the bracket by 0.618**20
_BRACKET_TOL = 1e-12       # converged width in ln T1, i.e. relative T1
_MAX_POLISH = 100
_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0

_CONVERGED = "converged: relative T1 bracket below 1e-12"
_TOO_SHORT = "tau grid too short: must reach 2x the t1 guess or span a decade"
_ON_BOUND = "not converged: optimum on the T1 search bound"
_OPEN = "not converged: T1 bracket did not close"
_NOT_FINITE = "not converged: covariance not finite"
_NOT_POSITIVE = "not converged: T1 variance not positive"


def _t1_guess(tau, y) -> float:
    # where the signal first crosses baseline + amplitude/e, with the
    # baseline from the tail and the amplitude from the head-tail swing
    b0 = float(y[-1])
    a0 = float(y[0] - y[-1])
    if abs(a0) < 1e-12:
        a0 = max(abs(b0), 1.0) * 1e-3
    level = b0 + a0 / math.e
    crossing = tau[np.nonzero(y <= level)[0]] if a0 > 0 else tau[np.nonzero(y >= level)[0]]
    t10 = float(crossing[0]) if crossing.size else float(np.median(tau))
    if t10 <= 0.0:
        t10 = float(np.median(tau[tau > 0])) if np.any(tau > 0) else 1.0
    return t10


class _Rows:
    """Sorted curves of a batch, one per row, and the fit problem projected
    onto x = ln T1: at fixed T1 the best baseline and amplitude are linear.

    Every reduction runs along a row, so a row's numbers do not depend on
    which other rows share its batch.
    """

    def __init__(self, tau, y, w):
        self.tau, self.y, self.w = tau, y, w
        self.W = w * w
        self.s0 = self.W.sum(axis=-1)
        y_bar = (self.W * y).sum(axis=-1) / self.s0
        self.y_bar, self.dy = y_bar, y - y_bar[:, None]
        self.syy = (self.W * self.dy * self.dy).sum(axis=-1)

    def __getitem__(self, rows) -> "_Rows":
        return _Rows(self.tau[rows], self.y[rows], self.w[rows])

    def project(self, x):
        """At T1 = exp(x) per row: the decay e, its weighted mean, e less that
        mean, the weighted norm of the latter, and the best amplitude, from
        the weighted 2x2 normal equations solved in centered form."""
        e = np.exp(-self.tau / np.exp(x)[:, None])
        e_bar = (self.W * e).sum(axis=-1) / self.s0
        de = e - e_bar[:, None]
        see = (self.W * de * de).sum(axis=-1)
        sey = (self.W * de * self.dy).sum(axis=-1)
        amp = np.divide(sey, see, out=np.zeros_like(see), where=see > 0.0)
        return e, e_bar, de, see, amp

    def chi2(self, x):
        """chi2 at the best baseline and amplitude: the weighted spread of y
        less the part the centered decay explains.  It steers the bracket
        only; the reported chi2 sums the residuals themselves."""
        _, _, _, see, amp = self.project(x)
        return self.syy - amp * amp * see

    def slope(self, x):
        """Half the derivative of chi2 in x, and its Gauss-Newton curvature.

        At the best baseline and amplitude the derivative takes only the
        model's own x derivative d (variable projection); the curvature is
        the weighted norm of d with its projection onto (1, e) removed.
        """
        e, e_bar, de, see, amp = self.project(x)
        d = amp[:, None] * e * self.tau / np.exp(x)[:, None]
        r = (self.y_bar - amp * e_bar)[:, None] + amp[:, None] * e - self.y
        dd = d - ((self.W * d).sum(axis=-1) / self.s0)[:, None]
        beta = np.divide((self.W * de * dd).sum(axis=-1), see,
                         out=np.zeros_like(see), where=see > 0.0)
        rest = dd - beta[:, None] * de
        return (self.W * r * d).sum(axis=-1), (self.W * rest * rest).sum(axis=-1)


def _search(rows: _Rows, x_lo, x_hi):
    """Minimize chi2 over x in [x_lo, x_hi] per row.

    A coarse grid brackets the minimum, golden-section steps narrow the
    bracket, and safeguarded Gauss-Newton steps on the slope close it: a
    step that leaves the bracket or fails to halve the previous one is
    replaced by bisection.  Each Newton probe overshoots by a quarter of
    the tolerance, so probes land on both sides of the root.  Returns the
    bracket midpoint, whether the grid minimum lay on a search bound, and
    the final bracket width.
    """
    grid = x_lo[:, None] + (x_hi - x_lo)[:, None] * np.linspace(0.0, 1.0, _GRID_POINTS)
    k = np.column_stack([rows.chi2(grid[:, i]) for i in range(_GRID_POINTS)]).argmin(axis=-1)
    on_bound = (k == 0) | (k == _GRID_POINTS - 1)
    k = np.clip(k, 1, _GRID_POINTS - 2)
    pick = np.arange(k.size)
    a, b = grid[pick, k - 1], grid[pick, k + 1]

    c, d = b - _INV_PHI * (b - a), a + _INV_PHI * (b - a)
    fc, fd = rows.chi2(c), rows.chi2(d)
    for _ in range(_GOLDEN_STEPS):
        left = fc < fd                      # the minimum lies in [a, d]
        a, b = np.where(left, a, c), np.where(left, d, b)
        kept, f_kept = np.where(left, c, d), np.where(left, fc, fd)
        new = np.where(left, b - _INV_PHI * (b - a), a + _INV_PHI * (b - a))
        f_new = rows.chi2(new)
        c, fc = np.where(left, new, kept), np.where(left, f_new, f_kept)
        d, fd = np.where(left, kept, new), np.where(left, f_kept, f_new)

    x, lo, hi = np.where(fc < fd, c, d), a, b
    g, h = rows.slope(x)
    dx_old = hi - lo
    for _ in range(_MAX_POLISH):
        act = np.flatnonzero(hi - lo >= _BRACKET_TOL)
        if act.size == 0:
            break
        xa, lo_a, hi_a = x[act], lo[act], hi[act]
        step = np.divide(-g[act], h[act], out=np.full(act.size, np.inf), where=h[act] > 0.0)
        newton = xa + step + np.copysign(_BRACKET_TOL / 4.0, step)
        take = (newton > lo_a) & (newton < hi_a) & (np.abs(step) < 0.5 * dx_old[act])
        probe = np.where(take, newton, 0.5 * (lo_a + hi_a))
        g[act], h[act] = rows[act].slope(probe)
        rising = g[act] > 0.0               # the minimum lies left of the probe
        hi[act] = np.where(rising, probe, hi_a)
        lo[act] = np.where(rising, lo_a, probe)
        dx_old[act] = np.abs(probe - xa)
        x[act] = probe
    return 0.5 * (lo + hi), on_bound, hi - lo


def _invert(jtj):
    """Inverse of each curvature matrix; one that is singular or inverts to
    non-finite values is pseudo-inverted instead, and flagged.  A matrix
    with non-finite entries is left non-finite: LAPACK's SVD may never
    return on one."""
    try:
        cov = np.linalg.inv(jtj)
        singular = ~np.isfinite(cov).all(axis=(1, 2))
    except np.linalg.LinAlgError:
        cov, singular = np.full_like(jtj, np.nan), np.ones(len(jtj), dtype=bool)
    for i in np.flatnonzero(singular):
        try:
            cov[i] = np.linalg.inv(jtj[i])
            singular[i] = not np.isfinite(cov[i]).all()
        except np.linalg.LinAlgError:
            pass
        if singular[i] and np.isfinite(jtj[i]).all():
            cov[i] = np.linalg.pinv(jtj[i])
    return cov, singular


def fit_curves(tau, y, sig) -> list:
    """Fit b + A exp(-tau/T1) to every row of (n_curves, n_points) arrays.

    Weighted least squares, solved by variable projection (Golub and
    Pereyra, SIAM J. Numer. Anal. 10, 413, 1973): for each trial T1 the
    baseline and amplitude follow in closed form, which leaves a 1-D search
    in ln T1 (_search), run for all rows at once.  Weights are inverse
    per-point variances; a row with any stderr of 0 (the shots=1 sentinel)
    is fitted unweighted.  Standard errors come from the analytic Jacobian
    at the optimum: for weighted fits the unscaled (J^T J)^-1 of the
    whitened residuals (errors are known, not estimated), for unweighted
    fits scaled by the residual variance.  Point order within a row is
    irrelevant, and so is which other rows share the batch.

    Returns one FitResult per row.  A row whose grid is too short to fit
    gets a failed fit ("tau grid too short"); a fit converges when its T1 is
    bracketed to a relative 1e-12 inside the search range and its T1
    variance is finite and positive, and is reported with converged=False
    otherwise, never raised.
    """
    n_points = tau.shape[-1]
    if n_points < _MIN_FIT_POINTS:
        raise ParameterError(f"need >= {_MIN_FIT_POINTS} points to fit, got {n_points}")
    order = np.argsort(tau, axis=-1, kind="stable")
    tau, y, sig = (np.take_along_axis(v, order, axis=-1) for v in (tau, y, sig))
    weighted = (sig > 0.0).all(axis=-1)
    w = np.where(weighted[:, None], 1.0 / np.where(sig > 0.0, sig, 1.0), 1.0)

    # the grid must reach twice the curve's own T1 guess or span a decade
    pos_min = np.where(tau > 0.0, tau, np.inf).min(axis=-1)
    tau_max = tau[:, -1]
    ok = tau_max / pos_min >= 10.0
    for i in np.flatnonzero(~ok):
        ok[i] = tau_max[i] >= 2.0 * _t1_guess(tau[i], y[i])
    results = [failed_fit(_TOO_SHORT)] * len(ok)
    todo = np.flatnonzero(ok)
    if todo.size == 0:
        return results

    rows = _Rows(tau[todo], y[todo], w[todo])
    x, on_bound, width = _search(rows, np.log(pos_min[todo]) - _SEARCH_BELOW,
                                 np.log(tau_max[todo]) + _SEARCH_ABOVE)
    t1 = np.exp(x)
    e, e_bar, _, _, amp = rows.project(x)
    base = rows.y_bar - amp * e_bar
    r = (base[:, None] + amp[:, None] * e - rows.y) * rows.w
    red_chi2 = (r * r).sum(axis=-1) / (n_points - 3)

    cols = (rows.w, rows.w * e,
            rows.w * (amp[:, None] * e * rows.tau / t1[:, None] ** 2))
    jtj = np.empty((todo.size, 3, 3))
    for p in range(3):
        for q in range(p, 3):
            jtj[:, p, q] = jtj[:, q, p] = (cols[p] * cols[q]).sum(axis=-1)
    cov, singular = _invert(jtj)
    unweighted = ~weighted[todo]
    cov[unweighted] *= red_chi2[unweighted, None, None]
    cov = (cov + cov.transpose(0, 2, 1)) / 2.0
    finite = np.isfinite(cov).all(axis=(1, 2))
    # a chi2 that keeps falling toward T1 -> infinity leaves no curvature in
    # T1, and its variance can come out zero or negative
    positive = cov[:, 2, 2] > 0.0
    converged = finite & ~on_bound & positive & (width < _BRACKET_TOL)
    t1_hat = np.where(converged, t1, np.nan)
    stderr = np.where(converged, np.sqrt(np.maximum(cov[:, 2, 2], 0.0)), np.nan)
    message = np.select([converged, ~finite, on_bound, ~positive],
                        [_CONVERGED, _NOT_FINITE, _ON_BOUND, _NOT_POSITIVE], _OPEN)
    for i, *fields in zip(todo.tolist(), t1_hat.tolist(), stderr.tolist(), amp.tolist(),
                          base.tolist(), cov.tolist(), red_chi2.tolist(),
                          converged.tolist(), message.tolist(), singular.tolist()):
        results[i] = FitResult(*fields)
    return results


def fit_exponential(curve: RelaxationCurve) -> FitResult:
    """Fit one curve: the one-row case of fit_curves.

    A grid too short to fit raises ParameterError here; non-convergence is
    reported via converged=False, never raised.
    """
    tau, y, sig = curve.arrays()
    fit, = fit_curves(tau[None], y[None], sig[None])
    if fit.message == _TOO_SHORT:
        raise ParameterError(fit.message)
    return fit


@dataclass(frozen=True)
class SpotResult:
    """One simulated spot: its true T1, its curve and its fit."""

    t1_true: float
    curve: RelaxationCurve
    fit: FitResult


def simulate_spot_ensemble(t1_true, rngs, plan: MeasurementPlan) -> list:
    """Simulate many detection spots and fit them in one batch, one
    SpotResult each.

    Spot j has true T1 t1_true[j] and draws its curve from rngs[j]; both
    come from scenario.draw_spots, so the ensemble is reproducible and
    insensitive to execution order.  Fit failures are flagged per spot
    (converged=False), never fatal.
    """
    t1_true = [float(t) for t in t1_true]
    curves = [simulate_curve(t1_spot, plan, rng)
              for t1_spot, rng in zip(t1_true, rngs, strict=True)]
    points = np.array([curve.points for curve in curves])
    fits = fit_curves(points[..., 0], points[..., 1], points[..., 2])
    return [SpotResult(*spot) for spot in zip(t1_true, curves, fits)]


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
