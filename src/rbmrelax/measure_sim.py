"""Photon-counting relaxometry: protocol simulation, decay fitting, and
spot-ensemble statistics.

The simulated protocol reads the sensor after a variable dark time tau and
normalizes the signal window against a fully repolarized reference window of
equal length.  Expected normalized signal:

    s(tau) = 1 - C + C * exp(-tau / T1)

so s(0) = 1 and the long-tau thermal limit is 1 - C.  All counts are
Poisson; both the signal and reference Poisson errors propagate into the
per-point standard error through first-order ratio statistics.

A curve is three float arrays, tau, signal and stderr, with one row per
spot: simulate_curve draws every spot of a condition and forms their
signals and errors in one numpy pass, and fit_curves fits the rows in one
batch and returns the fits as columns, one array per fit-JSON key with
one entry per row.  simulate_condition runs both for one simulate
condition and decides which fits its Gaussian summary counts.
write_curve and write_fit_json write each row's curve file and fit
document, json.dumps of the row, in one call per condition.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ParameterError, require
from .table import read_table, table_format

_MIN_FIT_POINTS = 4
# the fewest converged fits a condition's Gaussian summary is formed from
MIN_GAUSSIAN_FITS = 5
# numpy's largest Poisson mean: int64 max - 10 sqrt(int64 max)
_POISSON_LAM_MAX = np.iinfo(np.int64).max - 10.0 * math.sqrt(np.iinfo(np.int64).max)


@dataclass(frozen=True)
class MeasurementPlan:
    """Acquisition settings for one relaxation curve.

    dark_times: sorted tau grid in s (>= 4 finite points >= 0);
    shots_per_point: shot repetitions per tau (>= 1); detection_window:
    readout window length in s; photon_rate: detected counts/s during the
    window (both finite and > 0); contrast: relative signal swing between
    polarized and thermal states, in (0, 1).  These are preconditions,
    which scenario.measurement_plan meets.  The expected counts per dark
    time, shots_per_point * counts_per_shot, are checked against the
    largest mean numpy can draw a Poisson count from.
    """

    dark_times: tuple
    shots_per_point: int
    detection_window: float
    photon_rate: float
    contrast: float
    include_reference: bool = True

    def __post_init__(self):
        # simulate_curve draws each dark time's shot-summed counts at once
        try:
            counts = self.shots_per_point * self.counts_per_shot
        except OverflowError:
            counts = math.inf
        if not counts < _POISSON_LAM_MAX:
            raise ParameterError(
                "[measurement] shots_per_point x photon_rate_per_s x detection_window_ns "
                f"is {counts:.6g} counts per dark time, at or above the "
                f"{_POISSON_LAM_MAX:.6g} that a Poisson draw allows")

    def as_dict(self) -> dict:
        """The plan as summary.json records it, in SI units."""
        return {"dark_times_s": list(self.dark_times), "shots_per_point": self.shots_per_point,
                "detection_window_s": self.detection_window,
                "photon_rate_per_s": self.photon_rate, "contrast": self.contrast,
                "include_reference": self.include_reference}

    @property
    def counts_per_shot(self) -> float:
        """Expected reference counts in one shot."""
        return self.photon_rate * self.detection_window


def default_dark_times(t1_expected: float, n_points: int = 12,
                       tau_min: float = 1e-6, span_factor: float = 5.0) -> tuple:
    """Log-spaced tau grid from tau_min to span_factor * t1_expected, a
    tuple of floats; the span must be finite and above tau_min."""
    return tuple(np.geomspace(tau_min, span_factor * t1_expected, n_points).tolist())


def simulate_curve(t1_true, rngs, plan: MeasurementPlan):
    """Simulate one relaxation curve per spot with photon shot noise.

    Spot j has true T1 t1_true[j] and draws its counts from rngs[j]; both
    come from scenario.draw_spots, so the curves are reproducible and
    insensitive to execution order.  Per dark time, expected signal counts
    per shot are counts_per_shot * s(tau) and reference counts are
    counts_per_shot; the normalized signal is the ratio of shot-summed
    totals.  A sum of independent Poisson draws is itself Poisson, so only
    the totals are drawn: one draw per spot over the (signal, reference)
    means of its dark times in turn.

    With shots_per_point == 1 the per-point error is not estimable from the
    data; stderr is set to 0 as a sentinel that downstream fits treat as
    "unweighted".  Returns tau, signal and stderr as (n_spots, n_points)
    arrays.
    """
    t1_true = np.asarray(t1_true, dtype=float)
    shots, mu_shot, contrast = plan.shots_per_point, plan.counts_per_shot, plan.contrast
    # math.exp, not numpy's SIMD exp, which rounds some means differently
    decay = np.array([[math.exp(-tau / t1) for tau in plan.dark_times]
                      for t1 in t1_true.tolist()])
    means = shots * (mu_shot * (1.0 - contrast + contrast * decay))
    if plan.include_reference:
        means = np.stack([means, np.full_like(means, shots * mu_shot)], axis=-1)
    totals = np.array([rng.poisson(m) for rng, m in zip(rngs, means, strict=True)])

    if plan.include_reference:
        sig, ref = totals[..., 0], np.maximum(totals[..., 1], 1)
        signal = sig / ref
        # var(S/R) ~ (1/R^2) (var S + y^2 var R), Poisson variances
        # estimated by the observed totals (floored at 1 count); float_power
        # squares with libm's pow, as the scalar reference in
        # tests/test_simulate_batch.py does: y * y rounds about 0.1% of the
        # squares differently
        err = np.sqrt(np.maximum(sig, 1) + np.float_power(signal, 2) * ref) / ref
    else:
        sig, denom = totals, shots * mu_shot
        signal = sig / denom
        err = np.sqrt(np.maximum(sig, 1)) / denom
    tau = np.broadcast_to(plan.dark_times, signal.shape)
    return tau, signal, err if shots > 1 else np.zeros_like(signal)


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


def fit_curves(tau, y, sig) -> dict:
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

    Returns the fits as columns, a dict of arrays with one entry per row:
    t1_hat_s, t1_stderr_s, amplitude, baseline, covariance (n_curves, 3, 3)
    over (baseline, amplitude, t1), reduced_chi_sq (chi^2 per degree of
    freedom for weighted fits, the residual variance for unweighted ones),
    converged, message (object dtype) and singular_curvature (a
    pseudo-inverted, inflated covariance).  A fit converges when its T1 is
    bracketed to a relative 1e-12 inside the search range and its T1
    variance is finite and positive, and is reported with converged false
    otherwise, never raised; t1_hat_s and t1_stderr_s are NaN unless it
    converged.  A row whose grid is too short to fit has NaN floats, a zero
    covariance and the message "tau grid too short".
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
    n = len(ok)
    fits = {"t1_hat_s": np.full(n, np.nan), "t1_stderr_s": np.full(n, np.nan),
            "amplitude": np.full(n, np.nan), "baseline": np.full(n, np.nan),
            "covariance": np.zeros((n, 3, 3)), "reduced_chi_sq": np.full(n, np.nan),
            "converged": np.zeros(n, dtype=bool),
            "message": np.full(n, _TOO_SHORT, dtype=object),
            "singular_curvature": np.zeros(n, dtype=bool)}
    todo = np.flatnonzero(ok)
    if todo.size == 0:
        return fits

    rows = _Rows(tau[todo], y[todo], w[todo])
    x, on_bound, width = _search(rows, np.log(pos_min[todo]) - _SEARCH_BELOW,
                                 np.log(tau_max[todo]) + _SEARCH_ABOVE)
    t1 = np.exp(x)
    e, e_bar, _, _, amp = rows.project(x)
    base = rows.y_bar - amp * e_bar
    r = (base[:, None] + amp[:, None] * e - rows.y) * rows.w
    red_chi2 = (r * r).sum(axis=-1) / (n_points - 3)

    # a T1 whose square underflows to 0 leaves a covariance that is not finite
    with np.errstate(divide="ignore", invalid="ignore"):
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
    for column, values in zip(fits.values(), (t1_hat, stderr, amp, base, cov, red_chi2,
                                              converged, message, singular)):
        column[todo] = values
    return fits


def fit_exponential(tau, signal, stderr) -> dict:
    """Fit one curve: the one-row case of fit_curves, whose columns it
    returns.

    A grid too short to fit raises ParameterError here; non-convergence is
    reported via converged false, never raised.
    """
    fit = fit_curves(*(np.asarray(v, dtype=float)[None] for v in (tau, signal, stderr)))
    if fit["message"][0] == _TOO_SHORT:
        raise ParameterError(_TOO_SHORT)
    return fit


def gaussian_summary(samples) -> dict:
    """Fit a Gaussian to T1 samples by maximum likelihood (mean, 1/N
    variance): mean_t1_s, sigma_t1_s and the sample count n, the entry
    summary.json records per condition."""
    arr = np.asarray([float(s) for s in samples], dtype=float)
    if arr.size < MIN_GAUSSIAN_FITS:
        raise ParameterError(f"need >= {MIN_GAUSSIAN_FITS} samples, got {arr.size}")
    if not np.all(np.isfinite(arr)):
        raise ParameterError("samples must be finite")
    sigma = float(arr.std(ddof=0))
    if sigma == 0.0:
        raise ParameterError("degenerate sample: zero variance")
    return {"mean_t1_s": float(arr.mean()), "sigma_t1_s": sigma, "n": int(arr.size)}


def simulate_condition(t1_true, rngs, plan: MeasurementPlan):
    """One simulate condition, simulated and fitted, with no file I/O: the
    curves of simulate_curve, the fit documents' columns (fit_curves' plus
    spot and t1_true_s), and the summary entry, n_converged and the
    converged T1s' gaussian: None below MIN_GAUSSIAN_FITS of them, or with
    gaussian_note when gaussian_summary rejects them."""
    curve = simulate_curve(t1_true, rngs, plan)
    fits = fit_curves(*curve)
    t1_hats = fits["t1_hat_s"][fits["converged"]]
    entry = {"n_converged": len(t1_hats), "gaussian": None}
    if len(t1_hats) >= MIN_GAUSSIAN_FITS:
        try:
            entry["gaussian"] = gaussian_summary(t1_hats)
        except ParameterError as exc:
            entry["gaussian_note"] = str(exc)
    return curve, fits | {"spot": range(len(t1_true)), "t1_true_s": t1_true}, entry


def separation_scores(a: dict, b: dict) -> dict:
    """Peak-separation statistics between two Gaussian summaries.

    Two conventions are reported: the geometric-mean-sigma score
    |mean_a - mean_b| / sqrt(sigma_a sigma_b) and the pooled-sigma z-score
    |mean_a - mean_b| / sqrt((sigma_a^2 + sigma_b^2)/2).
    """
    gap = abs(a["mean_t1_s"] - b["mean_t1_s"])
    sa, sb = a["sigma_t1_s"], b["sigma_t1_s"]
    return {"z_geometric": gap / math.sqrt(sa * sb),
            "z_pooled": gap / math.sqrt((sa**2 + sb**2) / 2.0)}


CURVE_HEADER = ("tau_s", "signal", "stderr")


def write_curve(tau, signal, stderr, paths) -> None:
    """Write row j of the (n_curves, n_points) tau, signal and stderr arrays
    to paths[j] as a table (see rbmrelax.table), lossless at 17 significant
    digits: one format call per file."""
    fmt = table_format(CURVE_HEADER, np.shape(signal)[-1])
    curves = np.stack((tau, signal, stderr), axis=-1)
    for path, curve in zip(paths, curves, strict=True):
        with open(path, "wb") as fh:
            fh.write((fmt % tuple(curve.ravel().tolist())).encode())


def read_curve(path):
    """tau, signal and stderr of a curve table, as float arrays; row numbers
    in format errors, and a negative dark time or stderr rejected."""
    rows, _ = read_table(path, CURVE_HEADER, "curve file")
    tau, signal, stderr = np.array(rows).T
    try:
        require(tau >= 0.0, "bad dark time {!r}", tau)
        require(stderr >= 0.0, "bad stderr {!r}", stderr)
    except ParameterError as exc:
        raise ConfigError(f"{path}: invalid curve data: {exc}") from exc
    return tau, signal, stderr


def render_fit_json(columns: dict):
    """Yield row j's JSON document, json.dumps(doc, indent=2,
    sort_keys=True) + "\n", where doc holds row j of each column: the fit
    columns of fit_curves, and any other per-row sequences."""
    for row in zip(*(np.asarray(column).tolist() for column in columns.values()), strict=True):
        yield json.dumps(dict(zip(columns, row)), indent=2, sort_keys=True) + "\n"


def write_fit_json(columns: dict, paths) -> None:
    """Write row j's JSON document (render_fit_json) to paths[j]."""
    for path, text in zip(paths, render_fit_json(columns), strict=True):
        with open(path, "wb") as fh:
            fh.write(text.encode())
