import json
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rbmrelax.errors import ConfigError, ParameterError
from rbmrelax.measure_sim import (
    CURVE_HEADER,
    MeasurementPlan,
    default_dark_times,
    fit_curves,
    fit_exponential,
    gaussian_summary,
    read_curve,
    separation_scores,
    simulate_curve,
    write_curve,
    write_fit_json,
)

T1_REF = 130.0e-6  # s
PLAN = MeasurementPlan(
    dark_times=default_dark_times(T1_REF),
    shots_per_point=200_000,
    detection_window=500e-9,
    photon_rate=1e5,
    contrast=0.2,
)


def expected_signal(tau, t1, contrast=0.2):
    return 1.0 - contrast + contrast * np.exp(-np.asarray(tau) / t1)


def synthetic_curve(t1, plan, stderr=1e-6):
    tau = np.array(plan.dark_times)
    return tau, expected_signal(tau, t1, plan.contrast), np.full_like(tau, stderr)


def fit_one(tau, signal, stderr):
    """Row 0 of fit_exponential's one-row columns, as plain values."""
    return {key: column.tolist()[0]
            for key, column in fit_exponential(tau, signal, stderr).items()}


def one_curve(plan, seed, t1=T1_REF):
    """tau, signal and stderr of one spot drawn from default_rng(seed)."""
    return tuple(v[0] for v in simulate_curve([t1], [np.random.default_rng(seed)], plan))


def test_default_dark_times_geometry():
    taus = default_dark_times(T1_REF, n_points=12, tau_min=1e-6,
                              span_factor=5.0)
    assert len(taus) == 12
    assert taus[0] == pytest.approx(1e-6)
    assert taus[-1] == pytest.approx(5.0 * T1_REF)
    ratios = [b / a for a, b in zip(taus, taus[1:])]
    assert max(ratios) == pytest.approx(min(ratios), rel=1e-12)


def test_simulate_deterministic_per_seed():
    a, b, c = (np.array(one_curve(PLAN, seed)) for seed in (42, 42, 43))
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_simulate_tracks_expected_signal():
    big = MeasurementPlan(dark_times=PLAN.dark_times,
                          shots_per_point=10_000_000,
                          detection_window=500e-9, photon_rate=1e5,
                          contrast=0.2)
    for tau, y, err in zip(*one_curve(big, 7)):
        mu = expected_signal(tau, T1_REF)
        assert y == pytest.approx(mu, abs=5e-3)
        assert err > 0.0
        assert abs(y - mu) < 5.0 * err


NO_REFERENCE = MeasurementPlan(dark_times=PLAN.dark_times, shots_per_point=10_000_000,
                               detection_window=500e-9, photon_rate=1e5,
                               contrast=0.2, include_reference=False)


def test_simulate_without_reference_tracks_expected_signal():
    for tau, y, err in zip(*one_curve(NO_REFERENCE, 7)):
        assert err > 0.0
        assert abs(y - expected_signal(tau, T1_REF)) < 5.0 * err


@pytest.mark.parametrize("shots, photon_rate", [(10_000_000, 1e5), (2, 1.0)])
def test_simulate_without_reference_stderr(shots, photon_rate):
    # the signal total alone is Poisson, normalised by its expected
    # reference total D; at 2 shots of 1e-6 counts most totals are 0 and
    # the variance floor of 1 count applies
    plan = MeasurementPlan(dark_times=PLAN.dark_times, shots_per_point=shots,
                           detection_window=500e-9, photon_rate=photon_rate,
                           contrast=0.2, include_reference=False)
    denom = shots * plan.counts_per_shot
    _, signal, stderr = one_curve(plan, 3)
    for y, err in zip(signal, stderr):
        assert err == pytest.approx(math.sqrt(max(y * denom, 1.0)) / denom, rel=1e-12)


def test_simulate_single_shot_sentinel():
    one = MeasurementPlan(dark_times=PLAN.dark_times, shots_per_point=1,
                          detection_window=500e-9, photon_rate=1e5,
                          contrast=0.2)
    _, _, stderr = one_curve(one, 1)
    assert np.all(stderr == 0.0)


def test_fit_recovers_noise_free_curve():
    curve = synthetic_curve(T1_REF, PLAN)
    fit = fit_one(*curve)
    assert fit["converged"]
    assert fit["t1_hat_s"] == pytest.approx(T1_REF, rel=1e-10)
    assert fit["amplitude"] == pytest.approx(0.2, rel=1e-8)
    assert fit["baseline"] == pytest.approx(0.8, rel=1e-8)
    assert not fit["singular_curvature"]


def test_fit_order_invariant():
    curve = synthetic_curve(T1_REF, PLAN)
    order = list(range(len(PLAN.dark_times)))
    random.Random(0).shuffle(order)
    a = fit_one(*curve)
    b = fit_one(*(v[order] for v in curve))
    assert b["t1_hat_s"] == a["t1_hat_s"]
    assert b["covariance"] == a["covariance"]


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), log_k=st.floats(-3.0, 3.0))
def test_fit_scales_with_tau(seed, log_k):
    # rescaling every dark time by k rescales the fitted T1 and its error by
    # k and leaves amplitude and baseline alone
    k = 10.0 ** log_k
    tau, signal, stderr = one_curve(PLAN, seed)
    a, b = fit_one(tau, signal, stderr), fit_one(tau * k, signal, stderr)
    assert a["converged"] == b["converged"]
    if a["converged"]:
        assert b["t1_hat_s"] == pytest.approx(k * a["t1_hat_s"], rel=1e-6)
        assert b["t1_stderr_s"] == pytest.approx(k * a["t1_stderr_s"], rel=1e-6)
        assert b["amplitude"] == pytest.approx(a["amplitude"], rel=1e-6)
        assert b["baseline"] == pytest.approx(a["baseline"], rel=1e-6)


def test_fit_unweighted_on_zero_stderr():
    fit = fit_one(*synthetic_curve(T1_REF, PLAN, stderr=0.0))
    assert fit["converged"]
    assert fit["t1_hat_s"] == pytest.approx(T1_REF, rel=1e-8)


def test_fit_span_precondition():
    # a noise-free T1 = 10 ms decay on a linear 1-5 ms grid: the curve's own
    # T1 guess is about 3.5 ms, so the grid neither reaches twice the guess
    # nor spans a decade
    taus = np.linspace(1e-3, 5e-3, 9)
    with pytest.raises(ParameterError, match="tau grid too short"):
        fit_exponential(taus, expected_signal(taus, 10e-3), np.full_like(taus, 1e-3))


def test_fit_statistical_pull(tmp_path):
    fits = fit_exponential(*one_curve(PLAN, 99))
    fit = {key: column.tolist()[0] for key, column in fits.items()}
    assert fit["converged"]
    assert abs(fit["t1_hat_s"] - T1_REF) < 5.0 * fit["t1_stderr_s"]
    # chi-square per dof should be order unity for a correct error model
    assert 0.2 < fit["reduced_chi_sq"] < 5.0
    out = tmp_path / "fit.json"
    write_fit_json(fits | {"spot": [0], "t1_true_s": [T1_REF]}, [out])
    doc = json.loads(out.read_text())
    assert doc["t1_hat_s"] == fit["t1_hat_s"]
    assert doc["spot"] == 0 and doc["t1_true_s"] == T1_REF
    assert set(doc) == set(fit) | {"spot", "t1_true_s"}


def test_curve_roundtrip(tmp_path):
    curve = one_curve(PLAN, 5)
    path = tmp_path / "curve.tsv"
    write_curve(*(v[None] for v in curve), [path])
    again = read_curve(path)
    assert np.array_equal(np.array(again), np.array(curve))


def test_read_curve_errors(tmp_path):
    bad_header = tmp_path / "h.tsv"
    bad_header.write_text("time signal err\n1e-6 0.9 1e-3\n")
    with pytest.raises(ConfigError, match=":1:"):
        read_curve(bad_header)

    bad_row = tmp_path / "r.tsv"
    bad_row.write_text("\t".join(CURVE_HEADER) + "\n1e-6 0.9\n")
    with pytest.raises(ConfigError, match=":2:"):
        read_curve(bad_row)

    not_num = tmp_path / "n.tsv"
    not_num.write_text("\t".join(CURVE_HEADER) + "\n1e-6 oops 1e-3\n")
    with pytest.raises(ConfigError, match="non-numeric"):
        read_curve(not_num)

    empty = tmp_path / "e.tsv"
    empty.write_text("\t".join(CURVE_HEADER) + "\n")
    with pytest.raises(ConfigError, match="no data rows"):
        read_curve(empty)


def test_gaussian_summary_matches_numpy():
    samples = [1.0, 2.0, 3.0, 4.0, 10.0]
    g = gaussian_summary(samples)
    assert g["mean_t1_s"] == pytest.approx(4.0)
    assert g["sigma_t1_s"] == pytest.approx(math.sqrt(10.0), rel=1e-15)
    assert g["n"] == 5
    with pytest.raises(ParameterError):
        gaussian_summary([1.0, 2.0, 3.0, 4.0])
    with pytest.raises(ParameterError):
        gaussian_summary([2.0] * 6)


def test_separation_scores_hand_values():
    a = {"mean_t1_s": 10.0, "sigma_t1_s": 2.0, "n": 20}
    b = {"mean_t1_s": 16.0, "sigma_t1_s": 3.0, "n": 20}
    scores = separation_scores(a, b)
    assert scores["z_geometric"] == pytest.approx(6.0 / math.sqrt(6.0), rel=1e-15)
    assert scores["z_pooled"] == pytest.approx(6.0 / math.sqrt(6.5), rel=1e-15)
    assert separation_scores(b, a) == scores


def _spot_rngs(seed, n_spots):
    return [np.random.default_rng(c) for c in np.random.SeedSequence(seed).spawn(n_spots)]


def test_spot_ensemble_reproducible_and_accurate():
    plan = MeasurementPlan(dark_times=PLAN.dark_times,
                           shots_per_point=1_000_000_000,
                           detection_window=500e-9, photon_rate=1e5,
                           contrast=0.2)
    t1_true = np.full(5, T1_REF)
    curves = simulate_curve(t1_true, _spot_rngs(2026, 5), plan)
    assert all(v.shape == (5, len(plan.dark_times)) for v in curves)
    fits = fit_curves(*curves)
    assert len(fits["t1_hat_s"]) == 5
    assert fits["converged"].all()
    assert fits["t1_hat_s"] == pytest.approx(np.full(5, T1_REF), rel=1e-2)
    assert np.all(np.abs(fits["t1_hat_s"] - T1_REF) < 5.0 * fits["t1_stderr_s"])
    again = fit_curves(*simulate_curve(t1_true, _spot_rngs(2026, 5), plan))
    assert again["t1_hat_s"].tolist() == fits["t1_hat_s"].tolist()
    with pytest.raises(ValueError):
        simulate_curve(t1_true, _spot_rngs(2026, 4), plan)
