"""The vectorised simulate_curve against a scalar reference.

The reference is the per-spot simulation the package used before curves
became arrays: one Poisson draw over the interleaved (signal, reference)
means of a spot, then a Python loop over its dark times.  It lives here
only.  Every value must come out the same, bit for bit, stderr included:
the batch squares the signal with libm's pow, as the reference's y**2
does, because y * y rounds about 0.1% of the squares differently, and
that drifts a stderr by up to 2 ulp.
"""

import math
from pathlib import Path

import numpy as np
import pytest

from rbmrelax.measure_sim import MeasurementPlan, default_dark_times, simulate_curve
from rbmrelax.scenario import draw_spots, measurement_plan, parse_config, predict

CONFIGS = Path(__file__).resolve().parents[1] / "configs"
T1_REF = 130e-6


def reference_curve(t1_true: float, plan: MeasurementPlan, rng):
    """(tau, signal, stderr) points of one spot, drawn from rng."""
    shots = plan.shots_per_point
    mu_ref_shot = plan.counts_per_shot
    means = []
    for tau in plan.dark_times:
        s = 1.0 - plan.contrast + plan.contrast * math.exp(-tau / t1_true)
        means.append(shots * (mu_ref_shot * s))
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
            err = math.sqrt(max(sig_total, 1) + y**2 * max(ref_total, 1)) / denom
        else:
            denom = shots * mu_ref_shot
            y = sig_total / denom
            err = math.sqrt(max(sig_total, 1)) / denom
        points.append((tau, y, err if shots > 1 else 0.0))
    return points


def assert_matches_reference(t1_true, rngs, ref_rngs, plan):
    tau, signal, stderr = simulate_curve(t1_true, rngs, plan)
    expected = np.array([reference_curve(float(t), plan, rng)
                         for t, rng in zip(t1_true, ref_rngs)])
    assert tau.shape == signal.shape == stderr.shape == expected.shape[:2]
    np.testing.assert_array_equal(tau, expected[..., 0])
    np.testing.assert_array_equal(signal, expected[..., 1])
    np.testing.assert_array_equal(stderr, expected[..., 2])
    # each spot made one draw of the same length: the streams end in step
    for rng, ref in zip(rngs, ref_rngs):
        assert rng.bit_generator.state == ref.bit_generator.state


def rng_pair(seed, n):
    return ([np.random.default_rng(c) for c in np.random.SeedSequence(seed).spawn(n)],
            [np.random.default_rng(c) for c in np.random.SeedSequence(seed).spawn(n)])


@pytest.mark.parametrize("include_reference", [True, False])
@pytest.mark.parametrize("shots, photon_rate", [(1, 1e12), (2, 1.0), (5000, 1e5),
                                                (200_000, 1e5)])
@pytest.mark.parametrize("seed", [0, 7, 2026])
def test_batch_matches_scalar_reference(include_reference, shots, photon_rate, seed):
    plan = MeasurementPlan(dark_times=default_dark_times(T1_REF), shots_per_point=shots,
                           detection_window=500e-9, photon_rate=photon_rate,
                           contrast=0.2, include_reference=include_reference)
    t1_true = T1_REF * np.array([1e-3, 0.1, 0.5, 1.0, 1.0, 3.0, 1e3])
    rngs, ref_rngs = rng_pair(seed, t1_true.size)
    assert_matches_reference(t1_true, rngs, ref_rngs, plan)


@pytest.mark.parametrize("config", ["gd_water_25nm.ini", "gd_acetone_x046_25nm.ini"])
def test_shipped_ensembles_match_scalar_reference(config):
    sc = parse_config(CONFIGS / config)
    plan = measurement_plan(sc, predict(sc)["t1_s"])
    # spawn advances a SeedSequence, so each side gets its own
    t1_true, rngs = draw_spots(sc, np.random.SeedSequence(sc.seed, spawn_key=(0,)), 500)
    _, ref_rngs = draw_spots(sc, np.random.SeedSequence(sc.seed, spawn_key=(0,)), 500)
    assert_matches_reference(t1_true, rngs, ref_rngs, plan)
