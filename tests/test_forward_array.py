"""The array-valued forward model against the per-point scalar model.

tests/data/forward_golden.json holds values recorded from the scalar
forward model that evaluated one grid point per call, before predict and
density_sensitivity_curve took arrays: 240 random points over all four
predict overrides on the shipped configs, and three density curves, one of
them with a grid point on the resonance.  The array path must reproduce
them to 1e-12 relative; element-wise array powers may differ from libm's
scalar pow in the last bit, so exact equality is not required.
"""

import json
import math
import re
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.interpolate import PchipInterpolator

from rbmrelax.errors import ParameterError
from rbmrelax.hydro import Pchip, default_table_path, load_viscosity_table
from rbmrelax.scenario import (
    _KEY,
    Scenario,
    density_sensitivity_curve,
    parse_config,
    predict,
)

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = json.loads((Path(__file__).parent / "data" / "forward_golden.json").read_text())
OVERRIDES = ("gd_density", "x_water", "diameter", "surface_density")
RTOL = 1e-12


def columns(pred):
    """The sweep columns of a prediction, in the golden file's order; its
    column names are the report keys."""
    return [pred[k] for k in GOLDEN["columns"]]


@pytest.mark.parametrize("group", GOLDEN["forward"],
                         ids=lambda g: Path(g["config"]).stem)
def test_array_predict_matches_scalar_golden(group):
    sc = parse_config(ROOT / group["config"])
    points = group["points"]
    pred = predict(sc, **{k: np.array([p[k] for p in points]) for k in OVERRIDES})
    want = np.array([p["values"] for p in points]).T
    for name, got, expected in zip(GOLDEN["columns"],
                                   np.broadcast_arrays(*columns(pred)), want):
        np.testing.assert_allclose(got, expected, rtol=RTOL, atol=0.0, err_msg=name)


@pytest.mark.parametrize("group", GOLDEN["forward"],
                         ids=lambda g: Path(g["config"]).stem)
def test_scalar_predict_matches_scalar_golden(group):
    sc = parse_config(ROOT / group["config"])
    for p in group["points"][::7]:
        got = columns(predict(sc, **{k: p[k] for k in OVERRIDES}))
        assert all(np.ndim(v) == 0 for v in got)
        np.testing.assert_allclose(got, p["values"], rtol=RTOL, atol=0.0)


def test_predict_broadcasts_a_grid_of_overrides():
    sc = parse_config(ROOT / "configs" / "gd_water_25nm.ini")
    n = np.array([0.0, 1e24, 3e25, 6.9e25])[:, None]
    x = np.array([0.0, 0.046, 0.5, 1.0])
    t1 = predict(sc, gd_density=n, x_water=x)["t1_s"]
    assert t1.shape == (4, 4)
    for i, ni in enumerate(n[:, 0]):
        for j, xj in enumerate(x):
            assert t1[i, j] == pytest.approx(
                predict(sc, gd_density=float(ni), x_water=float(xj))["t1_s"], rel=RTOL)
    # the molecular source exists only where its field does
    molecular = predict(sc, gd_density=n[:, 0])["rate_source_molecular_per_s"]
    assert molecular[0] == 0.0 and np.all(molecular[1:] > 0.0)
    assert "rate_source_molecular_per_s" not in predict(sc, gd_density=0.0)


@pytest.mark.parametrize("override, bad", [
    ("gd_density", np.nan), ("gd_density", -1e24), ("gd_density", np.inf),
    ("x_water", np.nan), ("x_water", 1.5), ("diameter", np.inf),
    ("diameter", -25e-9), ("surface_density", np.nan)])
def test_bad_override_element_is_a_parameter_error(override, bad):
    sc = parse_config(ROOT / "configs" / "gd_water_25nm.ini")
    good = {"gd_density": 1e25, "x_water": 0.5, "diameter": 25e-9,
            "surface_density": 1e18}[override]
    with pytest.raises(ParameterError, match=re.escape(repr(float(bad)))):
        predict(sc, **{override: np.array([good, bad, good])})


WATER = parse_config(ROOT / "configs" / "gd_water_25nm.ini")
IN_RANGE = {"gd_density": (0.0, 1e25, 6.9e25), "x_water": (0.0, 0.046, 1.0),
            "diameter": (10e-9, 25e-9), "surface_density": (0.0, 1.6e18)}
# NaN, the infinities, negatives, signed zeros, subnormals, 1 -+ 1 ulp and
# magnitudes near DBL_MAX
EXTREMES = (math.nan, math.inf, -math.inf, -1.0, -0.0, 0.0, 5e-324, sys.float_info.min / 2,
            math.nextafter(1.0, 0.0), math.nextafter(1.0, 2.0), sys.float_info.max / 2,
            sys.float_info.max, -sys.float_info.max)
NAMES = OVERRIDES + tuple(_KEY.values())


@st.composite
def override_arrays(draw):
    """One to four overrides, each an array of the same length mixing
    in-range values with extremes."""
    n = draw(st.integers(1, 4))
    names = draw(st.lists(st.sampled_from(OVERRIDES), min_size=1, unique=True))
    return {name: np.array(draw(st.lists(st.sampled_from(IN_RANGE[name] + EXTREMES),
                                         min_size=n, max_size=n)))
            for name in names}


@settings(max_examples=150, deadline=None)
@given(overrides=override_arrays())
def test_override_arrays_fail_by_name_or_stay_finite(overrides):
    # the overrides enter the program at predict, which checks them once:
    # a bad element is a ParameterError naming its keyword or a config key,
    # and anything accepted gives finite values under every key
    try:
        pred = predict(WATER, **overrides)
    except ParameterError as exc:
        assert any(name in str(exc) for name in NAMES), str(exc)
        return
    for key, value in pred.items():
        assert np.all(np.isfinite(value)), key


def _curve_scenario(case):
    if "config" in case:
        return parse_config(ROOT / case["config"])
    return Scenario(**case["scenario"])


@pytest.mark.parametrize("case", GOLDEN["sensitivity"], ids=lambda c: c["case"])
def test_density_curve_matches_scalar_golden(case):
    grid = None if case["grid"] is None else tuple(case["grid"])
    curve = density_sensitivity_curve(_curve_scenario(case), grid=grid)
    assert curve.skipped == tuple(case["skipped"])
    assert curve.argmin_index == case["argmin_index"]
    assert curve.boundary_warning == case["boundary_warning"]
    got, want = np.array(curve.points), np.array(case["points"])
    assert np.array_equal(got[:, 0], want[:, 0])
    np.testing.assert_allclose(got[:, 1:], want[:, 1:], rtol=RTOL, atol=0.0)


def _assert_matches_scipy(x, y, queries):
    np.testing.assert_array_equal(Pchip(x, y)(queries), PchipInterpolator(x, y)(queries))


def test_pchip_equals_scipy_on_shipped_table():
    table = load_viscosity_table(default_table_path())
    x, y = [r[0] for r in table], [r[1] for r in table]
    queries = np.concatenate([np.linspace(-0.1, 1.1, 20001), x])
    _assert_matches_scipy(x, y, queries)
    assert isinstance(Pchip(x, y)(0.3), float)
    assert Pchip(x, y)(0.3) == float(PchipInterpolator(x, y)(0.3))


@pytest.mark.parametrize("shape", ["monotone", "non-monotone", "flat steps"])
def test_pchip_equals_scipy_on_random_tables(shape):
    rng = np.random.default_rng({"monotone": 1, "non-monotone": 2, "flat steps": 3}[shape])
    for size in (2, 3, 4, 7, 20, 50):
        x = np.cumsum(rng.uniform(0.01, 1.0, size)) - 3.0
        if shape == "monotone":
            y = np.cumsum(rng.uniform(0.0, 2.0, size))
        elif shape == "non-monotone":
            y = rng.normal(size=size)
        else:
            y = rng.integers(0, 3, size).astype(float)
        _assert_matches_scipy(x, y, rng.uniform(x[0] - 1.0, x[-1] + 1.0, 2000))
