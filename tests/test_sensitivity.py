import math
from dataclasses import replace

import numpy as np
import pytest

from rbmrelax.constants import OMEGA_0
from rbmrelax.errors import ParameterError, SingularityError
from rbmrelax.sensitivity import (
    CURVE_COLUMNS,
    SensitivityInputs,
    default_density_grid,
    delta_r_min,
    delta_r_oracle,
    optimize_density,
    write_sensitivity_curve,
)
from rbmrelax.table import read_table

REF = SensitivityInputs(
    contrast=0.2,
    photon_rate=1e5,
    detection_window=500e-9,
    acquisition_time=10.0,
    b_perp_sq=1e-8,
    r_total=10.0 * OMEGA_0,
)

# numerical-oracle-to-closed-form ratio: sqrt(2/e) over the sqrt of the
# relaxed signal depth 1 - C + C/e at the readout point tau = T1
ORACLE_RATIO = 0.91773530171230411


def test_reference_value():
    assert delta_r_min(REF) == pytest.approx(42442557518.221771, rel=1e-13)


def test_averaging_time_scaling():
    quad = replace(REF, acquisition_time=4.0 * REF.acquisition_time)
    assert delta_r_min(quad) == pytest.approx(0.5 * delta_r_min(REF), rel=1e-12)


def test_contrast_rate_tradeoff_invariance():
    traded = replace(REF, contrast=REF.contrast / 2.0,
                     photon_rate=4.0 * REF.photon_rate)
    assert delta_r_min(traded) == pytest.approx(delta_r_min(REF), rel=1e-12)


def test_field_variance_scaling():
    doubled = replace(REF, b_perp_sq=2.0 * REF.b_perp_sq)
    assert delta_r_min(doubled) == pytest.approx(
        delta_r_min(REF) / math.sqrt(2.0), rel=1e-12)


def test_resonance_guard():
    with pytest.raises(SingularityError):
        delta_r_min(replace(REF, r_total=OMEGA_0))
    with pytest.raises(SingularityError):
        delta_r_min(replace(REF, r_total=OMEGA_0 * (1.0 + 5e-10)))
    # just outside the guard: computes without raising
    assert delta_r_min(replace(REF, r_total=OMEGA_0 * (1.0 + 1e-8))) > 0.0


def test_oracle_constant_ratio():
    ratio = delta_r_min(REF) / delta_r_oracle(REF)
    assert ratio == pytest.approx(ORACLE_RATIO, rel=1e-12)
    slow = replace(REF, r_total=0.3 * OMEGA_0)
    assert delta_r_min(slow) / delta_r_oracle(slow) == pytest.approx(
        ORACLE_RATIO, rel=1e-12)


@pytest.mark.parametrize("rate", [0.3, 0.999, 1.001, 10.0])
def test_oracle_ratio_is_its_predicted_constant(rate):
    # the oracle's derivative is exact, so the ratio is sqrt(2 / (e s(T1)))
    # to rounding, also a thousandth off the resonance, where both diverge
    inp = replace(REF, r_total=rate * OMEGA_0)
    depth = 1.0 - inp.contrast + inp.contrast / math.e
    assert delta_r_min(inp) / delta_r_oracle(inp) == pytest.approx(
        math.sqrt(2.0 / (math.e * depth)), rel=1e-12)


def test_default_density_grid():
    grid = default_density_grid(1e25)
    assert len(grid) == 121
    assert grid[60] == pytest.approx(1e25, rel=1e-12)
    assert grid[-1] / grid[0] == pytest.approx(1e3, rel=1e-9)
    with pytest.raises(ParameterError):
        default_density_grid(-1.0)


def synthetic_bath(grid, r_total):
    """Inputs over a density grid whose field variance grows linearly with
    density; r_total in 1/s, an array over the grid or one value."""
    return replace(REF, b_perp_sq=1e-34 * np.asarray(grid), r_total=r_total)


def test_optimize_density_finds_interior_minimum():
    # rate crosses omega0 inside the grid, so delta_r_min has an interior
    # minimum
    grid = np.geomspace(1e24, 1e28, 81)
    curve = optimize_density(grid, synthetic_bath(grid, 1e9 + 1e-17 * grid))
    assert not curve.boundary_warning
    assert curve.points[0][0] < curve.argmin_density < curve.points[-1][0]
    assert curve.delta_min == min(p[2] for p in curve.points)
    i = curve.argmin_index
    assert curve.points[i - 1][2] > curve.delta_min < curve.points[i + 1][2]


def test_optimize_density_skips_resonant_points():
    grid = np.array([1e24, 1e25, 1e26, 1e27, 1e28])
    # the rate hits omega0 exactly at the grid point n = 1e26
    curve = optimize_density(grid, synthetic_bath(grid, OMEGA_0 * (grid / 1e26)))
    assert curve.skipped == (1e26,)
    assert len(curve.points) == 4


def test_optimize_density_grid_validation():
    # scalar inputs apply to every grid density
    with pytest.raises(ParameterError, match=">= 2 positive values"):
        optimize_density((1e25,), REF)
    with pytest.raises(ParameterError, match="strictly ascending"):
        optimize_density((1e26, 1e25, 1e27), REF)
    with pytest.raises(ParameterError, match="two decades"):
        optimize_density((1e25, 2e25, 9e25), REF)


def test_boundary_warning_on_monotonic_curve():
    grid = np.geomspace(10**24.75, 10**27.25, 26)
    # constant rate far below omega0: delta falls as 1/sqrt(n)
    curve = optimize_density(grid, synthetic_bath(grid, 1e12))
    assert curve.boundary_warning
    assert curve.argmin_index == len(curve.points) - 1


@pytest.mark.parametrize("rate", ["crossing", "resonant", "constant"])
def test_curve_points_hold_the_curve_invariants(rate):
    # what SensitivityCurve once re-checked on every curve: an (n, 3) float
    # array strictly ascending in density, whose argmin row holds the least
    # delta_r_min
    grid = np.geomspace(1e24, 1e28, 41)
    if rate == "resonant":
        grid = np.sort(np.append(grid, (OMEGA_0 - 1e9) / 1e-17))
    r_total = 1e12 if rate == "constant" else 1e9 + 1e-17 * grid
    curve = optimize_density(grid, synthetic_bath(grid, r_total))
    n = grid.size - len(curve.skipped)
    assert curve.points.shape == (n, 3) and curve.points.dtype == float
    assert np.all(np.diff(curve.points[:, 0]) > 0.0)
    assert 0 <= curve.argmin_index < n
    assert curve.delta_min == curve.points[:, 2].min()


def test_curve_file_roundtrip(tmp_path):
    # one grid density puts the rate on the level splitting, so it is skipped
    resonant = (OMEGA_0 - 1e9) / 1e-17
    grid = np.sort(np.append(np.geomspace(1e24, 1e28, 41), resonant))
    curve = optimize_density(grid, synthetic_bath(grid, 1e9 + 1e-17 * grid))
    assert curve.skipped == (resonant,)
    path = tmp_path / "sens.tsv"
    write_sensitivity_curve(curve, path)
    rows, meta = read_table(path, CURVE_COLUMNS, "sensitivity curve")
    assert rows == tuple(map(tuple, curve.points.tolist()))
    assert float(meta["density_per_m3"]) == curve.argmin_density
    assert float(meta["r_total_per_s"]) == curve.rate_at_min
    assert float(meta["delta_r_min_per_s"]) == curve.delta_min
    assert meta["boundary_warning"] == str(curve.boundary_warning).lower()
    skipped = tuple(float(v) for v in meta["skipped_densities"].split(","))
    assert skipped == curve.skipped