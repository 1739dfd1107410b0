"""The calibration script re-derives the constants frozen in the package.

tools/calibrate.py is not part of the package, so its directory is put on
sys.path here.
"""

import sys
from pathlib import Path

import pytest

from rbmrelax.bath import ParticleGeometry, SurfaceBath, b_perp_sq_surface
from rbmrelax.core_relax import NoiseSource, t1_total
from rbmrelax.errors import ParameterError
from rbmrelax.scenario import (
    KAPPA_DIP_CAL,
    MOLECULE_RADIUS_CAL,
    OPTIMAL_DENSITY_CAL,
    SURFACE_DENSITY_CAL,
    VIBRATION_RATE_CAL,
)

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tools"))
import calibrate  # noqa: E402

FROZEN = {"molecule_radius": MOLECULE_RADIUS_CAL,
          "surface_density": SURFACE_DENSITY_CAL,
          "vibration_rate": VIBRATION_RATE_CAL,
          "kappa_dip": KAPPA_DIP_CAL,
          "optimal_density": OPTIMAL_DENSITY_CAL}


def test_calibration_chain_reproduces_frozen_constants():
    # the shipped defaults must stay reproducible from their anchors
    assert calibrate.calibrate_molecule_radius() == pytest.approx(
        MOLECULE_RADIUS_CAL, rel=1e-12)
    assert calibrate.calibrate_surface() == pytest.approx(
        SURFACE_DENSITY_CAL, rel=1e-12)
    gd = calibrate.calibrate_gd_bath()
    assert gd.vibration_rate == pytest.approx(VIBRATION_RATE_CAL, rel=1e-12)
    assert gd.kappa_dip == pytest.approx(KAPPA_DIP_CAL, rel=1e-12)
    assert gd.optimal_density == pytest.approx(OPTIMAL_DENSITY_CAL, rel=1e-12)


def test_main_prints_the_frozen_constants(capsys):
    calibrate.main()
    printed = {}
    for line in capsys.readouterr().out.splitlines():
        name, _, value = line.partition("=")
        if not name.startswith(" "):
            printed[name.strip()] = float(value.split()[0])
    assert FROZEN.keys() <= printed.keys()
    for name, frozen in FROZEN.items():
        assert printed[name] == pytest.approx(frozen, rel=1e-12), name


def test_calibrate_surface_inverts_forward_model():
    sigma_true = 1.3e18
    b2 = b_perp_sq_surface(ParticleGeometry(diameter=25.0e-9),
                           SurfaceBath(areal_density=sigma_true))
    t1 = t1_total({"surface": NoiseSource(b_perp_sq=b2, tau_c=1.0 / 18e9)},
                  t1_bulk=3e-3)["t1_s"]
    sigma_hat = calibrate.calibrate_surface(t1, 25.0e-9, t1_bulk=3e-3, surface_rate=18e9)
    assert sigma_hat == pytest.approx(sigma_true, rel=1e-12)


def test_calibrate_surface_requires_shortening():
    with pytest.raises(calibrate.NoSolutionError):
        calibrate.calibrate_surface(3e-3, 25.0e-9, t1_bulk=3e-3)
    with pytest.raises(ParameterError):
        calibrate.calibrate_surface(-1e-4, 25.0e-9, t1_bulk=3e-3)
