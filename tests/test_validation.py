import dataclasses

import pytest

import rbmrelax.validation as validation
from rbmrelax.bath import VolumeBath
from rbmrelax.constants import OMEGA_0
from rbmrelax.errors import ParameterError
from rbmrelax.validation import (
    OracleCheck,
    OracleReport,
    check_bath_mc,
    check_lorentzian_quadrature,
    check_sensitivity_ratio,
    format_report,
    run_oracles,
)


def test_quadrature_check_passes():
    check = check_lorentzian_quadrature()
    assert check.passed
    assert check.details["worst_rel_err_full"] < 1e-6


@pytest.mark.parametrize("forced", [False, True])
def test_bath_mc_reports_the_volume_tail_warning(monkeypatch, forced):
    # the shipped reference point never warns; a forced warning on the
    # volume bath's result must reach the report as it is
    if forced:
        real = validation.b_perp_mc

        def warned(geometry, bath, **kwargs):
            result = real(geometry, bath, **kwargs)
            if isinstance(bath, VolumeBath):
                result = dataclasses.replace(result, tail_warning=True)
            return result

        monkeypatch.setattr(validation, "b_perp_mc", warned)
    check = check_bath_mc()
    assert check.details["volume_tail_warning"] is forced
    assert f"      volume_tail_warning = {forced}" in format_report(
        OracleReport(checks=(check,))).splitlines()


def test_sensitivity_ratio_check_passes():
    check = check_sensitivity_ratio()
    assert check.passed
    # constant factor between formula and oracle, documented value
    assert check.details["mean_ratio"] == pytest.approx(
        0.91773530171230411, rel=1e-12)
    assert check.details["max_relative_deviation"] < 1e-12
    assert (check.details["points_used"], check.details["points_excluded"]) == (39, 1)


def test_sensitivity_ratio_check_fails_a_shifted_resonance(monkeypatch):
    # a closed form whose Lorentzian factor reads |R^2 - 0.99 omega0^2| for
    # |R^2 - omega0^2| moves the ratios by up to 3% (0.3% in the mean):
    # the check must fail
    real = validation.delta_r_min

    def shifted(inp):
        r2, w2 = inp.r_total**2, OMEGA_0**2
        return real(inp) * abs(r2 - w2) / abs(r2 - 0.99 * w2)

    monkeypatch.setattr(validation, "delta_r_min", shifted)
    check = check_sensitivity_ratio()
    assert not check.passed
    assert check.details["mean_ratio"] != pytest.approx(
        check.details["expected_constant_offset"], rel=1e-3)


def test_run_oracles_name_validation():
    with pytest.raises(ParameterError, match="unknown oracle"):
        run_oracles("nonsense")
    report = run_oracles("quadrature")
    assert report.passed
    assert all(c.passed for c in report.checks)


def test_format_report_shape():
    report = OracleReport(checks=(
        OracleCheck(name="alpha", passed=True, details={"x": 1.5}),
        OracleCheck(name="beta", passed=False, details={"z": 9.0}),
    ))
    assert not report.passed
    text = format_report(report)
    lines = text.splitlines()
    assert lines[0] == "PASS  alpha"
    assert "      x = 1.5" in lines
    assert "FAIL  beta" in lines
    assert lines[-1] == "overall: FAIL"
