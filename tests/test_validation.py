import dataclasses
import math
import os

import numpy as np
import pytest

import rbmrelax.validation as validation
from rbmrelax import cli
from rbmrelax.bath import VolumeBath
from rbmrelax.constants import OMEGA_0
from rbmrelax.core_relax import lorentzian_psd
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
    assert check.details["worst_rel_err_norm"] <= 1e-12
    assert check.details["worst_rel_err_node"] <= 1e-12


def test_check_reports_errors_to_three_digits():
    check = check_lorentzian_quadrature()
    assert check.passed
    for key, value in check.details.items():
        assert value == float(f"{value:.3g}"), key


def mutated_psd(factor=1.0, knee_tau=1.0, power=1.0):
    """lorentzian_psd with its factor 2 scaled, tau scaled in the knee and
    the denominator raised to a power."""
    def psd(source, omega):
        x = omega * source.tau_c * knee_tau
        return factor * source.b_perp_sq * 2.0 * source.tau_c / (1.0 + x * x) ** power
    return psd


# mutated densities and the worst (normalization, node) errors they give
MUTATIONS = {
    "factor 2 lost": (mutated_psd(factor=0.5), 0.5, 0.5),
    "denominator to the 1.5": (mutated_psd(power=1.5), 0.363, 0.995),
    "tau scaled by 1.01 in the knee": (mutated_psd(knee_tau=1.01), 0.0099, 0.0197),
    "knee scaled by 1.0002": (mutated_psd(knee_tau=1.0 / 1.0002), 2e-4, 4e-4),
    "omega read as omega / 2 pi": (mutated_psd(knee_tau=1.0 / (2.0 * math.pi)), 5.28, 38.4),
}


@pytest.mark.parametrize("name", MUTATIONS)
def test_quadrature_check_fails_a_mutated_lorentzian(monkeypatch, name):
    psd, norm, node = MUTATIONS[name]
    monkeypatch.setattr(validation, "lorentzian_psd", psd)
    check = check_lorentzian_quadrature()
    assert not check.passed
    assert check.details["worst_rel_err_norm"] == pytest.approx(norm, rel=0.01)
    assert check.details["worst_rel_err_node"] == pytest.approx(node, rel=0.01)



def spoiled_psd(nodes, values):
    """lorentzian_psd with values written at the given nodes."""
    def psd(source, omega):
        out = lorentzian_psd(source, omega)
        out[nodes] = values
        return out
    return psd


# NaN past the first node, which max() would skip, and a sum fsum rejects
@pytest.mark.parametrize("nodes, values", [(slice(1, None), math.nan), ([10], math.nan),
                                           ([5, 15], [math.inf, -math.inf])],
                         ids=["nan past the first node", "one nan node", "inf and -inf"])
def test_quadrature_check_fails_a_non_finite_lorentzian(monkeypatch, nodes, values):
    monkeypatch.setattr(validation, "lorentzian_psd", spoiled_psd(nodes, values))
    check = check_lorentzian_quadrature()
    assert not check.passed
    assert not check.details["worst_rel_err_node"] <= 1e-12

def test_cli_offers_every_oracle_family():
    assert set(cli.ORACLE_NAMES) == set(validation._CHECKS) | {"all"}


@pytest.mark.parametrize("forced", [False, True])
def test_bath_mc_reports_the_volume_tail_warning(monkeypatch, forced):
    # the shipped reference point never warns; a forced warning on the
    # volume bath's result must reach the report as it is
    if forced:
        real = validation.b_perp_mc_batch

        def warned(requests):
            return [dataclasses.replace(result, tail_warning=True)
                    if isinstance(request[1], VolumeBath) else result
                    for request, result in zip(requests, real(requests))]

        monkeypatch.setattr(validation, "b_perp_mc_batch", warned)
    check = check_bath_mc()
    assert check.details["volume_tail_warning"] is forced
    assert f"      volume_tail_warning = {forced}" in format_report(
        OracleReport(checks=(check,))).splitlines()


def test_bath_mc_report_does_not_depend_on_the_worker_count(monkeypatch):
    # b_perp_mc_batch runs one worker per CPU it sees, up to its 17 chunks
    texts = []
    for cpus in (1, 2, 3):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid, n=cpus: set(range(n)),
                            raising=False)
        texts.append(format_report(run_oracles("bath_mc")))
    assert texts[0] == texts[1] == texts[2]
    assert texts[0].endswith("overall: PASS")


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
