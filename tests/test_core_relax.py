import math

import numpy as np
import pytest

from rbmrelax.constants import OMEGA_0
from rbmrelax.core_relax import (
    NoiseSource,
    lorentzian_psd,
    rate_contribution,
    t1_total,
)
from rbmrelax.errors import ParameterError

SRC = NoiseSource(b_perp_sq=2.0e-9, tau_c=1.0 / 18.0e9)


def test_psd_zero_frequency():
    # hand-evaluated: b^2 * 2 tau_c = 2e-9 * 2 / 18e9
    assert lorentzian_psd(SRC, 0.0) == pytest.approx(2.2222222222222221e-19, rel=1e-14)


def test_psd_at_level_splitting():
    # hand-evaluated Lorentzian at omega0 = 2 pi 2.87e9
    assert lorentzian_psd(SRC, OMEGA_0) == pytest.approx(1.1090918485733399e-19, rel=1e-14)


def test_psd_even_in_detuning_shape():
    # S(w) * (1 + (w tau)^2) is flat
    for w in (0.0, 1e9, OMEGA_0, 1e12):
        flat = lorentzian_psd(SRC, w) * (1.0 + (w * SRC.tau_c) ** 2)
        assert flat == pytest.approx(2.0e-9 * 2.0 * SRC.tau_c, rel=1e-14)


def test_rate_contribution_value():
    # 1.5 gamma_e^2 S(omega0), hand-evaluated
    assert rate_contribution(SRC) == pytest.approx(5158.3159010389109, rel=1e-14)


def test_psd_array_call_equals_scalar_calls_and_is_even():
    # one call on an array of frequencies gives the scalar calls' bits, and
    # S(-w) = S(w); zero is the zero-field limit
    omegas = (-OMEGA_0, 0.0, OMEGA_0)
    values = lorentzian_psd(SRC, np.array(omegas))
    assert values.tolist() == [lorentzian_psd(SRC, w) for w in omegas]
    assert values[0] == values[2]
    assert values[1] == pytest.approx(2.0e-9 * 2.0 * SRC.tau_c, rel=1e-15)


def test_t1_total_bookkeeping():
    other = NoiseSource(b_perp_sq=5.0e-10, tau_c=1e-10)
    res = t1_total({"slow": SRC, "fast": other}, t1_bulk=3e-3)
    sources = [k for k in res if k.startswith("rate_source_")]
    total = 1.0 / 3e-3 + sum(res[k] for k in sources)
    assert res["rate_total_per_s"] == pytest.approx(total, rel=1e-14)
    assert res["t1_s"] == pytest.approx(1.0 / res["rate_total_per_s"], rel=1e-14)
    assert res["rate_bulk_per_s"] == pytest.approx(1.0 / 3e-3, rel=1e-14)
    # one key per source, in name order
    assert sources == ["rate_source_fast_per_s", "rate_source_slow_per_s"]


def test_t1_total_no_sources_gives_bulk():
    res = t1_total({}, t1_bulk=3e-3)
    assert res["t1_s"] == pytest.approx(3e-3, rel=1e-14)


def test_t1_total_rejects_a_bulk_t1_whose_rate_overflows():
    # 1 / 5.6e-309 is still finite; the bulk rate of 5e-309 s is not
    assert t1_total({}, t1_bulk=5.6e-309)["t1_s"] > 0.0
    for t1_bulk in (5e-309, 5e-324):
        with pytest.raises(ParameterError, match="reciprocal overflows"):
            t1_total({}, t1_bulk=t1_bulk)


def test_t1_total_rejects_a_source_rate_that_overflows():
    # a sum of Python floats overflows to inf silently: a finite field
    # variance whose rate overflows once gave t1_s = 0; an infinite one meets
    # the same check
    for b2 in (1e300, math.inf):
        with pytest.raises(ParameterError, match=r"relaxation rate of inf /s"):
            t1_total({"s": NoiseSource(b_perp_sq=b2, tau_c=1e-10)}, t1_bulk=3e-3)


def narrowing(rates):
    """Rate contribution of SRC's field variance at each fluctuation rate."""
    return rate_contribution(NoiseSource(b_perp_sq=SRC.b_perp_sq,
                                         tau_c=1.0 / np.asarray(rates)))


def test_narrowing_peak_at_level_splitting():
    # the contribution R/(R^2+w0^2) is maximal exactly at R = omega0
    grid = [OMEGA_0 * f for f in (0.1, 0.5, 1.0, 2.0, 10.0)]
    values = narrowing(grid)
    assert values.shape == (len(grid),)
    assert values.argmax() == grid.index(OMEGA_0)


def test_narrowing_ratio_ten_to_one():
    # hand-derived: contribution ratio R=10 w0 vs R=w0 is 20/101
    at_w0, at_ten = narrowing([OMEGA_0, 10.0 * OMEGA_0])
    assert at_ten / at_w0 == pytest.approx(20.0 / 101.0, rel=1e-12)
