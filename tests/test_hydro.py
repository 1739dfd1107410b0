import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rbmrelax.errors import ConfigError, ParameterError
from rbmrelax.hydro import (
    A_S_ACETONE_DEFAULT,
    A_S_WATER_DEFAULT,
    HydroParams,
    SolventMixture,
    default_table_path,
    effective_solvent_radius,
    hydro_params_at,
    load_viscosity_table,
    microviscosity_factor,
    mixture_viscosity,
    rbm_rate,
    total_rate,
    translational_diffusivity,
    translational_rate,
)


def reference_mixture() -> SolventMixture:
    """Water/acetone mixture backed by the shipped viscosity table."""
    return SolventMixture(viscosity_table=load_viscosity_table(default_table_path()),
                          a_s_water=A_S_WATER_DEFAULT, a_s_other=A_S_ACETONE_DEFAULT)


def test_microviscosity_continuum_limit():
    assert microviscosity_factor(0.5e-9, 0.0) == 1.0


def test_microviscosity_frozen_values():
    # hand-evaluated: u=1 gives 1/(6 + 2/27), u=0.5 gives 1/3.21875
    assert microviscosity_factor(1e-9, 1e-9) == pytest.approx(0.16463414634146339, rel=1e-14)
    assert microviscosity_factor(1e-9, 0.5e-9) == pytest.approx(0.31067961165048541, rel=1e-14)


def test_microviscosity_bounded_and_decreasing():
    prev = 1.0
    for a_s in (0.05e-9, 0.1e-9, 0.2e-9, 0.5e-9, 1e-9, 5e-9):
        f = microviscosity_factor(0.5e-9, a_s)
        assert 0.0 < f <= 1.0
        assert f < prev
        prev = f


def test_rbm_rate_continuum_value():
    # hand-evaluated k_B T / (8 pi a^3 eta) at T=300 K, a=0.5 nm, 1 mPa s
    p = HydroParams(a=0.5e-9, a_s=0.0, eta=1.0e-3, temperature=300.0)
    assert rbm_rate(p) == pytest.approx(1318422678.1492929, rel=1e-12)


def test_rbm_rate_microviscosity_speedup():
    # f_r < 1 divides the friction, so the rate grows
    slow = HydroParams(a=0.5e-9, a_s=0.0, eta=1.0e-3, temperature=300.0)
    fast = HydroParams(a=0.5e-9, a_s=0.25e-9, eta=1.0e-3, temperature=300.0)
    assert rbm_rate(fast) > rbm_rate(slow)
    ratio = rbm_rate(fast) / rbm_rate(slow)
    assert ratio == pytest.approx(1.0 / microviscosity_factor(0.5e-9, 0.25e-9), rel=1e-12)


def _floats(lo, hi):
    return st.floats(min_value=lo, max_value=hi, allow_nan=False, allow_infinity=False)


@settings(max_examples=200, deadline=None)
@given(a=_floats(1e-11, 1e-8), a_s=_floats(0.0, 1e-9), eta=_floats(1e-4, 1.0),
       temperature=_floats(1.0, 1000.0), factor=_floats(1.001, 100.0))
def test_rbm_rate_decreases_in_viscosity_and_radius(a, a_s, eta, temperature, factor):
    base = rbm_rate(HydroParams(a=a, a_s=a_s, eta=eta, temperature=temperature))
    assert rbm_rate(HydroParams(a=a, a_s=a_s, eta=eta * factor,
                                temperature=temperature)) < base
    assert rbm_rate(HydroParams(a=a * factor, a_s=a_s, eta=eta,
                                temperature=temperature)) < base


def test_translational_values():
    # hand-evaluated Stokes-Einstein at T=300 K, a=0.5 nm, 1 mPa s
    p = HydroParams(a=0.5e-9, a_s=0.0, eta=1.0e-3, temperature=300.0)
    assert translational_diffusivity(p) == pytest.approx(4.3947422604976441e-10, rel=1e-12)
    assert translational_rate(p, 12.5e-9) == pytest.approx(2812635.0467184926, rel=1e-12)


def test_mixture_endpoints_match_table():
    # the interpolant passes through the table nodes
    m = reference_mixture()
    assert mixture_viscosity(m, 1.0) == pytest.approx(0.890e-3, rel=1e-12)
    assert mixture_viscosity(m, 0.0) == pytest.approx(0.306e-3, rel=1e-12)


def test_mixture_has_interior_maximum():
    # the water-acetone viscosity peaks at intermediate composition
    m = reference_mixture()
    etas = [mixture_viscosity(m, x / 100.0) for x in range(101)]
    peak = max(etas)
    assert peak > etas[0] and peak > etas[-1]
    assert peak == pytest.approx(1.298e-3, rel=0.02)


def test_effective_solvent_radius_linear_rule():
    m = reference_mixture()
    assert effective_solvent_radius(m, 1.0) == pytest.approx(A_S_WATER_DEFAULT, rel=1e-14)
    assert effective_solvent_radius(m, 0.0) == pytest.approx(A_S_ACETONE_DEFAULT, rel=1e-14)
    assert effective_solvent_radius(m, 0.5) == pytest.approx(1.95e-10, rel=1e-14)


def test_hydro_params_at_wires_mixture():
    m = reference_mixture()
    p = hydro_params_at(m, a=0.5e-9, temperature=298.0, x=0.5)
    assert p.eta == mixture_viscosity(m, 0.5)
    assert p.a_s == effective_solvent_radius(m, 0.5)
    q = hydro_params_at(m, a=0.5e-9, temperature=298.0, x=1.0)
    assert q.eta == pytest.approx(0.890e-3, rel=1e-12)


def test_mixture_builds_its_interpolant_once():
    m = reference_mixture()
    assert m.interpolant is m.interpolant
    xs = np.linspace(0.0, 1.0, 11)
    assert mixture_viscosity(m, xs).tolist() == [mixture_viscosity(m, float(x)) for x in xs]


def test_total_rate_is_component_sum():
    br = total_rate(r_dip=1.0e9, r_vib=2.0e9, r_trans=3.0e6, r_rot=4.0e9)
    assert br["total"] == pytest.approx(
        br["dip"] + br["vib"] + br["trans"] + br["rot"], rel=1e-14)
    assert list(br) == ["dip", "vib", "trans", "rot", "total"]
    # a sum of Python floats past the float range is an error, not an inf
    with pytest.raises(ParameterError, match=r"rates sum to inf /s$"):
        total_rate(r_dip=0.0, r_vib=1e308, r_trans=0.0, r_rot=1e308)


def test_load_viscosity_table_roundtrip():
    rows = load_viscosity_table(default_table_path())
    xs = [x for x, _ in rows]
    assert xs[0] == 0.0 and xs[-1] == 1.0
    assert all(b > a for a, b in zip(xs, xs[1:]))
    # file stores mPa s, loader returns Pa s
    assert dict(rows)[1.0] == pytest.approx(0.890e-3, rel=1e-12)


def test_load_viscosity_table_errors(tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("mole_fraction viscosity_mPa_s\n0.0 0.3\n0.5 not_a_number\n")
    with pytest.raises(ConfigError) as err:
        load_viscosity_table(bad)
    assert ":3" in str(err.value)
    with pytest.raises(ConfigError):
        load_viscosity_table(tmp_path / "missing.txt")
    partial = tmp_path / "partial.txt"
    partial.write_text("mole_fraction viscosity_mPa_s\n0.2 0.3\n1.0 0.9\n")
    with pytest.raises(ConfigError):
        load_viscosity_table(partial)  # must cover [0, 1]
    repeated = tmp_path / "repeated.txt"
    repeated.write_text("mole_fraction viscosity_mPa_s\n0.0 0.3\n0.5 0.5\n0.5 0.6\n1.0 0.9\n")
    with pytest.raises(ConfigError, match=r"repeated\.txt: rows must be strictly sorted"):
        load_viscosity_table(repeated)
    # a table in Pa s must not be scaled by 1e-3 a second time
    pa_s = tmp_path / "pa_s.txt"
    pa_s.write_text("# water/acetone\nmole_fraction viscosity_Pa_s\n0.0 3e-4\n1.0 9e-4\n")
    with pytest.raises(ConfigError, match=r"pa_s\.txt:2: expected header "
                                          r"'mole_fraction viscosity_mPa_s'"):
        load_viscosity_table(pa_s)
    nan = tmp_path / "nan.txt"
    nan.write_text("mole_fraction viscosity_mPa_s\n0.0 0.306\n0.50  nan\n1.0 0.89\n")
    with pytest.raises(ConfigError, match=r"nan\.txt:3: non-finite"):
        load_viscosity_table(nan)
    # a viscosity <= 0 is named with its file, in the file's mPa s
    for name, value in (("zero", "0"), ("negative", "-1")):
        path = tmp_path / f"{name}.txt"
        path.write_text(f"mole_fraction viscosity_mPa_s\n0.0 0.306\n0.5 {value}\n1.0 0.89\n")
        with pytest.raises(ConfigError, match=rf"{name}\.txt: viscosity at mole fraction "
                                              rf"0\.5 must be > 0 mPa\*s, got {value}\.0$"):
            load_viscosity_table(path)
