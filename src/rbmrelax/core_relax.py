"""Longitudinal relaxation of a spin sensor coupled to fluctuating fields.

Each independent noise source is a transverse magnetic field with Lorentzian
spectral density, characterised by its mean-square transverse amplitude and a
single correlation time.  Sources add in rate:

    1/T1 = 1/T1_bulk + sum_k 3 gamma_k^2 <B_perp,k^2> tau_k / (1 + omega0^2 tau_k^2)

The prefactor 3 follows from the sensor's two near-degenerate transitions
sampling the transverse noise at the level splitting.

Field variances and correlation times may be numpy arrays; the spectral
density, the rate contributions and the T1 combination broadcast over them.
A motional-narrowing curve (rate against fluctuation rate R at fixed
field variance) is one call with tau_c = 1/R an array; it peaks at R = omega0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .constants import OMEGA_0, TAU_C_MAX, TAU_C_MIN
from .errors import ParameterError, nonnegative, positive, require


def _as_omega(value) -> float:
    """An angular frequency in rad/s, checked finite and >= 0 (zero is the
    zero-field limit)."""
    omega = float(value)
    if not math.isfinite(omega) or omega < 0.0:
        raise ParameterError(f"angular frequency must be finite and >= 0, got {value!r}")
    return omega


@dataclass(frozen=True)
class NoiseSource:
    """One independent Lorentzian magnetic-noise source.

    Parameters
    ----------
    gamma : float
        Gyromagnetic ratio of the fluctuating moments, rad/(s*T).  Sign is
        irrelevant (enters squared) but zero is rejected.
    b_perp_sq : float or array
        Mean-square transverse field at the sensor, T^2.  May be zero
        (source contributes nothing) but not negative.
    tau_c : float or array
        Correlation time of the fluctuations, s.  Equal to 1/R where R is
        the source's total fluctuation rate.  Must lie in
        [TAU_C_MIN, TAU_C_MAX] wherever b_perp_sq > 0; where the field is
        zero the source contributes nothing and tau_c need only be finite
        and positive.
    label : str
        Free-form tag used in rate breakdowns.
    """

    gamma: float
    b_perp_sq: float
    tau_c: float
    label: str = ""

    def __post_init__(self):
        if not math.isfinite(self.gamma) or self.gamma == 0.0:
            raise ParameterError(f"gamma must be finite and nonzero, got {self.gamma!r}")
        require(nonnegative(self.b_perp_sq),
                "b_perp_sq must be finite and >= 0, got {!r}", self.b_perp_sq)
        in_range = (self.tau_c >= TAU_C_MIN) & (self.tau_c <= TAU_C_MAX)
        require(in_range | (positive(self.tau_c) & (self.b_perp_sq == 0.0)),
                f"tau_c must lie in [{TAU_C_MIN:g}, {TAU_C_MAX:g}] s, got {{!r}}",
                self.tau_c)


def lorentzian_psd(source: NoiseSource, omega):
    """One-sided spectral density S(omega) of an exponentially correlated field.

        S(omega) = b_perp_sq * 2 tau_c / (1 + omega^2 tau_c^2)

    Even in omega, maximal at omega = 0, and normalised so that
    integral S(omega) d omega / (2 pi) over the real line = b_perp_sq.
    Units: T^2 * s.
    """
    w = _as_omega(omega)
    x = w * source.tau_c
    return source.b_perp_sq * 2.0 * source.tau_c / (1.0 + x * x)


def rate_contribution(source: NoiseSource):
    """Relaxation rate (1/s) induced by a single noise source.

    Equals (3/2) gamma^2 S(OMEGA_0), at the level splitting; non-negative.
    """
    return 1.5 * source.gamma**2 * lorentzian_psd(source, OMEGA_0)


def t1_total(sources, t1_bulk: float) -> dict:
    """Combine bulk relaxation (t1_bulk, s) with noise sources at OMEGA_0.

    Returns t1_s, rate_total_per_s, rate_bulk_per_s and one
    rate_source_<label>_per_s per source, in label order, all in s or 1/s;
    the source rates exclude the bulk term, so the total is the bulk rate
    plus their sum.  An empty source list is valid and gives t1_s =
    t1_bulk.  Duplicate labels are rejected: silently merging them would
    hide a double-counted source.  Unlabeled sources are keyed by position.
    """
    if not math.isfinite(t1_bulk) or t1_bulk <= 0.0:
        raise ParameterError(f"t1_bulk must be finite and positive, got {t1_bulk!r}")
    # the bulk rate is its reciprocal, which must not overflow
    require(math.isfinite(1.0 / t1_bulk),
            "t1_bulk {!r} s is too small: its reciprocal overflows", t1_bulk)
    rates = {}
    for i, src in enumerate(sources):
        key = src.label or f"source_{i}"
        if key == "bulk" or key in rates:
            raise ParameterError(f"duplicate or reserved noise-source label {key!r}")
        rates[key] = rate_contribution(src)
    bulk = 1.0 / t1_bulk
    total = bulk + sum(rates.values())
    doc = {"t1_s": 1.0 / total, "rate_total_per_s": total, "rate_bulk_per_s": bulk}
    return doc | {f"rate_source_{key}_per_s": rates[key] for key in sorted(rates)}
