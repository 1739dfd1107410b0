"""Longitudinal relaxation of a spin sensor coupled to fluctuating fields.

Each independent noise source is a transverse magnetic field with Lorentzian
spectral density, characterised by its mean-square transverse amplitude and a
single correlation time.  Sources add in rate:

    1/T1 = 1/T1_bulk + sum_k 3 gamma_e^2 <B_perp,k^2> tau_k / (1 + omega0^2 tau_k^2)

gamma_e is the sensor's gyromagnetic ratio, the NV electron's; a bath's own
gyromagnetic ratio enters only through its field variance.  The prefactor 3
follows from the sensor's two near-degenerate transitions sampling the
transverse noise at the level splitting.

Field variances and correlation times may be numpy arrays; the spectral
density, the rate contributions and the T1 combination broadcast over them.
A motional-narrowing curve (rate against fluctuation rate R at fixed
field variance) is one call with tau_c = 1/R an array; it peaks at R = omega0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .constants import GAMMA_E, OMEGA_0
from .errors import require


@dataclass(frozen=True)
class NoiseSource:
    """One independent Lorentzian magnetic-noise source, whose fields are
    preconditions: nothing here checks them.

    Parameters
    ----------
    b_perp_sq : float or array
        Mean-square transverse field at the sensor, T^2: finite and >= 0.
        Zero means the source contributes nothing.  The gyromagnetic
        ratio of the fluctuating moments enters here, through their moment.
    tau_c : float or array
        Correlation time of the fluctuations, s.  Equal to 1/R where R is
        the source's total fluctuation rate.  In [TAU_C_MIN, TAU_C_MAX]
        wherever b_perp_sq > 0 (scenario.predict checks it), and finite
        and positive elsewhere.
    """

    b_perp_sq: float
    tau_c: float


def lorentzian_psd(source: NoiseSource, omega):
    """One-sided spectral density S(omega) of an exponentially correlated field.

        S(omega) = b_perp_sq * 2 tau_c / (1 + omega^2 tau_c^2)

    Even in omega, maximal at omega = 0, and normalised so that
    integral S(omega) d omega / (2 pi) over the real line = b_perp_sq.
    omega (rad/s) may be an array.  Units: T^2 * s.
    """
    x = omega * source.tau_c
    return source.b_perp_sq * 2.0 * source.tau_c / (1.0 + x * x)


def rate_contribution(source: NoiseSource):
    """Relaxation rate (1/s) induced by a single noise source.

    Equals (3/2) GAMMA_E^2 S(OMEGA_0), the sensor's gyromagnetic ratio at
    its level splitting; non-negative.
    """
    return 1.5 * GAMMA_E**2 * lorentzian_psd(source, OMEGA_0)


def t1_total(sources, t1_bulk: float) -> dict:
    """Combine bulk relaxation (t1_bulk, s, finite and > 0) with noise
    sources at OMEGA_0.

    sources maps a name to a NoiseSource.  Returns t1_s, rate_total_per_s,
    rate_bulk_per_s and one rate_source_<name>_per_s per source, in name
    order, all in s or 1/s; the source rates exclude the bulk term, so the
    total is the bulk rate plus their sum, taken in the mapping's order.
    No sources is valid and gives t1_s = t1_bulk.
    """
    # the bulk rate is its reciprocal, which must not overflow
    require(math.isfinite(1.0 / t1_bulk),
            "t1_bulk {!r} s is too small: its reciprocal overflows", t1_bulk)
    rates = {name: rate_contribution(src) for name, src in sources.items()}
    bulk = 1.0 / t1_bulk
    total = bulk + sum(rates.values())
    # a sum of Python floats overflows to inf without an error
    require(total < math.inf, "the noise sources give a relaxation rate of {!r} /s", total)
    doc = {"t1_s": 1.0 / total, "rate_total_per_s": total, "rate_bulk_per_s": bulk}
    return doc | {f"rate_source_{name}_per_s": rates[name] for name in sorted(rates)}
