"""Physical constants and the frequency-unit conventions used throughout.

Unit conventions
----------------
Internally everything is SI.  Two distinct frequency-like quantities appear
and they are NOT interchangeable:

* angular frequencies (``omega``, rad/s), e.g. the sensor level splitting
  ``OMEGA_0 = 2*pi*2.87e9``.  Reported in GHz as ``omega / (2*pi*1e9)``.
* fluctuation / motional rates (``R = 1/tau_c``, 1/s).  Reported in GHz as
  ``R / 1e9`` with no ``2*pi``, which is how GHz-valued motional rates are
  conventionally quoted.

Expressions like ``omega_0**2 * tau_c**2`` mix the two consistently because
``tau_c`` is a plain time.  Values cross every interface in SI units.  The
config keys quoted in GHz (``*_rate_ghz``) are fluctuation rates, scaled to
1/s by exact decimal shifts in the config schema (``scenario``); apart from
printed reports, nothing else in the package converts units.
"""

from __future__ import annotations

import math

K_B = 1.380649e-23          # J/K, Boltzmann constant (exact, SI 2019)
HBAR = 1.054571817e-34      # J*s, reduced Planck constant
MU0_OVER_4PI = 1e-7         # T*m/A, magnetic constant / 4pi
GAMMA_E = 1.760859e11       # rad/(s*T), electron gyromagnetic ratio

# Sensor ground-state zero-field splitting, rad/s.
OMEGA_0 = 2.0 * math.pi * 2.87e9

# Valid correlation-time window.  Values outside are rejected (never
# silently clamped): below ~fs or above ~1000 s the Lorentzian algebra is
# either numerically meaningless or indicates a unit mistake upstream.
TAU_C_MIN = 1e-15           # s
TAU_C_MAX = 1e3             # s

