"""Upconversion efficiency from measured rates (criterion 8).

Four floats in, one out: the module imports no numpy, so the ``efficiency``
command runs without it.
"""

from __future__ import annotations

import math

from .errors import DivisionByZero, OutOfRange, _describe, _finite_real


def estimate_efficiency(r_up_hz: float, r_herald_hz: float,
                        eta_snspd: float, eta_apd: float) -> float:
    """Upconversion efficiency from single/coincidence rates.

    eta = 2 r_up eta_snspd / (r_herald eta_apd); the factor 2 undoes the
    50% loss of projecting the upconverted polarization.  OutOfRange when
    finite rates give an eta beyond the float range.
    """
    for name, val, top in (("r_up_hz", r_up_hz, math.inf),
                           ("r_herald_hz", r_herald_hz, math.inf),
                           ("eta_snspd", eta_snspd, 1.0), ("eta_apd", eta_apd, 1.0)):
        zero_ok = name in ("r_herald_hz", "eta_apd")  # the DivisionByZero below
        if not (_finite_real(val) and (0 < val or zero_ok and val == 0) and val <= top):
            rule = "positive and finite" if top == math.inf else "in (0, 1]"
            raise OutOfRange(f"{name} must be {rule}, got {_describe(val)}")
    denom = r_herald_hz * eta_apd
    if denom == 0:
        raise DivisionByZero("herald rate times APD efficiency is zero")
    eta = 2.0 * r_up_hz * eta_snspd / denom
    if not eta < math.inf:  # eta >= 0; a numpy longdouble is compared without rounding
        raise OutOfRange(f"an input is too large to compute with: efficiency {eta} "
                         f"from r_up_hz {r_up_hz} and r_herald_hz {r_herald_hz}")
    return eta
