"""Modified Bessel function of the second kind K_nu for the density series.

Orders are encoded as 2*nu so integers and half-integers are exact.
K_{-nu} = K_nu is applied canonically.  Base values come from scipy
(integer orders) or the half-integer closed forms; sequences use the
forward recurrence K_{nu+1}(x) = K_{nu-1}(x) + (2 nu / x) K_nu(x),
which is stable in the growth direction (K increases with nu).

For the series work the package operates on log K_nu directly: the
recurrence has all-positive terms, so it runs in log space via
logaddexp with no overflow for any order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
from scipy import special

from .errors import NonPositiveArgument, OverflowUnscaled

_LOG_HALF_PI = 0.5 * math.log(0.5 * math.pi)


@dataclass(frozen=True)
class BesselOrder:
    """Order nu stored as the integer 2*nu (integer or half-integer)."""

    twice_nu: int

    @classmethod
    def from_nu(cls, nu) -> "BesselOrder":
        two = Fraction(nu) * 2
        if two.denominator != 1:
            raise ValueError(f"order {nu} is not an integer or half-integer")
        return cls(int(two))

    @property
    def nu(self) -> float:
        return self.twice_nu / 2

    def canonical(self) -> "BesselOrder":
        """Nonnegative order; K_{-nu} = K_nu."""
        return BesselOrder(abs(self.twice_nu))

    @property
    def is_integer(self) -> bool:
        return self.twice_nu % 2 == 0


def _check_x(x: float) -> float:
    x = float(x)
    if not x > 0:
        raise NonPositiveArgument(f"x={x}; K_nu requires x > 0")
    return x


def log_bessel_k_sequence(max_order: BesselOrder, x: float) -> np.ndarray:
    """log K_nu(x) for nu stepping by 1 up to |max_order|.

    Starts at nu = 0 for integer orders, nu = 1/2 for half-integer ones.
    Runs the forward recurrence in log space (logaddexp), so arbitrarily
    large orders never overflow.
    """
    x = _check_x(x)
    max_order = max_order.canonical()
    if max_order.is_integer:
        length = max_order.twice_nu // 2 + 1
        l0 = math.log(special.kve(0, x)) - x
        l1 = math.log(special.kve(1, x)) - x
        nu0 = 0.0
    else:
        length = (max_order.twice_nu + 1) // 2
        l0 = _LOG_HALF_PI - 0.5 * math.log(x) - x          # K_{1/2}
        l1 = l0 + math.log1p(1.0 / x)                       # K_{3/2}
        nu0 = 0.5
    out = np.empty(max(length, 2))
    out[0], out[1] = l0, l1
    for i in range(2, len(out)):
        nu = nu0 + i - 1
        out[i] = np.logaddexp(out[i - 2], math.log(2 * nu / x) + out[i - 1])
    return out[:length]


def log_bessel_k(order: BesselOrder, x: float) -> float:
    """log K_nu(x); overflow-free for any supported order."""
    return log_bessel_k_sequence(order, x)[-1]


def bessel_k(order: BesselOrder, x: float, scaled: bool = False) -> float:
    """K_nu(x), or e^x K_nu(x) when ``scaled``.

    Raises NonPositiveArgument for x <= 0 and OverflowUnscaled when the
    requested value exceeds the double range (the log-space entry points
    remain available in that regime).
    """
    x = _check_x(x)
    log_k = log_bessel_k(order, x)
    exponent = log_k + x if scaled else log_k
    if exponent > math.log(np.finfo(float).max):
        if not scaled:
            raise OverflowUnscaled(
                f"K_{order.nu}({x}) overflows; use scaled=True or log_bessel_k"
            )
        raise OverflowUnscaled(
            f"e^x K_{order.nu}({x}) overflows; use log_bessel_k"
        )
    return math.exp(exponent)


def bessel_k_sequence(max_order: BesselOrder, x: float,
                      scaled: bool = False) -> np.ndarray:
    """K_nu(x) for nu = 0 (or 1/2) stepping by 1 up to |max_order|."""
    x = _check_x(x)
    logs = log_bessel_k_sequence(max_order, x)
    exponent = logs + x if scaled else logs
    if np.any(exponent > math.log(np.finfo(float).max)):
        raise OverflowUnscaled(
            f"K sequence up to nu={max_order.nu} at x={x} overflows; "
            "use log_bessel_k_sequence"
        )
    return np.exp(exponent)
