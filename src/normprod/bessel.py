"""Modified Bessel function of the second kind K_nu for the density series.

Orders are encoded as 2*nu so integers and half-integers are exact.
K_{-nu} = K_nu is applied canonically.  Every value comes from one
forward recurrence, K_{nu+1}(x) = K_{nu-1}(x) + (2 nu / x) K_nu(x), which
is stable in the growth direction (K increases with nu).  It is seeded
from scipy's ``kve`` (integer orders) or the half-integer closed forms,
and from the asymptotic forms at the ends of the double range, where
``kve`` is not finite.

The package operates on log K_nu directly: the recurrence has
all-positive terms, so it runs in log space with no overflow for any
order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import count, islice

import numpy as np
from scipy import special

from .errors import InvalidOrder, NonPositiveArgument, OverflowUnscaled

_LOG_HALF_PI = 0.5 * math.log(0.5 * math.pi)
_LOG_DBL_MAX = math.log(np.finfo(float).max)

#: Most orders a sequence may hold (8 MB of doubles).
MAX_SEQUENCE_LENGTH = 10 ** 6


@dataclass(frozen=True)
class BesselOrder:
    """Order nu stored as the integer 2*nu (integer or half-integer)."""

    twice_nu: int

    @classmethod
    def from_nu(cls, nu) -> "BesselOrder":
        """From nu as a number or a string such as "3/2"; InvalidOrder
        unless it is an integer or half-integer finite as a float."""
        try:
            two = Fraction(nu) * 2
        except (ArithmeticError, TypeError, ValueError):  # "abc", "1/0", inf
            two = None
        if two is None or two.denominator != 1:
            raise InvalidOrder(f"order {nu} is not an integer or half-integer")
        try:
            float(two)
        except OverflowError:  # "1e400"
            raise InvalidOrder(f"order {nu} overflows a float") from None
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


def _log_k_forward(x: float, half: bool):
    """log K_nu(x) for nu = 0, 1, ... (1/2, 3/2, ... if ``half``), without
    end: the forward recurrence from two seeds, each step a log-add-exp of
    two scalars, larger argument first."""
    base = _LOG_HALF_PI - 0.5 * math.log(x) - x  # log K_1/2 (DLMF 10.39.2)
    if half:  # K_3/2 = K_1/2 (1 + 1/x); 1/x is inf below x = 1/DBL_MAX
        l0, l1 = base, base + (math.log1p(1 / x) if 1 / x < math.inf
                               else math.log1p(x) - math.log(x))
    else:
        k0, k1 = special.kve(0, x), special.kve(1, x)
        if math.isfinite(k0 + k1):
            l0, l1 = math.log(k0) - x, math.log(k1) - x
        elif x > 1:  # kve is NaN past x = 2^30: two terms of DLMF 10.40.2
            l0, l1 = base + math.log1p(-0.125 / x), base + math.log1p(0.375 / x)
        else:  # and inf below about 2e-305: DLMF 10.30.2-3
            l0, l1 = (math.log(math.log(2) - math.log(x) - np.euler_gamma),
                      -math.log(x))
    for nu in count(1.5 if half else 1.0):
        yield l0
        r = 2 * nu / x  # inf where x < 2 nu / DBL_MAX
        b = (math.log(r) if r < math.inf else math.log(2 * nu) - math.log(x)) + l1
        hi, lo = (l0, b) if l0 > b else (b, l0)
        l0, l1 = l1, hi + math.log1p(math.exp(lo - hi))


def log_bessel_k_sequence(max_order: BesselOrder, x: float) -> np.ndarray:
    """log K_nu(x) for nu stepping by 1 up to |max_order|.

    Starts at nu = 0 for integer orders, nu = 1/2 for half-integer ones.
    Runs the forward recurrence in log space, so large orders never
    overflow; InvalidOrder, before anything is allocated, past
    MAX_SEQUENCE_LENGTH orders.  At x = inf every log K is the limit -inf.
    """
    max_order = max_order.canonical()
    length = max_order.twice_nu // 2 + 1
    if length > MAX_SEQUENCE_LENGTH:
        raise InvalidOrder(f"order {max_order.twice_nu}/2 needs {length} "
                           f"recurrence steps; at most {MAX_SEQUENCE_LENGTH}")
    x = _check_x(x)
    if x == math.inf:  # K_nu(x) -> 0 for every order
        return np.full(length, -math.inf)
    return np.fromiter(islice(_log_k_forward(x, not max_order.is_integer),
                              length), float, length)


def log_bessel_k(order: BesselOrder, x: float) -> float:
    """log K_nu(x); overflow-free for any supported order."""
    return log_bessel_k_sequence(order, x)[-1]


def bessel_k(order: BesselOrder, x: float, scaled: bool = False) -> float:
    """K_nu(x), or e^x K_nu(x) when ``scaled``: the last entry of
    ``bessel_k_sequence``, with its errors."""
    return float(bessel_k_sequence(order, x, scaled)[-1])


def bessel_k_sequence(max_order: BesselOrder, x: float,
                      scaled: bool = False) -> np.ndarray:
    """K_nu(x), or e^x K_nu(x) when ``scaled``, for nu = 0 (or 1/2)
    stepping by 1 up to |max_order|.

    Raises NonPositiveArgument for x <= 0 and OverflowUnscaled when a
    value exceeds the double range (the log-space entry points remain
    available in that regime); x = inf gives the limit 0.
    """
    x = _check_x(x)
    logs = log_bessel_k_sequence(max_order, x)
    exponent = logs + x if scaled and x < math.inf else logs
    if np.any(exponent > _LOG_DBL_MAX):
        what, hint = ("e^x K", "") if scaled else ("K", "scaled=True or ")
        raise OverflowUnscaled(
            f"{what}_nu({x}) for nu up to {max_order.canonical().nu} "
            f"overflows; use {hint}log_bessel_k(_sequence)")
    return np.exp(exponent)
