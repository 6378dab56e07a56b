"""Parameters of the product-normal family and case classification.

The product Z = XY of a bivariate normal pair is parametrised by
(mu_x, mu_y, sigma_x, sigma_y, rho); the mean of n independent copies
adds the copy count n.  Which Stein operator applies (fourth, third or
second order) depends on the relationship between the mean-to-sd ratios,
so classification lives here next to the parameters.
"""

from __future__ import annotations

import enum
import math
import numbers
from dataclasses import dataclass

from .errors import (CorrelationOutOfRange, InvalidCount, NonFiniteParameter,
                     NonPositiveSigma)

#: Relative tolerance for detecting equal mean-to-sd ratios.
#: The operator-order reduction is only valid at exact equality; this
#: tolerance exists solely to absorb floating representation noise.
RATIO_TOL = 1e-12


@dataclass(frozen=True)
class ProductNormalParams:
    """Parameters of Z = XY for bivariate normal (X, Y).

    Requires finite values, sigma_x > 0, sigma_y > 0 and -1 < rho < 1
    (strict: the density divides by 1 - rho**2).
    """

    mu_x: float
    mu_y: float
    sigma_x: float
    sigma_y: float
    rho: float

    def __post_init__(self):
        values = (self.mu_x, self.mu_y, self.sigma_x, self.sigma_y, self.rho)
        if not all(math.isfinite(v) for v in values):
            raise NonFiniteParameter(
                f"(mu_x, mu_y, sigma_x, sigma_y, rho)={values}; all must be finite"
            )
        if not (self.sigma_x > 0 and self.sigma_y > 0):
            raise NonPositiveSigma(
                f"sigma_x={self.sigma_x}, sigma_y={self.sigma_y}; both must be > 0"
            )
        if not -1 < self.rho < 1:
            raise CorrelationOutOfRange(
                f"rho={self.rho} outside the open interval (-1, 1)"
            )

    @property
    def r_x(self) -> float:
        """Mean-to-sd ratio mu_x / sigma_x."""
        return self.mu_x / self.sigma_x

    @property
    def r_y(self) -> float:
        """Mean-to-sd ratio mu_y / sigma_y."""
        return self.mu_y / self.sigma_y

    @property
    def s(self) -> float:
        """Scale sigma_x * sigma_y."""
        return self.sigma_x * self.sigma_y


@dataclass(frozen=True)
class MeanParams:
    """Product-normal parameters plus the number n of averaged copies."""

    base: ProductNormalParams
    n: int = 1

    def __post_init__(self):
        object.__setattr__(self, "n", int_at_least("n", self.n))

    @property
    def s_n(self) -> float:
        """Scale sigma_x * sigma_y / n."""
        return self.base.s / self.n


def int_at_least(name: str, value, least: int = 1, error=InvalidCount) -> int:
    """``value`` as an int, for every count and order argument; raises
    ``error`` unless it is an integer >= least (numpy's, not a bool)."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) \
            or value < least:
        raise error(f"{name}={value!r}; must be an integer >= {least}")
    return int(value)


class DistributionCase(enum.Enum):
    GENERAL = "general"
    EQUAL_RATIO = "equal_ratio"
    ZERO_MEANS = "zero_means"
    ONE_ZERO_MEAN_UNCORRELATED = "one_zero_mean_uncorrelated"


def validate(mu_x: float, mu_y: float, sigma_x: float, sigma_y: float,
             rho: float) -> ProductNormalParams:
    """Validate five raw scalars into a parameter object.

    Raises NonFiniteParameter, NonPositiveSigma or CorrelationOutOfRange
    on bad input.
    """
    return ProductNormalParams(
        float(mu_x), float(mu_y), float(sigma_x), float(sigma_y), float(rho)
    )


def classify(p: ProductNormalParams) -> DistributionCase:
    """Classify parameters into the case selecting the minimal-order operator.

    Zero means (tested exactly) take precedence over equal ratios, since
    0/sigma ratios are trivially equal.  Equal ratios are detected to a
    relative tolerance RATIO_TOL.  Classification is total: anything
    else is GENERAL.  The tag is invariant under (mu_x, sigma_x) ->
    (c*mu_x, c*sigma_x), c > 0.
    """
    if p.mu_x == 0 and p.mu_y == 0:
        return DistributionCase.ZERO_MEANS
    if (p.mu_x == 0) != (p.mu_y == 0) and p.rho == 0:
        return DistributionCase.ONE_ZERO_MEAN_UNCORRELATED
    rx, ry = p.r_x, p.r_y
    if abs(rx - ry) <= RATIO_TOL * max(abs(rx), abs(ry)):
        return DistributionCase.EQUAL_RATIO
    return DistributionCase.GENERAL
