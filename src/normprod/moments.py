"""Raw and central moments of the product-normal mean.

As in the paper, the moments come from the Stein characterisation
E[A f(Z)] = 0: with f(x) = (x - c)^k, row k gives the moment of order
k + 1 about c from the lower ones, for any operator table of ``stein``
(``_solve``; c = 0 for raw moments, c = E Z for central ones).  The
general fourth-order table gives ``raw_moments``/``central_moments``, the
third-order one the ``*_equal_ratio`` variants.  Table entries are
rational in the parameters (doubles are rationals), so the same solver
is an exact oracle; above EXACT_KMAX the floating tables are computed
exactly and rounded once, avoiding cancellation between the large mixed
terms at high order.  The closed forms of the first four moments are
written out independently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

from .errors import DegenerateVariance
from .params import MeanParams
from .stein import a1_table, a2_table

#: Order above which the recursion runs in exact rational arithmetic.
EXACT_KMAX = 20


@dataclass(frozen=True)
class MomentTable:
    kind: str                      # "raw" | "central"
    values: tuple[float, ...]      # indexed 0..kmax
    provenance: str                # "recursion"

    def __post_init__(self):
        if self.kind not in ("raw", "central"):
            raise ValueError(f"kind={self.kind!r}")
        if self.values[0] != 1.0:
            raise ValueError("values[0] must be 1")


def _solve(table, kmax: int, central: bool = False) -> list:
    """Moments 0..kmax about c of the law that the operator ``table``
    (pairs (a0_j, a1_j) with a1_0 = 1) characterises, in the table's
    number type; c = 0, or c = mu_1 = -a0_0 if ``central``.

    With b0_j = a0_j + a1_j c, row k of E[A (x - c)^k] = 0 is
    mu_(k+1) = -sum_i (k)_i [b0_i + (k - i) a1_(i+1)] mu_(k-i), with
    (k)_i the falling factorial; each coefficient is formed before it
    multiplies the (large) moment.
    """
    if kmax < 0:
        raise ValueError(f"kmax={kmax} must be >= 0")
    a0, a1 = zip(*table)
    b0 = [u - v * a0[0] for u, v in zip(a0, a1)] if central else a0
    a1_next = a1[1:] + (0 * a1[0],)
    mu = [a1[0]]
    for k in range(kmax):
        total, fall = 0, 1
        for i in range(min(k, len(b0) - 1) + 1):
            total -= fall * (b0[i] + (k - i) * a1_next[i]) * mu[k - i]
            fall *= k - i
        mu.append(total)
    return mu


def _solve_exact(table, kmax: int, central: bool = False) -> list[Fraction]:
    """``_solve`` on a Fraction table, in integers: W = d Z has the table
    (a0_j d^(j+1), a1_j d^j), integral for d = 2^e times the odd parts of
    the denominators, e the least exponent that clears their powers of two
    (d = 2^e for parameters that are doubles); so W's moments M_k are
    integers, and mu_k = M_k / d^k."""
    e, odd = 0, 1
    for j, (a0, a1) in enumerate(table):
        for v, w in ((a0, j + 1), (a1, max(j, 1))):  # a1_0 = 1
            twos = (v.denominator & -v.denominator).bit_length() - 1
            e = max(e, -(-twos // w))
            odd = math.lcm(odd, v.denominator >> twos)
    d = odd << e
    scaled = [(a0.numerator * (d ** (j + 1) // a0.denominator),
               a1.numerator * (d ** j // a1.denominator))
              for j, (a0, a1) in enumerate(table)]
    return [Fraction(m, d ** k)
            for k, m in enumerate(_solve(scaled, kmax, central))]


def raw_moments_exact(mp: MeanParams, kmax: int) -> list[Fraction]:
    """E[mean^k] for k = 0..kmax, exactly, from the fourth-order table."""
    return _solve_exact(a1_table(mp, Fraction), kmax)


def central_moments_exact(mp: MeanParams, kmax: int) -> list[Fraction]:
    """E[(mean - E mean)^k] for k = 0..kmax, exactly."""
    return _solve_exact(a1_table(mp, Fraction), kmax, central=True)


def _float_table(table_of, mp: MeanParams, kmax: int,
                 central: bool) -> MomentTable:
    """Moments 0..kmax from ``table_of(mp, num)``, exactly above EXACT_KMAX."""
    values = (_solve_exact(table_of(mp, Fraction), kmax, central)
              if kmax > EXACT_KMAX else _solve(table_of(mp), kmax, central))
    return MomentTable("central" if central else "raw",
                       tuple(float(v) for v in values), "recursion")


def raw_moments(mp: MeanParams, kmax: int) -> MomentTable:
    """Raw moments 0..kmax from the fourth-order operator."""
    return _float_table(a1_table, mp, kmax, central=False)


def central_moments(mp: MeanParams, kmax: int) -> MomentTable:
    """Central moments 0..kmax from the fourth-order operator."""
    return _float_table(a1_table, mp, kmax, central=True)


def raw_moments_equal_ratio(mp: MeanParams, kmax: int) -> MomentTable:
    """Raw moments from the third-order operator (equal ratios)."""
    return _float_table(a2_table, mp, kmax, central=False)


def central_moments_equal_ratio(mp: MeanParams, kmax: int) -> MomentTable:
    """Central moments from the third-order operator (equal ratios)."""
    return _float_table(a2_table, mp, kmax, central=True)


class ClosedFormFour(NamedTuple):
    raw: tuple[float, float, float, float]
    central: tuple[float, float, float, float]
    variance: float
    skewness: float
    kurtosis: float


def closed_form_four(mp: MeanParams) -> ClosedFormFour:
    """Closed-form first four raw and central moments, with variance,
    skewness mu3/mu2^1.5 and kurtosis mu4/mu2^2.

    At n = 1 the kurtosis is the corrected product-normal kurtosis.
    """
    p = mp.base
    rx, ry, rho, n = p.r_x, p.r_y, p.rho, mp.n
    s = p.s
    rxy = rx * ry
    r2sum = rx ** 2 + ry ** 2

    m1p = p.mu_x * p.mu_y + rho * s
    m2p = s ** 2 / n * (n * rxy ** 2 + r2sum + 2 * rho * (n + 1) * rxy
                        + rho ** 2 * (n + 1) + 1)
    m3p = s ** 3 / n ** 2 * (
        n ** 2 * rxy ** 3 + 3 * n * rxy * r2sum + 3 * rho * n * (n + 2) * rxy ** 2
        + 3 * rho * (n + 2) * r2sum + 3 * (n + 2) * (rho ** 2 * (n + 1) + 1) * rxy
        + rho * (n + 2) * (rho ** 2 * (n + 1) + 3))
    m4p = s ** 4 / n ** 3 * (
        n ** 3 * rxy ** 4 + 4 * rho * n ** 2 * (n + 3) * rxy ** 3
        + 6 * n ** 2 * rxy ** 2 * r2sum + 3 * n * (rx ** 4 + ry ** 4)
        + 12 * rho * n * (n + 3) * rxy * r2sum
        + 6 * n * (rho ** 2 * (n + 2) * (n + 3) + (n + 5)) * rxy ** 2
        + 6 * (n + 2) * (rho ** 2 * (n + 3) + 1) * r2sum
        + 4 * rho * (n + 2) * (n + 3) * (rho ** 2 * (n + 1) + 3) * rxy
        + rho ** 4 * (n + 1) * (n + 2) * (n + 3)
        + 6 * rho ** 2 * (n + 2) * (n + 3) + 3 * (n + 2))

    m2 = s ** 2 / n * (r2sum + 2 * rho * rxy + rho ** 2 + 1)
    m3 = 2 * s ** 3 / n ** 2 * (3 * rho * r2sum + 3 * (rho ** 2 + 1) * rxy
                                + rho * (rho ** 2 + 3))
    m4 = 3 * s ** 4 / n ** 3 * (
        n * (rx ** 4 + ry ** 4) + 4 * rho * n * rxy * r2sum
        + 2 * n * (2 * rho ** 2 + 1) * rxy ** 2
        + 2 * (rho ** 2 * (n + 6) + (n + 2)) * r2sum
        + 4 * rho * (rho ** 2 * (n + 2) + (n + 6)) * rxy
        + rho ** 4 * (n + 2) + 2 * rho ** 2 * (n + 6) + (n + 2))

    if m2 <= 0:
        raise DegenerateVariance(f"variance {m2} is not positive")
    skew = m3 / m2 ** 1.5
    kurt = m4 / m2 ** 2
    return ClosedFormFour((m1p, m2p, m3p, m4p), (0.0, m2, m3, m4),
                          m2, skew, kurt)


def skewness(mp: MeanParams) -> float:
    return closed_form_four(mp).skewness


def kurtosis(mp: MeanParams) -> float:
    return closed_form_four(mp).kurtosis
