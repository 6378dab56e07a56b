"""Stein operators with linear coefficients for the product-normal mean.

An operator is a table of pairs (a0_j, a1_j), j = 0..order, with
A f(x) = sum_j (a0_j + a1_j x) f^(j)(x) and E[A f(Z)] = 0 for the mean Z
of n copies.  The general fourth-order table and the third-order one for
equal mean-to-sd ratios are written once (``a1_table``, ``a2_table``),
generic over the number type: the moment recursions of ``moments`` solve
them in floats or Fractions, the density ODE is their adjoint and the
characteristic-function ODE their Fourier transform.  Tables can be
printed, diffed, exported, and fed to the exact-arithmetic order search.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import CaseMismatch, InvalidTestFunction
from .params import DistributionCase, MeanParams, classify


@dataclass(frozen=True)
class SteinOperatorSpec:
    """Sum over j of (a0_j + a1_j*x) f^(j)(x), j = 0..order."""

    order: int
    coeffs: tuple[tuple[float, float], ...]

    def __post_init__(self):
        # + 0 turns a -0.0 (such as -4 rho s_n at rho = 0) into 0.0 and
        # leaves every other entry's bits as they are
        object.__setattr__(self, "coeffs", tuple(
            (a0 + 0, a1 + 0) for a0, a1 in self.coeffs))
        if self.order not in (2, 3, 4):
            raise ValueError(f"order={self.order}; supported orders are 2, 3, 4")
        if len(self.coeffs) != self.order + 1:
            raise ValueError("coeffs must have exactly order + 1 entries")
        if self.coeffs[-1] == (0.0, 0.0):
            raise ValueError("highest-order coefficient pair must not vanish")


@dataclass(frozen=True)
class TestFunction:
    """Bundle of f and derivatives f', f'', f''', f'''' evaluated jointly.

    ``evaluate`` maps x (scalar or ndarray) to the five values, as a
    tuple or stacked in one (5, *x.shape) array; ``monomial`` and
    ``gaussian_bump`` stack theirs, which ``apply`` then reads in place.
    Membership of the theorems' function class (moment-finiteness of the
    derivatives under the target law) is the caller's obligation; the
    built-ins below all qualify against product-normal laws.
    """

    evaluate: Callable
    label: str

    def __call__(self, x):
        return self.evaluate(x)


def _parameter(name: str, value: float, positive: bool = False) -> float:
    """value as a float whose fourth power times 16, the largest factor
    the built-ins' derivatives take, is finite (so |value| < 5.8e76);
    InvalidTestFunction otherwise, or unless value > 0 where required."""
    value = float(value)
    if not math.isfinite(16 * value * value * value * value):
        raise InvalidTestFunction(f"{name}={value!r}; must be finite with "
                                  f"|{name}| < 5.8e76")
    if positive and not value > 0:
        raise InvalidTestFunction(f"{name}={value!r}; must be positive")
    return value


def _stacked(x):
    """x as a float array, an uninitialised (5, *x.shape) array for its
    derivatives, and that array's rows as views ufuncs can write into
    (0-d arrays for a scalar x)."""
    x = np.asarray(x, dtype=float)
    out = np.empty((5,) + x.shape)
    return x, out, [out[j, ...] for j in range(5)]


def monomial(k: int) -> TestFunction:
    """f(x) = x**k with exact derivative formulas, k <= 8; all derivatives
    are polynomially bounded."""
    if isinstance(k, bool) or not isinstance(k, numbers.Integral) \
            or not 0 <= k <= 8:
        raise InvalidTestFunction(f"k={k!r}; the monomial degree must be "
                                  "an integer in 0..8")
    k = int(k)

    def ev(x):
        # f^(j) = k!/(k - j)! x^(k - j), zero past j = k
        x, out, rows = _stacked(x)
        out[k + 1:] = 0.0
        power = 1.0
        for p in range(k + 1):
            if p:
                power = power * x
            if k - p <= 4:
                np.multiply(math.perm(k, k - p), power, out=rows[k - p])
        return out

    return TestFunction(ev, f"x^{k}")


def polynomial(coeffs: Sequence[float]) -> TestFunction:
    """f with the given ascending power-basis coefficients; all
    derivatives are polynomially bounded."""
    base = np.polynomial.Polynomial(coeffs)
    ders = [base] + [base.deriv(j) for j in range(1, 5)]

    def ev(x):
        x = np.asarray(x, dtype=float)
        return tuple(d(x) for d in ders)

    return TestFunction(ev, f"poly(deg {base.degree()})")


def exponential(a: float) -> TestFunction:
    """f(x) = exp(a*x); valid test function for |a| small enough that the
    exponential moments exist (caller's obligation)."""
    a = _parameter("a", a)

    def ev(x):
        x = np.asarray(x, dtype=float)
        f = np.exp(a * x)
        return tuple(a ** j * f for j in range(5))

    return TestFunction(ev, f"exp({a}x)")


def sine(t: float) -> TestFunction:
    """f(x) = sin(t*x); bounded with bounded derivatives."""
    t = _parameter("t", t)

    def ev(x):
        x = np.asarray(x, dtype=float)
        s, c = np.sin(t * x), np.cos(t * x)
        return (s, t * c, -t * t * s, -t ** 3 * c, t ** 4 * s)

    return TestFunction(ev, f"sin({t}x)")


def cosine(t: float) -> TestFunction:
    """f(x) = cos(t*x); bounded with bounded derivatives."""
    t = _parameter("t", t)

    def ev(x):
        x = np.asarray(x, dtype=float)
        s, c = np.sin(t * x), np.cos(t * x)
        return (c, -t * s, -t * t * c, t ** 3 * s, t ** 4 * c)

    return TestFunction(ev, f"cos({t}x)")


def gaussian_bump(a: float) -> TestFunction:
    """f(x) = exp(-a*x**2), a > 0; bounded with bounded derivatives."""
    a = _parameter("a", a, positive=True)

    def ev(x):
        # f, -2a x f, (4a^2 x^2 - 2a) f, (12a^2 - 8a^3 x^2) x f and
        # (12a^2 + (16a^4 x^2 - 48a^3) x^2) f, each row written in place
        x, out, (f, d1, d2, d3, d4) = _stacked(x)
        x2 = x * x
        np.exp(np.multiply(-a, x2, out=f), out=f)
        np.multiply(-2 * a, x, out=d1)
        d1 *= f
        np.multiply(4 * a * a, x2, out=d2)
        d2 -= 2 * a
        d2 *= f
        np.subtract(12 * a * a, np.multiply(8 * a ** 3, x2, out=d3), out=d3)
        d3 *= x
        d3 *= f
        np.multiply(16 * a ** 4, x2, out=d4)
        d4 -= 48 * a ** 3
        d4 *= x2
        d4 += 12 * a * a
        d4 *= f
        return out

    return TestFunction(ev, f"exp(-{a}x^2)")


# 7-point central stencils on x + k h, k = -3..3, for derivative orders
# 1..4: (weights, power of h, order of accuracy).
STENCILS = {
    1: (np.array([-1.0, 9.0, -45.0, 0.0, 45.0, -9.0, 1.0]) / 60.0, 1, 6),
    2: (np.array([2.0, -27.0, 270.0, -490.0, 270.0, -27.0, 2.0]) / 180.0, 2, 6),
    3: (np.array([1.0, -8.0, 13.0, 0.0, -13.0, 8.0, -1.0]) / 8.0, 3, 4),
    4: (np.array([-1.0, 12.0, -39.0, 56.0, -39.0, 12.0, -1.0]) / 6.0, 4, 4),
}


def from_callable(fn: Callable, h: float = 1e-5) -> TestFunction:
    """Finite-difference wrapper for an arbitrary scalar function.

    Derivative accuracy degrades with order; intended for exploratory
    use, not for tight residual checks.  That fn is a valid test function
    is the caller's obligation.  Each stencil is an elementwise weighted
    sum of the seven shifted rows, so a point's derivatives do not depend
    on how many points share the call (BLAS, behind np.tensordot, sums a
    lone point in another order than a batch).  The weights sum to zero,
    so the rows are taken relative to the centre one, which gives a
    constant exact zero derivatives.
    """

    def ev(x):
        x = np.asarray(x, dtype=float)
        rows = [fn(x + k * h) for k in range(-3, 4)]
        steps = [row - rows[3] for row in rows]
        return (rows[3], *(sum(w * step for w, step in zip(weights, steps))
                           / h ** power
                           for weights, power, _ in STENCILS.values()))

    return TestFunction(ev, getattr(fn, "__name__", "fd-wrapped"))


def check_derivatives(f: TestFunction) -> float:
    """Max relative deviation between the supplied f' and the
    ``from_callable`` stencil of the supplied f at 9 points on [-2, 2];
    ValueError past 1e-4."""
    grid = np.linspace(-2.0, 2.0, 9)
    fd = from_callable(lambda x: f(x)[0])(grid)[1]
    claimed = f(grid)[1]
    scale = np.maximum(np.abs(claimed), np.max(np.abs(claimed)) + 1e-30)
    worst = float(np.max(np.abs(fd - claimed) / scale))
    if worst > 1e-4:
        raise ValueError(
            f"{f.label}: supplied derivative disagrees with finite "
            f"difference (relative deviation {worst:.2e})"
        )
    return worst


def _table_inputs(mp: MeanParams, num):
    """(mu_x, mu_y, rho, rx, ry, s_n, 1 - rho^2, n) in the number type num."""
    p = mp.base
    mux, muy, sx, sy, rho = map(num, (p.mu_x, p.mu_y, p.sigma_x, p.sigma_y, p.rho))
    return mux, muy, rho, mux / sx, muy / sy, sx * sy / mp.n, 1 - rho * rho, mp.n


def a1_table(mp: MeanParams, num=float) -> tuple[tuple, ...]:
    """Coefficient pairs (a0_j, a1_j), j = 0..4, of the fourth-order
    operator characterising the mean for any valid parameters, computed
    in the number type ``num`` (float, or Fraction for exact values)."""
    mux, muy, rho, rx, ry, s_n, om, n = _table_inputs(mp, num)
    return (
        (-mux * muy - n * s_n * rho, num(1)),
        (s_n * n * s_n * (2 * rho * rx * ry - rx * rx - ry * ry
                          + 3 * (rho * rho) - 1),
         -4 * rho * s_n),
        (s_n * s_n * n * s_n * (rho * (rx * rx + ry * ry)
                                - (1 + rho * rho) * rx * ry + 3 * rho * om),
         s_n * s_n * (6 * (rho * rho) - 2)),
        (n * s_n ** 4 * (om * om), 4 * rho * s_n ** 3 * om),
        (num(0), s_n ** 4 * (om * om)),
    )


def a2_table(mp: MeanParams, num=float) -> tuple[tuple, ...]:
    """Coefficient pairs (a0_j, a1_j), j = 0..3, of the third-order
    operator available when the mean-to-sd ratios are equal (zero means
    included), in the number type ``num``; CaseMismatch otherwise."""
    if classify(mp.base) not in (DistributionCase.EQUAL_RATIO,
                                 DistributionCase.ZERO_MEANS):
        raise CaseMismatch("third-order operator requires equal mean-to-sd ratios")
    mux, muy, rho, rx, ry, s_n, om, n = _table_inputs(mp, num)
    return (
        (-n * s_n * rho - mux * muy, num(1)),
        (s_n * n * s_n * (2 * (rho * rho) + rho - 1 - (1 - rho) * rx * ry),
         -(3 * rho + 1) * s_n),
        (s_n * s_n * (1 + rho) * n * s_n * om,
         s_n * s_n * (1 + rho) * (3 * rho - 1)),
        (num(0), s_n ** 3 * om * (1 + rho)),
    )


def operator_a1(mp: MeanParams) -> SteinOperatorSpec:
    """The fourth-order operator characterising the mean for any valid
    parameters."""
    return SteinOperatorSpec(4, a1_table(mp))


def operator_a2(mp: MeanParams) -> SteinOperatorSpec:
    """The third-order operator available when the mean-to-sd ratios are
    equal (zero means included)."""
    return SteinOperatorSpec(3, a2_table(mp))


_SPECIAL = ("a3", "a4", "a5", "a6", "a7")


def operator_special(which: str, mp: MeanParams) -> SteinOperatorSpec:
    """Named special-case operators the general ones reduce to.

    a3: zero means (order 4), the A1 table there; a4: zero means, the
    variance-gamma form (order 2); a5: zero means, n=1, rho=0 (order 2),
    the a4 table there; a6: unit variances, n=1, rho=0 (order 4), the A1
    table there; a7: additionally equal means (order 3), the A2 table.
    """
    which = which.lower()
    if which not in _SPECIAL:
        raise ValueError(f"unknown operator {which!r}; expected one of {_SPECIAL}")
    p = mp.base
    rho, n, s_n = p.rho, mp.n, mp.s_n
    zero_means = p.mu_x == 0 and p.mu_y == 0
    if which in ("a3", "a4") and not zero_means:
        raise CaseMismatch(f"{which} requires zero means")
    if which == "a5" and not (zero_means and n == 1 and rho == 0):
        raise CaseMismatch("a5 requires zero means, n = 1 and rho = 0")
    if which in ("a6", "a7"):
        if not (p.sigma_x == 1 and p.sigma_y == 1 and n == 1 and rho == 0):
            raise CaseMismatch(f"{which} requires unit variances, n = 1 and rho = 0")
        if which == "a7" and p.mu_x != p.mu_y:
            raise CaseMismatch("a7 requires equal means")

    if which in ("a3", "a6"):
        return operator_a1(mp)
    if which == "a7":
        return operator_a2(mp)
    om = 1.0 - rho * rho
    return SteinOperatorSpec(2, (
        (n * s_n * rho, -1.0),
        (n * (s_n * s_n) * om, 2 * rho * s_n),
        (0.0, s_n * s_n * om),
    ))


def apply(spec: SteinOperatorSpec, f: TestFunction, x):
    """Evaluate the operator on f at x (scalar or vectorized)."""
    derivs = f(x)
    if len(derivs) <= spec.order:
        raise ValueError("test function supplies too few derivatives")
    # sum_j a0_j f^(j) + x * sum_j a1_j f^(j): the (2, order + 1) table
    # (coeffs transposed) times the stacked derivatives, then one product
    # by x.  einsum sums each point in one fixed order, so a point's value
    # does not depend on how many points share the call (BLAS matmul sums
    # a lone point in another order than a batch)
    derivs = derivs[:spec.order + 1]
    if not isinstance(derivs, np.ndarray):
        # a tuple may hold scalars, such as 0.0 for a vanishing derivative
        derivs = np.broadcast_arrays(*derivs)
    const, slope = np.einsum("ji,j...->i...",
                             np.array(spec.coeffs, dtype=float),
                             np.asarray(derivs, dtype=float))
    return const + np.asarray(x, dtype=float) * slope


def _shifted_function(f: TestFunction, weights: Sequence[float],
                      orders: Sequence[int], label: str) -> TestFunction:
    """g with g^(j) = sum_i weights[i] * f^(j + orders[i])."""

    def ev(x):
        d = f(x)
        return tuple(
            sum(w * d[j + o] for w, o in zip(weights, orders))
            for j in range(5 - max(orders))
        )

    return TestFunction(ev, label)


def substitution_identity_check(mp: MeanParams, f: TestFunction, x,
                                which: str = "auto") -> float:
    """Residual of the substitution identities relating operators.

    ``which`` is "a1a2" (equal ratios: the fourth-order operator applied
    to f equals the third-order one applied to g = (1-rho) s_n f' + f),
    "a3a4" (zero means: the zero-mean fourth-order operator on f equals
    the variance-gamma one on g = (1-rho^2) s_n^2 f'' + 2 rho s_n f' - f),
    or "auto" to pick by case.  Both identities hold exactly; the residual
    is floating roundoff only.
    """
    p = mp.base
    case = classify(p)
    if which == "auto":
        which = "a3a4" if case is DistributionCase.ZERO_MEANS else "a1a2"
    rho, s_n = p.rho, mp.s_n
    # the reduced operators raise CaseMismatch outside their case
    if which == "a1a2":
        g = _shifted_function(f, [(1 - rho) * s_n, 1.0], [1, 0], "substituted g")
        lhs = apply(operator_a1(mp), f, x)
        rhs = apply(operator_a2(mp), g, x)
    elif which == "a3a4":
        g = _shifted_function(
            f, [(1 - rho * rho) * (s_n * s_n), 2 * rho * s_n, -1.0], [2, 1, 0],
            "substituted g")
        lhs = apply(operator_special("a3", mp), f, x)
        rhs = apply(operator_special("a4", mp), g, x)
    else:
        raise ValueError(f"unknown identity {which!r}")
    return float(np.max(np.abs(np.asarray(lhs) - np.asarray(rhs))))
