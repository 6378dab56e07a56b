"""Stein operators with linear coefficients for the product-normal mean.

An operator is a table of pairs (a0_j, a1_j), j = 0..order, with A f(x) =
sum_j (a0_j + a1_j x) f^(j)(x) and E[A f(Z)] = 0 for the mean Z of n
copies.  The general fourth-order table, the equal-ratio third-order one
and the zero-mean variance-gamma one (``a1_table``, ``a2_table``,
``a4_table``) are written once, generic over the number type: ``moments``
solves the first two in floats or Fractions, the density's ODEs are
adjoints of the first and last, the CF's ODE a Fourier transform, and
the first the others composed with constant-coefficient operators
(``_compose``).  Tables print, diff, export and feed the order search.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import (CaseMismatch, InvalidOrder, InvalidTestFunction,
                     NonFiniteParameter, NotConverged)
from .params import DistributionCase, MeanParams, classify, int_at_least


@dataclass(frozen=True)
class SteinOperatorSpec:
    """Sum over j of (a0_j + a1_j*x) f^(j)(x), j = 0..len(coeffs) - 1."""

    coeffs: tuple[tuple[float, float], ...]

    def __post_init__(self):
        # + 0 turns a -0.0 (such as -4 rho s_n at rho = 0) into 0.0 and
        # leaves every other entry's bits as they are
        object.__setattr__(self, "coeffs", tuple(
            (a0 + 0, a1 + 0) for a0, a1 in self.coeffs))
        if self.order not in (2, 3, 4):
            raise InvalidOrder(f"{len(self.coeffs)} coefficient pairs; "
                               "supported orders are 2, 3, 4")
        if self.coeffs[-1] == (0.0, 0.0):
            raise ValueError("highest-order coefficient pair must not vanish")

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1


#: Log of 2^-10 of the largest double; see FoldedOperator.covers.
_LOG_SAFE = math.log(sys.float_info.max) - 10 * math.log(2)


@dataclass(frozen=True)
class FoldedOperator:
    """An operator applied to a built-in f as A f = sum_r p_r(x) g_r(x):
    ``polys[r]`` holds the coefficients of the polynomial p_r, highest
    power first, and ``basis`` and ``rate`` are those of f's table."""

    polys: tuple[tuple[float, ...], ...]
    basis: Optional[Callable]
    rate: float
    log_scale: float
    degree: int

    def covers(self, reach: float) -> bool:
        """Whether on |x| <= reach (>= 1) this fold and ``apply`` are both
        finite.  Every value either computes (a power of x, a term of some
        P_jr or p_r, a Horner partial sum, a coefficient times a derivative,
        a sum of these) is at most ten times exp(log_scale) reach^degree
        exp(rate reach), so stays finite while that is below _LOG_SAFE."""
        return (self.log_scale + self.degree * math.log(reach)
                + self.rate * reach <= _LOG_SAFE)

    def __call__(self, x) -> np.ndarray:
        """A f at x (a scalar or an array): one Horner pass per basis row."""
        x = np.asarray(x, dtype=float)
        return _rows_sum(self.polys,
                         None if self.basis is None else self.basis(x), x)


def _rows_sum(polys, rows, x: np.ndarray) -> np.ndarray:
    """sum_r P_r(x) g_r, with ``polys[r]`` the coefficients of P_r, highest
    power first, and ``rows`` the arrays g_r (None: the one row g = 1)."""
    values = [_horner(p, x) for p in polys]
    if rows is not None:
        for v, g in zip(values, rows):
            v *= g
    total = values[0]
    for v in values[1:]:
        total += v
    return total


def _horner(coeffs: tuple[float, ...], x: np.ndarray) -> np.ndarray:
    """The polynomial with ``coeffs``, highest power first, at the float
    array x, in a new array (0-d for a 0-d x), by Horner's rule in place."""
    if len(coeffs) == 1:
        return np.full_like(x, coeffs[0])
    out = np.multiply(coeffs[0], x, out=np.empty_like(x))
    for c in coeffs[1:-1]:
        out += c
        out *= x
    out += coeffs[-1]
    return out


@dataclass(frozen=True)
class DerivativeTable:
    """A built-in's derivatives f^(j) = sum_r P_jr g_r, j = 0..4:
    ``polys[j][r]`` holds the coefficients of the polynomial P_jr, highest
    power first, and ``basis`` maps a float array x to the rows g_r (None:
    the one row g = 1), with |g_r(x)| <= exp(rate |x|)."""

    polys: tuple[tuple[tuple[float, ...], ...], ...]
    basis: Optional[Callable] = None
    rate: float = 0.0

    def derivatives(self, x) -> np.ndarray:
        """f, f', ..., f'''' at x (a scalar or an array), stacked in one
        (5, *x.shape) array."""
        x = np.asarray(x, dtype=float)
        rows = None if self.basis is None else self.basis(x)
        return np.stack([_rows_sum(ps, rows, x) for ps in self.polys])

    def fold(self, spec: SteinOperatorSpec) -> FoldedOperator:
        """The operator on f as sum_r p_r g_r, p_r = sum_j (a0_j + a1_j x)
        P_jr, its coefficients computed once in floats.  log_scale bounds
        the coefficients: log of (1 + sum of |a0_j|, |a1_j|) times (1 + sum
        of |P_jr|'s coefficients); degree is 1 + the largest P_jr degree."""
        used = self.polys[:spec.order + 1]
        folded = tuple(
            _trimmed(functools.reduce(np.polyadd, (
                np.polymul((a1, a0), p)
                for (a0, a1), p in zip(spec.coeffs, row))))
            for row in zip(*used))
        weight = 1 + sum(abs(c) for pair in spec.coeffs for c in pair)
        size = 1 + sum(abs(c) for row in used for p in row for c in p)
        degree = max(len(p) for row in used for p in row)
        return FoldedOperator(folded, self.basis, self.rate,
                              math.log(weight * size), degree)


def _builtin(label: str, first, step, basis=None,
             rate=0.0) -> TestFunction:
    """The built-in ``label`` whose table has P_0 = ``first`` (one
    polynomial per basis row) and P_(j+1) = step(*P_j)."""
    polys = [tuple(map(_trimmed, first))]
    for _ in range(4):
        polys.append(tuple(map(_trimmed, step(*map(np.array, polys[-1])))))
    table = DerivativeTable(tuple(polys), basis, rate)
    return TestFunction(table.derivatives, label, table)


def _trimmed(p) -> tuple[float, ...]:
    """Polynomial coefficients, highest power first, as a tuple of floats
    without leading zeros ((0.0,) for the zero polynomial)."""
    return tuple(map(float, np.trim_zeros(np.asarray(p, dtype=float),
                                          "f"))) or (0.0,)


@dataclass(frozen=True)
class TestFunction:
    """Bundle of f and derivatives f', f'', f''', f'''' evaluated jointly.

    ``evaluate`` maps x (scalar or ndarray) to the five values, as a
    tuple or stacked in one (5, *x.shape) array.  A built-in's ``table``
    is its only description of them: its ``evaluate`` is the table's
    ``derivatives``, and the Monte Carlo Stein estimator folds the
    operator into the table; a hand-written function has no table and
    goes through ``apply`` there.  Membership of the theorems' function
    class (moment-finiteness of the derivatives under the target law) is
    the caller's obligation; the built-ins below all qualify against
    product-normal laws.
    """

    evaluate: Callable
    label: str
    table: Optional[DerivativeTable] = None

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


def monomial(k: int) -> TestFunction:
    """f(x) = x**k, k <= 8; all derivatives are polynomially bounded."""
    k = int_at_least("k", k, 0, InvalidTestFunction)
    if k > 8:
        raise InvalidTestFunction(f"k={k}; the monomial degree must be <= 8")
    return _builtin(f"x^{k}", [[1.0] + [0.0] * k], lambda p: [np.polyder(p)])


def exponential(a: float) -> TestFunction:
    """f(x) = exp(a*x); valid test function for |a| small enough that the
    exponential moments exist (caller's obligation)."""
    a = _parameter("a", a)
    return _builtin(f"exp({a}x)", [[1.0]], lambda p: [a * p],
                    lambda x: (np.exp(a * x),), abs(a))


def sine(t: float) -> TestFunction:
    """f(x) = sin(t*x); bounded with bounded derivatives."""
    return _trig("sin", _parameter("t", t), [[1.0], [0.0]])


def cosine(t: float) -> TestFunction:
    """f(x) = cos(t*x); bounded with bounded derivatives."""
    return _trig("cos", _parameter("t", t), [[0.0], [1.0]])


def _trig(name: str, t: float, first) -> TestFunction:
    """The built-in over the rows sin(t x) and cos(t x), whose P_jr are
    constants: (P_s, P_c) -> (-t P_c, t P_s).  Both rows come from one
    tangent of the half angle (_cos_sin_from_half)."""

    def basis(x):
        w = np.multiply(0.5 * t, x, out=np.empty_like(x))
        cos, sin = _cos_sin_from_half(w, np.empty((2, w.size)))
        return sin, cos

    return _builtin(f"{name}({t}x)", first,
                    lambda ps, pc: [-t * pc, t * ps], basis)


def _cos_sin_from_half(w: np.ndarray, scratch: np.ndarray):
    """cos and sin of 2w, overwriting the float array w and the first
    w.size entries of each row of the (2, >= w.size) ``scratch``: with v =
    tan(w), cos = (1 - v^2)/(1 + v^2) and sin = 2v/(1 + v^2), within
    2.2e-16 of numpy's cos and sin at any magnitude.  numpy's vectorised
    tan costs a tenth of cos and sin together (on a CPU without AVX-512
    it is libm's, still one call where there were two), and |v| stays
    below about 2e18, so v^2 cannot overflow."""
    rows = scratch[:, :w.size].reshape(2, *w.shape)
    w2, den = rows[0, ...], rows[1, ...]  # arrays, also for a 0-d w
    np.tan(w, out=w)
    np.multiply(w, w, out=w2)
    np.add(1.0, w2, out=den)
    cos = np.subtract(1.0, w2, out=w2)
    cos /= den
    sin = np.multiply(2.0, w, out=w)
    sin /= den
    return cos, sin


def gaussian_bump(a: float) -> TestFunction:
    """f(x) = exp(-a*x**2), a > 0; bounded with bounded derivatives."""
    a = _parameter("a", a, positive=True)
    # P_(j+1) = P_j' - 2a x P_j
    return _builtin(
        f"exp(-{a}x^2)", [[1.0]],
        lambda p: [np.polysub(np.polyder(p), np.polymul((2 * a, 0.0), p))],
        lambda x: (np.exp(-a * (x * x)),))


def _table_inputs(mp: MeanParams, num):
    """(mu_x, mu_y, rho, rx, ry, s_n, 1 - rho^2, n) in the number type num."""
    p = mp.base
    mux, muy, sx, sy, rho = map(num, (p.mu_x, p.mu_y, p.sigma_x, p.sigma_y, p.rho))
    return mux, muy, rho, mux / sx, muy / sy, sx * sy / mp.n, 1 - rho * rho, mp.n


def _float_checked(table_of):
    """``table_of``, whose float tables raise NotConverged where a
    coefficient is not finite or the top pair underflows to (0, 0)."""

    @functools.wraps(table_of)
    def checked(mp: MeanParams, num=float) -> tuple[tuple, ...]:
        try:
            table = table_of(mp, num)
        except OverflowError:  # a float power past the double range
            table = ((math.inf, 0.0),)
        if num is float and not (
                all(math.isfinite(c) for pair in table for c in pair)
                and any(table[-1])):
            raise NotConverged("an operator coefficient leaves the double range")
        return table

    return checked


@_float_checked
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


@_float_checked
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


@_float_checked
def a4_table(mp: MeanParams, num=float) -> tuple[tuple, ...]:
    """Coefficient pairs (a0_j, a1_j), j = 0..2, of the variance-gamma
    operator (Gaunt, EJP 2014) for zero means, in the number type ``num``."""
    _, _, rho, _, _, s_n, om, n = _table_inputs(mp, num)
    return (
        (n * s_n * rho, num(-1)),
        (n * (s_n * s_n) * om, 2 * rho * s_n),
        (num(0), s_n * s_n * om),
    )


def operator_a1(mp: MeanParams) -> SteinOperatorSpec:
    """The fourth-order operator characterising the mean for any valid
    parameters."""
    return SteinOperatorSpec(a1_table(mp))


def operator_a2(mp: MeanParams) -> SteinOperatorSpec:
    """The third-order operator available when the mean-to-sd ratios are
    equal (zero means included)."""
    return SteinOperatorSpec(a2_table(mp))


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
    rho, n = p.rho, mp.n
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
    return SteinOperatorSpec(a4_table(mp))


def apply(spec: SteinOperatorSpec, f: TestFunction, x):
    """Evaluate the operator on f at x (scalar or vectorized), elementwise
    as numpy's arithmetic: not finite where x is not."""
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


def _compose(table: tuple[tuple, ...], shift) -> tuple[tuple, ...]:
    """The table of A o L, L = sum_k shift[k] D^k, in the tables' number
    type: L's coefficients are constants, so (L f)^(j) = sum_k shift[k]
    f^(j + k) and pair m is the sum over j + k = m of shift[k] (a0_j, a1_j)."""
    out = [[0, 0] for _ in range(len(table) + len(shift) - 1)]
    for j, (a0, a1) in enumerate(table):
        for k, c in enumerate(shift):
            out[j + k][0] += c * a0
            out[j + k][1] += c * a1
    return tuple(map(tuple, out))


def substitution_identity_check(mp: MeanParams, f: TestFunction, x,
                                which: str = "auto") -> float:
    """Residual of the substitution identities relating operators.

    ``which`` is "a1a2" (equal ratios: the fourth-order operator is the
    third-order one composed with L = (1-rho) s_n D + 1), "a3a4" (zero
    means: the zero-mean fourth-order operator is the variance-gamma one
    composed with L' = (1-rho^2) s_n^2 D^2 + 2 rho s_n D - 1), or "auto"
    to pick by case.  Both identities hold exactly between the tables
    (``_compose``); the residual of the two applied to f is roundoff only.
    NonFiniteParameter where x is not finite.
    """
    if not np.isfinite(x).all():
        raise NonFiniteParameter("x must be finite")
    if which == "auto":
        zero_means = classify(mp.base) is DistributionCase.ZERO_MEANS
        which = "a3a4" if zero_means else "a1a2"
    rho, s_n = mp.base.rho, mp.s_n
    # the reduced operators raise CaseMismatch outside their case
    if which == "a1a2":
        lhs = apply(operator_a1(mp), f, x)
        composed = _compose(a2_table(mp), (1, (1 - rho) * s_n))
    elif which == "a3a4":
        lhs = apply(operator_special("a3", mp), f, x)
        composed = _compose(a4_table(mp),
                            (-1, 2 * rho * s_n, (1 - rho * rho) * (s_n * s_n)))
    else:
        raise ValueError(f"unknown identity {which!r}")
    if not any(composed[-1]):  # underflowed where A1's top pair did not
        raise NotConverged("an operator coefficient leaves the double range")
    return float(np.max(np.abs(lhs - apply(SteinOperatorSpec(composed), f, x))))
