"""Densities of the product Z = XY and of the zero-mean average, plus the
linear ODE residual the density satisfies.

The product density is the all-positive integral f(x) = int phi_2(u, x/u)
/ |u| du, by a log-space trapezoid rule in double precision.  The Bessel
double series is its oracle (``pdf_product_series``) and its fallback
where the integral runs out of nodes (|rho| near 1); either path returns
a value or raises NotConverged, and each caller tries the other on that
error alone.  The series' terms can be negative (odd powers of x c_x
c_y) and overflow, so positive and negative partial sums are kept as
log-magnitudes and combined once at the end.  Each series block or term
takes one new order from ``bessel``'s log K recurrence.  The CDF
conditions on X and integrates the normal CDF of Y given X on the same
trapezoid kernel, with no series, from a quarter of its unit step on a
bracket that a lower bound on the integrand's peak cuts 45 nats below
it (see ``cdf_product``).  The kernel judges each grid against the sum
on its own even nodes, so a first grid that is fine enough is also the
last; the derivatives under the integral apply the same test to their
own sums, on a grid trimmed to their own mass.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import partial
from itertools import islice
from typing import ClassVar

import numpy as np
from scipy import special

from .bessel import _log_k_forward
from .errors import (CaseMismatch, NonFiniteParameter, NotConverged,
                     SingularPoint)
from .params import MeanParams, ProductNormalParams
from .stein import a1_table, a4_table

_DBL_MIN, _DBL_MAX = sys.float_info.min, sys.float_info.max
_EPS = sys.float_info.epsilon
_SIGN_U = np.array([[1.0], [-1.0]])  # a row per sign of u in the integrals

# Nats of cancellation between the positive and negative partial sums
# beyond which the series is abandoned for the positive integral.  Within
# 8 nats the signed sum holds 1e-10 in log where the oracle sweep checks
# it (|rho| <= 0.9), but not near |rho| = 1: at rho = 0.999 a point that
# cancels by 7.2 nats is off by 1.46e-10.
_CANCEL_NATS = 8.0

# Bound T on |argument of Phi| over which the conditional-CDF integrand is
# resolved at a unit step of its grid variable (see cdf_product).
_CDF_ARG_RANGE = 4.0

# cdf_product's first grid: a guessed lower bound on the peak of its log
# integrand, which the first grid must reach to be accepted; and the grid
# size up to which numpy's fixed cost per pass outweighs the cost of the
# nodes, so that a quarter step beats a coarser grid refined later.
_CDF_PEAK_GUESS = -24.0
_CDF_SMALL_GRID = 1 << 9


# Series truncation: the double series stops once two consecutive outer
# blocks (two, in case one cancels by accident), and the single series
# once a term past the second, fall below _SERIES_REL_TOL of the largest
# term so far; each gives up past _SERIES_BLOCKS blocks or terms.
_SERIES_REL_TOL = 1e-14
_LOG_SERIES_REL_TOL = math.log(_SERIES_REL_TOL)
_SERIES_BLOCKS = 300

# Relative rounding bound past which a zero-mean derivative is refused:
# five such errors move a density-ODE residual by 5e-9, half criterion 6's.
_DERIV_REL_TOL = 1e-9


@dataclass(frozen=True)
class DensityValue:
    """A density value carried as its log; NotConverged where the log is
    not finite, out of the double range.

    ``terms_used`` counts series terms, or integral nodes (both signs of u).
    Every path either returns a positive, converged value or raises, so
    ``sign`` and ``converged`` are class constants, kept for readers of
    those names.
    """

    log_abs: float
    terms_used: int
    sign: ClassVar[int] = 1
    converged: ClassVar[bool] = True

    def __post_init__(self):
        if not math.isfinite(self.log_abs):
            raise NotConverged(f"the log density is {self.log_abs}")

    @property
    def value(self) -> float:
        return math.exp(self.log_abs)


def _logsumexp(a) -> float:
    """log(sum(exp(a))) by a max shift; -inf for empty or all -inf input."""
    a = np.asarray(a, dtype=float)
    peak = a.max(initial=-np.inf)
    if not math.isfinite(peak):
        return float(peak)
    return float(peak + np.log(np.exp(a - peak).sum()))


def _finite_x(x) -> float:
    x = float(x)
    if not math.isfinite(x):
        raise NonFiniteParameter(f"x={x}; the density needs a finite point")
    return x


def pdf_product(p: ProductNormalParams, x: float) -> DensityValue:
    """Density of Z = XY at x != 0 by the positive integral, or by the
    Bessel double series where the integral exceeds its node budget.

    Raises NonFiniteParameter at a NaN or infinite x, SingularPoint at
    x = 0 (a log singularity) and NotConverged if the series does not
    converge or cancels past double precision too.
    """
    x = _finite_x(x)
    try:
        return _pdf_product_integral(p, x)
    except NotConverged:
        return _combine_series(*_series_parts(p, x))


def pdf_product_series(p: ProductNormalParams, x: float) -> DensityValue:
    """``pdf_product``'s oracle: the Bessel double series, or the integral
    where the series cancels by more than a few nats or does not converge
    within _SERIES_BLOCKS outer blocks (NotConverged if both fail)."""
    x = _finite_x(x)
    try:
        return _combine_series(*_series_parts(p, x))
    except NotConverged:
        return _pdf_product_integral(p, x)


def _series_parts(p: ProductNormalParams, x: float
                  ) -> tuple[float, np.ndarray, np.ndarray, int]:
    """Accumulate the double series as signed log-magnitude terms, over at
    most _SERIES_BLOCKS outer blocks after the first."""
    if x == 0:
        raise SingularPoint("the product density diverges logarithmically at x = 0")
    om = 1.0 - p.rho ** 2
    s = p.s
    try:  # the squares overflow only at the ends of the double range
        log_pref = -(p.r_x ** 2 + p.r_y ** 2
                     - 2 * p.rho * (x + p.mu_x * p.mu_y) / s) / (2 * om)
        c_x = p.mu_x / p.sigma_x ** 2 - p.rho * p.mu_y / s
        c_y = p.mu_y / p.sigma_y ** 2 - p.rho * p.mu_x / s
        w = abs(x) / (om * s)
    except ArithmeticError:
        w = math.nan  # refused below, before c_x and c_y are read
    # a subnormal w has lost the digits log K_n(w) needs
    if not (_DBL_MIN <= w < math.inf and math.isfinite(log_pref + c_x + c_y)):
        raise NotConverged(f"product density series: out of range at x={x}")
    log_k = _log_k_forward(w, False)
    k_vals = np.empty(_SERIES_BLOCKS + 1)
    log_ax = math.log(abs(x))
    log_sx, log_sy = math.log(p.sigma_x), math.log(p.sigma_y)
    # every odd-m term carries the sign of x c_x c_y
    flip = int((x < 0) ^ (c_x < 0) ^ (c_y < 0))

    log_blocks: list[np.ndarray] = []
    sign_blocks: list[np.ndarray] = []
    run_max = -np.inf
    small_blocks = 0
    for n in range(_SERIES_BLOCKS + 1):
        k_vals[n] = next(log_k)
        m = np.arange(2 * n + 1)
        # (2n choose m)/(2n)! = 1/(m!(2n-m)!); a vanished c_x or c_y makes
        # its terms -inf (xlogy), and they are dropped below
        lt = (n * log_ax + (m - n - 1) * log_sx - math.log(math.pi)
              - (2 * n + 0.5) * math.log(om) - (m - n + 1) * log_sy
              - special.gammaln(m + 1) - special.gammaln(2 * n - m + 1)
              + special.xlogy(m, abs(c_x)) + special.xlogy(2 * n - m, abs(c_y))
              + k_vals[np.abs(m - n)])
        block_max = float(lt.max())
        if block_max == -np.inf:  # a vanished coefficient ends the series
            break
        log_blocks.append(lt)
        sign_blocks.append(1 - 2 * flip * (m % 2))
        run_max = max(run_max, block_max)
        small = block_max < _LOG_SERIES_REL_TOL + run_max
        small_blocks = small_blocks + 1 if small else 0
        if small_blocks == 2:
            break
    else:
        raise NotConverged(
            f"product density series: {_SERIES_BLOCKS} blocks "
            f"insufficient at x={x}"
        )
    logs = np.concatenate(log_blocks)
    live = logs > -np.inf
    return (log_pref, logs[live], np.concatenate(sign_blocks)[live],
            int(live.sum()))


def _combine_series(log_pref: float, logs: np.ndarray, signs: np.ndarray,
                    terms: int) -> DensityValue:
    """The signed series sum; NotConverged where its positive and negative
    partial sums cancel by more than _CANCEL_NATS."""
    lead = _logsumexp(logs[signs > 0])
    delta = -math.expm1(_logsumexp(logs[signs < 0]) - lead)
    if not (math.isfinite(lead) and delta > 0) or -math.log(delta) > _CANCEL_NATS:
        raise NotConverged(f"product density: the series cancels by more "
                           f"than {_CANCEL_NATS:g} nats")
    return DensityValue(log_pref + lead + math.log(delta), terms)


def _log_trapezoid(log_integrand, lo: float, hi: float, n: int, what: str,
                   x: float, floor: float = -np.inf):
    """(log trapezoid sum, t, q, first) of exp(log_integrand): its (2, n)
    values q at n nodes t on [lo, hi], a row per sign of u, and the first
    pass's (t, q, w, total, even), with w = e^(q - max q) and its sums over
    all nodes and over the even ones (the first two alone where q is all
    -inf).  Each pass compares the sum at step h with the sum at
    step 2h on the even nodes of the same grid (the standard test of a
    spectrally convergent rule), and accepts the fine sum when the two agree
    to 1e-15 relative to the exponent (its roundoff floor) or it drops below
    ``floor``; otherwise it trims to within 45 nats of the peak and halves
    the step, or quarters it where the square of the relative gap still
    exceeds the tolerance.  NotConverged past 2^18 nodes (formatted then)."""
    first = None
    while n <= 1 << 18:  # temporaries: about 40 MB, and 6 MB for the first pass
        h = (hi - lo) / (n - 1)
        t = np.arange(n, dtype=float) * h  # np.linspace's nodes, cheaper
        t += lo
        t[-1] = hi
        q = log_integrand(t)
        peak = float(np.maximum.reduce(q, axis=None))
        if peak == -np.inf:
            return peak, t, q, first or (t, q)
        w, total, even = _weights(q, peak)
        first = first or (t, q, w, total, even)
        log_sum = peak + math.log(h * total)
        # the sums' relative gap, which is their log ratio to first order
        gap = abs(2 * even - total)
        tol = 1e-15 * max(1.0, -peak) * total
        if log_sum < floor or gap <= tol:
            return log_sum, t, q, first
        keep = np.flatnonzero((q > peak - 45).any(axis=0))
        i0, i1 = max(keep[0] - 1, 0), min(keep[-1] + 1, n - 1)
        lo, hi, n = t[i0], t[i1], 2 * (i1 - i0) + 1
        # the relative gap about squares with each halving, so where its
        # square still fails the test, halve twice (within the budget)
        if gap * gap > tol * total and 2 * n - 1 <= 1 << 18:
            n = 2 * n - 1
    raise NotConverged(f"{what}: over 2^18 nodes at x={x}")


def _weights(q: np.ndarray, peak: float):
    """(w, total, even): w = e^(q - peak) and its sums over all nodes and
    over the even ones."""
    w = np.subtract(q, peak)
    np.exp(w, out=w)
    return (w, float(np.add.reduce(w, axis=None)),
            float(np.add.reduce(w[:, ::2], axis=None)))


def _product_coords(p: ProductNormalParams, x: float, u):
    """The standardised arguments a = (u - mu_x)/sigma_x and b = (x/u -
    mu_y)/sigma_y of phi_2(u, x/u), at an array u."""
    return (u - p.mu_x) / p.sigma_x, (x / u - p.mu_y) / p.sigma_y


def _product_q(p: ProductNormalParams, x: float, u):
    """Q(a, b) = a^2 - 2 rho a b + b^2 of phi_2(u, x/u), with a and b as in
    ``_product_coords``, at a scalar u or in place on an array u."""
    b = x / u
    b -= p.mu_y
    b /= p.sigma_y
    u -= p.mu_x
    u /= p.sigma_x
    ab = 2 * p.rho * u
    ab *= b
    u *= u
    b *= b
    u -= ab
    u += b
    return u


def _product_exponent(p: ProductNormalParams, x: float, s):
    """E = -Q / (2(1 - rho^2)) at u = +-e^s, a row per sign of u, at any s."""
    q = _product_q(p, x, np.exp(s) * _SIGN_U)  # Q / -d is -(Q / d) exactly
    return np.divide(q, -2 * (1.0 - p.rho ** 2), out=q)


def _pdf_product_bracket(p: ProductNormalParams, x: float):
    """(E, lo, hi, n, log_norm) with f(x) = e^-log_norm int e^E(s) ds the
    density of Z at x != 0 from f(x) = int phi_2(u, x/u) / |u| du, and n
    nodes on [lo, hi] the first grid of E, its log integrand.

    With u = +-e^s the integrand decays double-exponentially, so the
    trapezoid rule in s converges spectrally (Trefethen & Weideman, SIAM
    Rev. 2014).  Q at the balance points u = +-sqrt(|x| sigma_x/sigma_y),
    two scalars, bounds Q at the peak, and Q(a, b) >= (1 - |rho|)(a^2 +
    b^2) bounds the s-range within 45 nats of it (to log|x| - log(|mu_y| +
    r sigma_y) as x -> 0); the first grid is at the narrowest possible peak
    width, so it is usually also the last.  NotConverged where the bracket
    leaves the double range, or where |rho| -> 1 cancels the bound's digits.
    """
    if x == 0:
        raise SingularPoint("the product density diverges logarithmically at x = 0")
    om = 1.0 - p.rho ** 2
    # v leaves the double range only at its ends: Q is NaN, refused below
    v = abs(x) * p.sigma_x / p.sigma_y
    u = math.exp(0.5 * math.log(v)) if 0 < v < math.inf else math.nan
    q_ref = min(_product_q(p, x, u), _product_q(p, x, -u))
    r = math.sqrt((max(q_ref, 0.0) + 90 * om) / (1 - abs(p.rho)))
    v = abs(x) / (abs(p.mu_y) + r * p.sigma_y)
    lo = math.log(v) if v > 0 else math.nan
    hi = math.log(abs(p.mu_x) + r * p.sigma_x)
    big = max(abs(p.r_x), abs(p.r_y)) + r
    # |a|, |b| < 2 big on the bracket, so E stays finite there; lo <= log u
    # <= hi holds in exact arithmetic and fails only where Q lost its digits
    if not (0 <= q_ref < 1e145 and big < 1e145 and lo < hi < math.inf):
        raise NotConverged(f"product density integral: out of range at x={x}")
    step = math.sqrt(1 - abs(p.rho)) / (2 * big)
    return (partial(_product_exponent, p, x), lo, hi,
            int((hi - lo) / step) + 2,
            math.log(2 * math.pi * p.s * math.sqrt(om)))


def _pdf_product_integral(p: ProductNormalParams, x: float) -> DensityValue:
    exponent, lo, hi, n, log_norm = _pdf_product_bracket(p, x)
    log_sum, _, q, _ = _log_trapezoid(exponent, lo, hi, n,
                                      "product density integral", x)
    return DensityValue(log_sum - log_norm, q.size)


def pdf_product_derivatives(p: ProductNormalParams, x: float) -> list[float]:
    """Density of Z and its first four derivatives, under the integral.

    The exponent E of phi_2(u, x/u) is quadratic in x, so f^(j)(x) =
    int H_j e^E ds, H_0 = 1, H_1 = g, H_(j+1) = g H_j + j c H_(j-1), with
    g = dE/dx and c = d^2E/dx^2.  At small |x|, H_j e^E has mass near
    u -> 0, outside the 45 nats of e^E's peak to which the density trims
    its grid.  So the ratios sum H_j e^E / sum e^E are summed on the
    density's first grid, which its kernel hands over, and then trimmed to
    within 45 nats of the peak of each |H_j| e^E (or of its sum, where that
    cancels) and the step halved, down to the one on which the density
    converged, until each agrees with the same ratio on the even nodes to
    1e-13 of sum |H_j| e^E / sum e^E.  So the test bounds f^(j)'s relative
    error only by 1e-13 sum |H_j| e^E / |sum H_j e^E|, which cancellation
    can make large: that ratio is 4.9e9 for f'''' at (2.278, -2.615, 2.649,
    0.914, 0.999), x = 2.397, where f'''' is 3.6e-6 off (against mpmath).
    SingularPoint at x = 0; NotConverged where a derivative is not finite
    (f'''' ~ x^-4 overflows from about |x| = 1e-77), where a sum cancels
    to its roundoff, |sum H_j e^E| <= nodes eps sum |H_j| e^E (at tiny
    |x| the leading 1/x^2 terms of H_2 e^E integrate to zero), or where
    the integral runs out of nodes (from about |rho| = 0.9999)."""
    x = _finite_x(x)
    exponent, lo, hi, n, log_norm = _pdf_product_bracket(p, x)
    log_sum, last, _, (s, q, *sums) = _log_trapezoid(
        exponent, lo, hi, n, "product density integral", x)
    step = 1.5 * (last[1] - last[0])  # over the density's, by a margin
    om = 1.0 - p.rho ** 2
    while n <= 1 << 18:
        if s is None:  # a trimmed window, after the first grid
            s = np.linspace(lo, hi, n)
            q, sums = exponent(s), None
        u = np.exp(s) * _SIGN_U
        a, b = _product_coords(p, x, u)
        # the kernel's weights of the first grid, which it has summed
        w, total, total_even = sums or _weights(q, float(q.max()))
        hw = np.empty((5, *w.shape))  # H_0 ... H_4, then times e^E
        # near x = 0, g ~ 1/u overflows; that is caught below
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            g = (p.rho * a - b) / (om * u * p.sigma_y)  # db/dx = 1/(u sigma_y)
            c = -1.0 / (om * (u * p.sigma_y) ** 2)
            hw[0], hw[1] = 1.0, g
            for j in range(1, 4):
                hw[j + 1] = g * hw[j] + j * c * hw[j - 1]
            hw *= w
            ratios = (hw.sum(axis=(1, 2)) / total).tolist()
            evens = (hw[..., ::2].sum(axis=(1, 2)) / total_even).tolist()
            mag = np.abs(hw)
            scales = (mag.sum(axis=(1, 2)) / total).tolist()
        if not all(map(math.isfinite, scales)):
            raise NotConverged(f"product density derivatives: a derivative "
                               f"at x={x} is not finite")
        if ((hi - lo) / (n - 1) < step and all(
                abs(r - e) <= 1e-13 * m for r, e, m in zip(ratios, evens, scales))):
            # the even-node test cannot see this: both sums carry the
            # same roundoff
            if any(abs(r) <= w.size * _EPS * m for r, m in zip(ratios, scales)):
                raise NotConverged(f"product density derivatives: a sum "
                                   f"cancels to its roundoff at x={x}")
            f = math.exp(log_sum - log_norm)
            return [f * r for r in ratios]
        # keep what is within 45 nats of the peak of some |H_j| e^E, or of
        # |sum H_j e^E| where cancellation makes that the smaller
        cut = np.minimum(mag.max(axis=(1, 2)), np.abs(ratios) * total)
        keep = np.flatnonzero((mag > cut[:, None, None] * math.exp(-45))
                              .any(axis=(0, 1)))
        i0, i1 = max(keep[0] - 1, 0), min(keep[-1] + 1, n - 1)
        lo, hi, n, s = s[i0], s[i1], 2 * (i1 - i0) + 1, None
        while (hi - lo) / (n - 1) > step:
            n = 2 * n - 1
    raise NotConverged(f"product density derivatives: over 2^18 nodes at x={x}")


def pdf_single_zero_mean(p: ProductNormalParams, x: float) -> DensityValue:
    """Density of Z when one mean is zero and rho = 0: a single series.

    Accepts either mu_y = 0 or mu_x = 0 (the product is symmetric in the
    factors); raises CaseMismatch otherwise.
    """
    if p.rho != 0:
        raise CaseMismatch("single-series density requires rho = 0")
    if p.mu_y == 0:
        mu, s_cubed, s_lin = p.mu_x, p.sigma_x, p.sigma_y
    elif p.mu_x == 0:
        mu, s_cubed, s_lin = p.mu_y, p.sigma_y, p.sigma_x
    else:
        raise CaseMismatch("single-series density requires one zero mean")
    x = _finite_x(x)
    if x == 0:
        raise SingularPoint("the product density diverges logarithmically at x = 0")
    s = p.s
    try:  # as in _series_parts: s = 0, or mu^2 or sigma^2 overflows
        w = abs(x) / s
        log_base = -math.log(math.pi * s) - mu ** 2 / (2 * s_cubed ** 2)
    except ArithmeticError:
        w = math.nan
    if not _DBL_MIN <= w < math.inf:
        raise NotConverged(f"single-series density: out of range at x={x}")
    log_k = _log_k_forward(w, False)
    log_mu = math.log(abs(mu)) if mu else -np.inf
    log_ax, log_s3, log_sl = math.log(abs(x)), math.log(s_cubed), math.log(s_lin)
    peak, terms = -math.inf, []
    for n in range(_SERIES_BLOCKS + 1):
        lt = ((2 * n * log_mu if n else 0.0) + n * log_ax - math.lgamma(2 * n + 1)
              - 3 * n * log_s3 - n * log_sl + next(log_k))
        terms.append(lt)
        peak = max(peak, lt)
        if mu == 0 or n >= 2 and lt < _LOG_SERIES_REL_TOL + peak:
            break
    else:
        raise NotConverged(
            f"single-series density: {_SERIES_BLOCKS} terms "
            f"insufficient at x={x}"
        )
    return DensityValue(log_base + _logsumexp(terms), len(terms))


def _mean_zero_means_form(mp: MeanParams) -> tuple[float, float, float]:
    """(nu, c, log_base) of the zero-mean closed form
    p(x) = e^log_base |x|^nu e^(rho c x) K_nu(c|x|), nu = (n-1)/2."""
    p = mp.base
    if p.mu_x != 0 or p.mu_y != 0:
        raise CaseMismatch("closed-form mean density requires zero means")
    n = mp.n
    om = 1.0 - p.rho ** 2
    s_n = mp.s_n
    if not 0 < s_n < math.inf:
        raise NotConverged(f"zero-mean density: sigma_x sigma_y / n = {s_n} "
                           "is out of range")
    log_base = ((1 - n) / 2 * math.log(2) - (n + 1) / 2 * math.log(s_n)
                - 0.5 * math.log(math.pi * om) - math.lgamma(n / 2))
    return (n - 1) / 2, 1.0 / (s_n * om), log_base


def pdf_mean_zero_means(mp: MeanParams, x: float) -> DensityValue:
    """Closed-form density of the mean of n copies when both means are zero.

    Finite everywhere for n >= 2 (at x = 0 the power prefactor balances
    the Bessel singularity, and where c|x| is subnormal the x -> 0 limit
    is returned); for n = 1 the log singularity at x = 0 raises
    SingularPoint, and a subnormal c|x| NotConverged.
    """
    return _pdf_mean_zero_means(mp, x, *_mean_zero_means_form(mp))


def _pdf_mean_zero_means(mp: MeanParams, x: float, nu, c, log_base):
    """``pdf_mean_zero_means`` from its closed form's constants."""
    x = _finite_x(x)
    if x == 0 and mp.n == 1:
        raise SingularPoint("the n=1 density diverges logarithmically at x = 0")
    if not c * abs(x) < math.inf:
        raise NotConverged(f"zero-mean density: out of range at x={x}")
    if c * abs(x) < _DBL_MIN:  # a subnormal c|x| has lost its digits
        if mp.n == 1:
            raise NotConverged(f"zero-mean density: subnormal c|x| at x={x}")
        # lim |x|^nu K_nu(c|x|) = Gamma(nu) 2^(nu-1) / c^nu
        log_lim = math.lgamma(nu) + (nu - 1) * math.log(2) - nu * math.log(c)
        return DensityValue(log_base + log_lim, 1)
    log_k = next(islice(_log_k_forward(c * abs(x), mp.n % 2 == 0),
                        (mp.n - 1) // 2, None))
    log_val = log_base + nu * math.log(abs(x)) + mp.base.rho * x * c + log_k
    return DensityValue(log_val, 1)


def mean_zero_means_derivatives(mp: MeanParams, x: float) -> list[float]:
    """Density of the zero-mean average and its first four derivatives,
    from the variance-gamma operator a4 (``stein.a4_table``).

    p is ``pdf_mean_zero_means``; p'/p = c (rho - sgn(x) K_(nu-1) / K_nu)
    (c|x|) by DLMF 10.29.4, the ratio from ``kve``.  p solves a4's adjoint
    sum_i B_i p^(i) = 0, B_i = b0_i + b1_i x (``ode_residual_density``), whose
    k-th derivative gives r_j = p^(j)/p: B_2 r_(k+2) + (B_1 + k b1_2) r_(k+1)
    + (B_0 + k b1_1) r_k + k b1_0 r_(k-1) = 0, k = 0, 1, 2.  A first-order
    bound carries the rounding of the ratio and of each coefficient (4 ulps
    each) through the steps; it leaves out 1 - rho^2's rounding, which moves c
    and every coefficient alike.  NotConverged where K_nu or K_(nu-1) leaves
    the double range, where a derivative is not finite or a bound exceeds 1e-9
    of its r_j (near x = 0 and in correlated tails), and where p is normal
    but some p r_j != 0 underflows below DBL_MIN.
    """
    nu, c, log_base = _mean_zero_means_form(mp)
    x = _finite_x(x)
    if x == 0:
        raise SingularPoint("derivatives at the singular point are undefined")
    log_p = _pdf_mean_zero_means(mp, x, nu, c, log_base).log_abs
    z, what = c * abs(x), "zero-mean density derivatives: a derivative at x="
    k_lower, k_nu = special.kve([abs(nu - 1), nu], z).tolist()
    (a00, a10), (a01, a11), (_, a12) = a4_table(mp)
    # the adjoint's b0_i in two parts and b1_i (a4's a0_2 is 0); it is
    # homogeneous, so a power of two keeps b1_i x in range, changing no r_j
    adj = (a00, -a11, a10, -a01, 2 * a12, -a11, a12)
    room = 1000 - math.frexp(x)[1] - math.frexp(max(map(abs, adj)))[1]
    c0, d0, s0, c1, d1, s1, s2 = (
        adj if room >= 0 else [math.ldexp(v, room) for v in adj])
    # B_i at x, b0_i's parts summed first (exact at n = 2), and m_i, its
    # parts' magnitudes, which bound its rounding where they cancel
    B0, B1, B2 = (c0 + d0) + s0 * x, (c1 + d1) + s1 * x, s2 * x
    m0, m1 = abs(c0) + abs(d0) + abs(s0 * x), abs(c1) + abs(d1) + abs(s1 * x)
    # an overflowed K_nu would make the ratio 0, not a refusal
    if not (0 < k_lower / k_nu < math.inf and B2 and m0 + m1 + abs(B2) < math.inf):
        raise NotConverged(f"{what}{x} is not finite")
    drift, bessel = mp.base.rho * c, math.copysign(c * k_lower / k_nu, x)
    # 64 ulps where kve's ratio erred by up to 52 (elsewhere by at most 3.1)
    ratio_eps = 32 * _EPS if nu % 1 == 0 and z <= 2 else 2 * _EPS
    # r_(j-1) and its error bound at index j; r_(-1) = 0 starts the recursion
    r = [0.0, 1.0, drift - bessel]
    err = [0.0, 0.0, ratio_eps * (abs(drift) + abs(bessel))]
    for k in range(3):
        (ra, rb, rc), (ea, eb, ec) = r[k:], err[k:]
        fa, fb, fc = k * s0, B0 + k * s1, B1 + k * s2
        r.append(-(fa * ra + fb * rb + fc * rc) / B2)
        err.append((abs(fa) * ea + 2 * _EPS * (k * abs(s0)) * abs(ra)
                    + (abs(fb) * eb + 2 * _EPS * (m0 + k * abs(s1)) * abs(rb))
                    + (abs(fc) * ec + 2 * _EPS * (m1 + k * abs(s2)) * abs(rc))
                    + 2 * _EPS * abs(B2) * abs(r[-1])) / abs(B2))
    p = math.exp(log_p)  # below DBL_MIN, p r_j from logs keeps its digits
    derivs = [p * rj if p >= _DBL_MIN or not rj else
              math.copysign(math.exp(log_p + math.log(abs(rj))), rj)
              for rj in r[1:]]
    if not all(map(math.isfinite, derivs)):
        raise NotConverged(f"{what}{x} is not finite")
    if not all(ej <= _DERIV_REL_TOL * abs(rj) for rj, ej in zip(r[2:], err[2:])):
        raise NotConverged(f"{what}{x} cancels to its rounding")
    if p >= _DBL_MIN and any(rj and abs(d) < _DBL_MIN for d, rj in zip(derivs, r[1:])):
        raise NotConverged(f"{what}{x} underflows")
    return derivs


# The old name; perfbench's ode_finite_difference op still calls it.
finite_difference_derivatives = pdf_product_derivatives


def ode_residual_density(mp: MeanParams, x: float,
                         derivs: list[float]) -> float:
    """Normalized residual of the fourth-order linear ODE satisfied by the
    density of the mean: the adjoint of the operator ``stein.a1_table``,
    since E[A f] = int f A*p = 0 for every f.

    ``derivs`` supplies (p, p', p'', p''', p'''') at x.  The residual is
    the ODE left-hand side sum_i (-1)^i d^i[(a0_i + a1_i x) p] = sum_i (b0_i
    + b1_i x) p^(i), b1_i = (-1)^i a1_i and b0_i = (-1)^i a0_i - (-1)^i (i +
    1) a1_(i+1), divided by the largest absolute term, so a value near zero
    certifies the ODE regardless of the density's scale.
    NonFiniteParameter at a non-finite x, NotConverged at a derivative not
    finite (p'''' ~ x^-4 overflows from |x| ~ 1e-77) or subnormal, or
    where a coefficient times x or a term overflows.
    """
    x = _finite_x(x)
    if len(derivs) != 5:
        raise ValueError("derivs must contain p and its first four derivatives")
    if not all(d == 0 or _DBL_MIN <= abs(d) <= _DBL_MAX for d in derivs):
        raise NotConverged(f"density ODE: a derivative at x={x} is not "
                           "finite or subnormal")
    (a00, a10), (a01, a11), (a02, a12), (a03, a13), (a04, a14) = a1_table(mp)
    p0, p1, p2, p3, p4 = derivs
    terms = (((a00 + a10 * x) - a11) * p0, ((-a01 - a11 * x) + 2 * a12) * p1,
             ((a02 + a12 * x) - 3 * a13) * p2,
             ((-a03 - a13 * x) + 4 * a14) * p3, (a04 + a14 * x) * p4)
    scale = max(map(abs, terms))
    residual = sum(terms) / scale if scale else 0.0
    if not math.isfinite(residual):
        raise NotConverged(f"density ODE: a term overflows at x={x}")
    return residual


def cdf_product(p: ProductNormalParams, x: float) -> float:
    """CDF of Z by conditioning on X, with no series and no density call.

    Given X = u, Y is normal with mean m(u) = mu_y + k (u - mu_x),
    k = rho sigma_y / sigma_x, and sd s = sigma_y sqrt(1 - rho^2), so
    F(z) = int phi_X(u) Phi(+-(z/u - m(u)) / s) du, with + for u > 0.
    Below the mean of Z this integral is evaluated; above it, the same
    integral of P(Z > z), and F = 1 - P(Z > z), so that the smaller tail
    is the one accurate to a few ulps.

    Per unit of v = log|u|, the argument of phi_X changes at the rate
    |u| / sigma_x, and that of Phi, wherever |Phi's argument| <= T, at no
    more than (|b| + 2|k||u|) / s + T with b = mu_y - k mu_x.  The
    narrowest feature is the step of Phi at the roots of z/u = m(u), of
    width s / sqrt(b^2 + 4kz) in v.  The substitution
    |u| = (c0/c1) log(1 + e^(tau/c0)), with c0 = |b|/s + T and
    c1 = 1/sigma_x + 2|k|/s, is u = +-e^v near 0 and linear far from it,
    and its nodes are never further apart than those rates allow: a unit
    step in tau moves each argument by about one unit at most.  Close to
    0, where nothing but e^v changes, tau(t) widens the step in v from
    1/c0 to 1 below a knee t_e, where the bracket starts less than 10
    below t_e or above it (elsewhere tau = t).  The trapezoid rule in t
    converges spectrally (Trefethen & Weideman, SIAM Rev. 2014): the gap
    between the sums at steps h and 2h about squares with each halving,
    from 1e-7 to 1e-4 at the unit step to below 1e-15 at a quarter, so
    the first grid takes a quarter step.

    The bracket starts where the integrand vanishes near u = 0 and ends
    where a lower bound q* on the peak of its log proves the rest
    negligible: past |u| = |mu_x| + a sigma_x, log phi_X < -a^2/2 while
    Phi <= 1 and du/dt <= c0/c1, so with a^2 = 2(45 + log(c0 c1 sigma_x)
    - q*) the integrand there is 45 nats below the peak, and so is its
    integral (a = 40 bounds the bracket at any q*).  First q* = -24 is
    guessed; where the peak of the grid it gives falls short, that peak,
    like any value of the integrand, bounds the true one, and is the q*
    of a second grid.  A first grid takes a quarter step, or the unit step
    where that would outgrow both 2^9 nodes and the unit-step grid of the
    whole bracket (|rho| near 1, where phi_X spans hundreds of unit
    steps); ``_log_trapezoid`` trims and refines it.

    Where the scale ratio sigma_y / sigma_x leaves the double range (it
    makes the slope k, and at rho = 0 a large x over u overflows once
    divided by s) or the bracket does, the same CDF is that of the
    unit-variance problem at (x / sigma_x) / sigma_y.
    """
    z = float(x)
    if math.isnan(z):
        raise NonFiniteParameter("the CDF is undefined at x = NaN")
    if math.isinf(z):
        return 0.0 if z < 0 else 1.0
    if not _DBL_MIN <= p.sigma_y / p.sigma_x < math.inf:
        return _cdf_unit_variances(p, z)
    s = p.sigma_y * math.sqrt(1.0 - p.rho ** 2)
    k = p.rho * p.sigma_y / p.sigma_x
    b = p.mu_y - k * p.mu_x
    # within the bracket, |u| <= reach, |m(u)| <= |b| + |k| reach; where
    # |z| / reach exceeds that by 40 s, Phi's argument is beyond +-40 at
    # every node (and z / u / s may overflow), so F is 0 or 1 to within
    # e^-800
    reach = abs(p.mu_x) + 40 * p.sigma_x
    if abs(z) / reach >= abs(b) + abs(k) * reach + 40 * s:
        return 1.0 if z > 0 else 0.0
    # with z = 0 the conditional probability has no step near u = 0
    c0 = (abs(b) / s if z else 0.0) + _CDF_ARG_RANGE
    c1 = 1.0 / p.sigma_x + 2.0 * abs(k) / s
    upper = z > p.mu_x * p.mu_y + p.rho * p.sigma_x * p.sigma_y
    sign_phi = -_SIGN_U if upper else _SIGN_U

    def tau_of(w):  # inverse of w = (c0/c1) log(1 + e^(tau/c0)), w >= u_min
        y = c1 * max(w, u_min) / c0
        return c0 * (y + math.log(-math.expm1(-y)))

    # below |u| = eps_z the argument of Phi is beyond +-40 on both sides
    eps_z = min(1.0, abs(z) / (abs(b) + abs(k) + 40 * s)) if z else math.inf
    if z > 0 if upper else z < 0:
        eps = eps_z  # the integrated probability vanishes there
    else:
        # the integrand tends to phi_X(0) Phi(-+b/s) du/dt: stop 40 nats
        # below the scale on which phi_X and m(u) change
        try:
            drift = abs(p.mu_x) / p.sigma_x ** 2
        except (OverflowError, ZeroDivisionError):  # sigma_x^2 out of range
            drift = abs(p.r_x) / p.sigma_x
        eps = math.exp(-40) * min(eps_z, 1 / (c1 + drift))
    # below |u| = u_min, tau_of or a node's u underflows or z/u overflows:
    # the bracket stops there, dropping at most 2 u_min phi_X(mu_x) of mass
    # (checked at the end)
    u_min = 4 * max(_DBL_MIN, _DBL_MIN * c0 / c1, abs(z) / _DBL_MAX)
    lost = 2 * u_min / (math.sqrt(2 * math.pi) * p.sigma_x) \
        if eps < u_min else 0.0
    tau_lo, tau_hi = tau_of(eps), tau_of(abs(p.mu_x) + 40 * p.sigma_x)
    if not math.isfinite(tau_hi - tau_lo):
        return _cdf_unit_variances(p, z)
    if tau_lo >= tau_hi:
        return 1.0 if upper else 0.0
    # tau = t - (c0 - 1) log(1 + e^(t_e - t)) has slope c0 well below t_e
    # and 1 above it; below |u| = e^-3 min(eps_z, 1/c1) the argument of
    # Phi is saturated and phi_X and m(u) change by less than e^-3
    t_e = tau_of(min(eps_z, 1 / c1) * math.exp(-3)) - math.log(c0) - 3
    # tau(t) <= min(t, c0 t - (c0 - 1) t_e), and tau(t) > t - 1 past t_e
    lo = max(tau_lo, (tau_lo + (c0 - 1) * t_e) / c0)
    hi = tau_hi + 1
    widen = t_e > lo - 10  # otherwise tau = t on the whole bracket

    def log_integrand(t):
        tau = t - (c0 - 1) * np.logaddexp(0.0, t_e - t) if widen else t
        v = tau / c0
        u = (c0 / c1) * np.logaddexp(0.0, v) * _SIGN_U
        shifted = u - p.mu_x
        a = shifted / p.sigma_x
        arg = sign_phi * (z / u - p.mu_y - k * shifted) / s
        log_du_dt = ((np.log1p((c0 - 1) * special.expit(t_e - t)) if widen
                      else 0.0) - np.logaddexp(0.0, -v))
        # log phi_X + log du/dt + log Phi, up to the constant log_norm
        return -0.5 * a * a + log_du_dt + special.log_ndtr(arg)

    log_norm = math.log(math.sqrt(2 * math.pi) * p.sigma_x * c1)
    log_c = math.log(c0 * c1 * p.sigma_x)
    n_unit = int(hi - lo) + 2  # the unit step on the whole bracket

    def upper_end(q_star):  # the end that the peak bound q_star proves
        a = math.sqrt(2 * (45 + log_c - q_star))
        if a >= 40:
            return hi
        return min(hi, tau_of(abs(p.mu_x) + a * p.sigma_x) + 1)

    def first_grid(end, floor):  # a quarter step, or the unit step
        n = int(4 * (end - lo)) + 2
        if n > max(n_unit, _CDF_SMALL_GRID):
            n = int(end - lo) + 2
        return _log_trapezoid(log_integrand, lo, end, n, "cdf integral", x, floor)

    end, q_star = upper_end(_CDF_PEAK_GUESS), -math.inf
    if lo < end:  # an empty bracket bounds no peak
        # a grid that reaches the guess sums to over e^guess / 4, so this
        # floor only stops a grid whose bracket the guess does not prove
        log_sum, _, q, _ = first_grid(end, _CDF_PEAK_GUESS - 2)
        q_star = float(q.max())
    if q_star < _CDF_PEAK_GUESS:
        # below -750 the probability underflows, resolved or not
        log_sum = first_grid(upper_end(q_star), log_norm - 750)[0]
    tail = min(math.exp(log_sum - log_norm), 1.0)
    value = 1.0 - tail if upper else tail
    if not lost <= _EPS * value:
        raise NotConverged(f"cdf integral: mass below |u| = {u_min:.3g} "
                           f"is not negligible at x={x}")
    return value


def _cdf_unit_variances(p: ProductNormalParams, z: float) -> float:
    """``cdf_product`` at z of the problem rescaled to unit variances,
    P(XY <= z) = P((X / sigma_x)(Y / sigma_y) <= (z / sigma_x) / sigma_y);
    NotConverged where p has unit variances already or a mean-to-sd ratio
    overflows."""
    r_x, r_y = p.r_x, p.r_y
    if (p.sigma_x, p.sigma_y) == (1.0, 1.0) or not (
            math.isfinite(r_x) and math.isfinite(r_y)):
        raise NotConverged(f"cdf integral: its bracket leaves the double "
                           f"range at x={z}")
    return cdf_product(ProductNormalParams(r_x, r_y, 1.0, 1.0, p.rho),
                       z / p.sigma_x / p.sigma_y)


def _pdf_value(p: ProductNormalParams, x: float) -> float:
    """``pdf_product_series`` at x as a float, the integrand of
    ``cdf_product_series``: 0 at the log singularity x = 0.  Its callers'
    ranges end at or inside ``_tail_cutoff``, past which the density is
    certifiably negligible, and their quadrature evaluates no end."""
    if x == 0:
        return 0.0
    return pdf_product_series(p, x).value


def _tail_cutoff(p: ProductNormalParams, log_eps: float = -60.0) -> float:
    """|x| beyond which the density is certifiably below exp(log_eps).

    The tails decay like exp(-|x|/((1+|rho|)s)); the cutoff absorbs the
    exponential prefactor and leaves 20 nats of slack, so truncating the
    quadrature there changes the mass by far less than any tolerance in
    use.  inf where a square overflows.
    """
    try:
        log_c = (p.r_x ** 2 + p.r_y ** 2 + 2 * abs(p.rho)
                 * (1 + abs(p.r_x * p.r_y))) / (2 * (1 - p.rho ** 2))
    except OverflowError:
        return math.inf
    return (1 + abs(p.rho)) * p.s * (-log_eps + log_c + 20.0)


def cdf_product_series(p: ProductNormalParams, x: float) -> float:
    """CDF of Z by adaptive quadrature of ``pdf_product_series``, the
    Bessel series or, where it fails, the integral.

    The reference that checks the series density has unit mass;
    ``cdf_product`` is faster and does not depend on the series.  The
    integrable log singularity at 0 is handled by splitting the
    integration range there; the infinite range is truncated where the
    density provably underflows double precision (NotConverged where that
    cutoff is 0 or infinite).
    """
    quad_tol = 1e-9
    from scipy import integrate  # its only user; keeps it off import
    x = float(x)
    if not math.isfinite(x):  # 0 or 1, or NonFiniteParameter at NaN
        return cdf_product(p, x)
    lo = -_tail_cutoff(p)
    if not -math.inf < lo < 0:
        raise NotConverged(f"cdf series: tail cutoff {-lo} out of range")
    if x <= lo:
        return 0.0
    total = err = 0.0
    for a, b in [(lo, x)] if x <= 0 else [(lo, 0.0), (0.0, min(x, -lo))]:
        val, abserr = integrate.quad(lambda t: _pdf_value(p, t), a, b,
                                     limit=400, epsabs=quad_tol,
                                     epsrel=quad_tol)
        total += val
        err += abserr
    if err > 1e-6:
        raise NotConverged(f"cdf quadrature error estimate {err:.2e} too large")
    return min(max(total, 0.0), 1.0)
