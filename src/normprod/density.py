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
from dataclasses import dataclass
from itertools import islice
from typing import ClassVar

import numpy as np
from scipy import special

from .bessel import _log_k_forward
from .errors import (CaseMismatch, NonFiniteParameter, NotConverged,
                     SingularPoint)
from .params import MeanParams, ProductNormalParams
from .stein import a1_table

_DBL_MIN = np.finfo(float).tiny
_EPS = np.finfo(float).eps
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
# integrand, which the first grid must reach to be accepted; the nodes of
# the probe that bounds the peak where that grid would be too large; and
# the grid size up to which numpy's fixed cost per pass outweighs the cost
# of the nodes, so that a quarter step beats a coarser grid refined later.
_CDF_PEAK_GUESS = -24.0
_CDF_PROBE_NODES = 65
_CDF_SMALL_GRID = 1 << 9


# Series truncation: the double series stops once two consecutive outer
# blocks (two, in case one cancels by accident), and the single series
# once a term past the second, fall below _SERIES_REL_TOL of the largest
# term so far; each gives up past _SERIES_BLOCKS blocks or terms.
_SERIES_REL_TOL = 1e-14
_LOG_SERIES_REL_TOL = math.log(_SERIES_REL_TOL)
_SERIES_BLOCKS = 300


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
    x = float(x)
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
    """(log trapezoid sum, nodes t, q) of exp(log_integrand), whose (2, n)
    values q at n nodes t on [lo, hi] hold one row per sign of u.  Each pass
    compares the sum at step h with the sum at step 2h on the even nodes of
    the same grid (the standard test of a spectrally convergent rule), and
    accepts the fine sum when the two agree to 1e-15 relative to the
    exponent (its roundoff floor) or it drops below ``floor``; otherwise it
    trims to within 45 nats of the peak and halves the step, or quarters it
    where the square of the relative gap still exceeds the tolerance.
    NotConverged past 2^18 nodes (formatted only then)."""
    while n <= 1 << 18:  # caps the temporaries at about 40 MB
        h = (hi - lo) / (n - 1)
        t = np.arange(n) * h + lo  # np.linspace's nodes, without its overhead
        t[-1] = hi
        q = log_integrand(t)
        peak = float(q.max())
        if peak == -np.inf:
            return peak, t, q
        w = np.exp(q - peak)
        total = w.sum()
        log_sum = peak + math.log(h * total)
        # the sums' relative gap, which is their log ratio to first order
        gap = abs(2 * w[:, ::2].sum() - total)
        tol = 1e-15 * max(1.0, -peak) * total
        if log_sum < floor or gap <= tol:
            return log_sum, t, q
        keep = np.flatnonzero((q > peak - 45).any(axis=0))
        i0, i1 = max(keep[0] - 1, 0), min(keep[-1] + 1, n - 1)
        lo, hi, n = t[i0], t[i1], 2 * (i1 - i0) + 1
        # the relative gap about squares with each halving, so where its
        # square still fails the test, halve twice (within the budget)
        if gap * gap > tol * total and 2 * n - 1 <= 1 << 18:
            n = 2 * n - 1
    raise NotConverged(f"{what}: over 2^18 nodes at x={x}")


def _product_coords(p: ProductNormalParams, x: float, u):
    """The standardised arguments a = (u - mu_x)/sigma_x and b = (x/u -
    mu_y)/sigma_y of phi_2(u, x/u), at a scalar u or an array."""
    return (u - p.mu_x) / p.sigma_x, (x / u - p.mu_y) / p.sigma_y


def _product_q(p: ProductNormalParams, x: float, u):
    """Q(a, b) = a^2 - 2 rho a b + b^2 of phi_2(u, x/u), the exponent E
    times -2(1 - rho^2), at a scalar u or an array."""
    a, b = _product_coords(p, x, u)
    return a * a - 2 * p.rho * a * b + b * b


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

    def exponent(s):
        return -_product_q(p, x, np.exp(s) * _SIGN_U) / (2 * om)

    def log_of(v):  # v leaves the double range only at its ends
        if not 0 < v < math.inf:
            raise NotConverged(f"product density integral: out of range at x={x}")
        return math.log(v)

    u = math.exp(0.5 * log_of(abs(x) * p.sigma_x / p.sigma_y))
    q_ref = min(_product_q(p, x, u), _product_q(p, x, -u))
    r = math.sqrt((max(q_ref, 0.0) + 90 * om) / (1 - abs(p.rho)))
    lo = log_of(abs(x) / (abs(p.mu_y) + r * p.sigma_y))
    hi = log_of(abs(p.mu_x) + r * p.sigma_x)
    big = max(abs(p.r_x), abs(p.r_y)) + r
    # |a|, |b| < 2 big on the bracket, so E stays finite there; lo <= log u
    # <= hi holds in exact arithmetic and fails only where Q lost its digits
    if not (0 <= q_ref < 1e145 and big < 1e145 and lo < hi):
        raise NotConverged(f"product density integral: out of range at x={x}")
    step = math.sqrt(1 - abs(p.rho)) / (2 * big)
    return (exponent, lo, hi, int((hi - lo) / step) + 2,
            math.log(2 * math.pi * p.s * math.sqrt(om)))


def _pdf_product_integral(p: ProductNormalParams, x: float) -> DensityValue:
    exponent, lo, hi, n, log_norm = _pdf_product_bracket(p, x)
    log_sum, _, q = _log_trapezoid(exponent, lo, hi, n,
                                   "product density integral", x)
    return DensityValue(log_sum - log_norm, q.size)


def pdf_product_derivatives(p: ProductNormalParams, x: float) -> list[float]:
    """Density of Z and its first four derivatives, under the integral.

    The exponent E of phi_2(u, x/u) is quadratic in x, so f^(j)(x) =
    int H_j e^E ds, H_0 = 1, H_1 = g, H_(j+1) = g H_j + j c H_(j-1), with
    g = dE/dx and c = d^2E/dx^2.  At small |x|, H_j e^E has mass near
    u -> 0, outside the 45 nats of e^E's peak to which the density trims
    its grid.  So the ratios sum H_j e^E / sum e^E are summed on the
    density's first grid, on its untrimmed bracket, and then trimmed to
    within 45 nats of the peak of each |H_j| e^E (or of its sum, where that
    cancels) and the step halved, down to the one on which the density
    converged, until each agrees with the same ratio on the even nodes to
    1e-13 of sum |H_j| e^E / sum e^E.
    SingularPoint at x = 0; NotConverged where a derivative is not finite
    (f'''' ~ x^-4 overflows from about |x| = 1e-77), where a sum cancels
    to its roundoff, |sum H_j e^E| <= nodes eps sum |H_j| e^E (at tiny
    |x| the leading 1/x^2 terms of H_2 e^E integrate to zero), or where
    the integral runs out of nodes (from about |rho| = 0.9999)."""
    x = _finite_x(x)
    exponent, lo, hi, n, log_norm = _pdf_product_bracket(p, x)
    log_sum, s, q = _log_trapezoid(exponent, lo, hi, n,
                                   "product density integral", x)
    step = 1.5 * (s[1] - s[0])  # over the density's, by a margin
    om = 1.0 - p.rho ** 2
    while n <= 1 << 18:
        if s.size != n or s[0] != lo:  # not the density's grid
            s = np.linspace(lo, hi, n)
            q = exponent(s)
        u = np.exp(s) * _SIGN_U
        a, b = _product_coords(p, x, u)
        w = np.exp(q - q.max())
        total, total_even = w.sum(), w[:, ::2].sum()
        h_prev, h, hs = 0.0, np.ones_like(w), []
        # near x = 0, g ~ 1/u overflows; that is caught below
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            g = (p.rho * a - b) / (om * u * p.sigma_y)  # db/dx = 1/(u sigma_y)
            c = -1.0 / (om * (u * p.sigma_y) ** 2)
            for j in range(5):
                hs.append(h)
                h_prev, h = h, g * h + j * c * h_prev
            hw = np.array(hs) * w
            fine = hw.sum(axis=(1, 2)) / total
            coarse = hw[..., ::2].sum(axis=(1, 2)) / total_even
            mag = np.abs(hw)
            scale = mag.sum(axis=(1, 2)) / total
        if not np.isfinite(scale).all():
            raise NotConverged(f"product density derivatives: a derivative "
                               f"at x={x} is not finite")
        if ((hi - lo) / (n - 1) < step
                and np.all(np.abs(fine - coarse) <= 1e-13 * scale)):
            # the even-node test cannot see this: both sums carry the
            # same roundoff
            if np.any(np.abs(fine) <= w.size * _EPS * scale):
                raise NotConverged(f"product density derivatives: a sum "
                                   f"cancels to its roundoff at x={x}")
            f = math.exp(log_sum - log_norm)
            return [f * float(r) for r in fine]
        # keep what is within 45 nats of the peak of some |H_j| e^E, or of
        # |sum H_j e^E| where cancellation makes that the smaller
        cut = np.minimum(mag.max(axis=(1, 2)), np.abs(fine) * total)
        keep = np.flatnonzero((mag > cut[:, None, None] * math.exp(-45))
                              .any(axis=(0, 1)))
        i0, i1 = max(keep[0] - 1, 0), min(keep[-1] + 1, n - 1)
        lo, hi, n = s[i0], s[i1], 2 * (i1 - i0) + 1
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
    nu, c, log_base = _mean_zero_means_form(mp)
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
    """Density of the zero-mean average and its first four derivatives.

    Analytic: the Leibniz rule over the three factors |x|^nu, e^(rho c x)
    and K_nu(c|x|) of the closed form, with the Bessel derivatives from
    K_nu^(j)(z) = (-1/2)^j sum_k C(j,k) K_(nu-j+2k)(z) (DLMF 10.29.5).
    Every factor is exponent-scaled (``kve``) and the common factor
    exp(log_base + nu log|x| + rho c x - c|x|) is applied once at the end,
    so the values are accurate to a few double-precision ulps and stay
    nonzero wherever the density itself is representable.
    """
    nu, c, log_base = _mean_zero_means_form(mp)
    x = _finite_x(x)
    if x == 0:
        raise SingularPoint("derivatives at the singular point are undefined")
    sgn, ax, rc = math.copysign(1.0, x), abs(x), mp.base.rho * c
    j = np.arange(5)
    fact = np.array([math.factorial(k) for k in j], dtype=float)
    # Taylor coefficients f^(j)(x)/j! of each factor, scaled by its value
    # at x (for the Bessel factor, by e^(-c|x|)); their convolution is the
    # Leibniz rule.
    with np.errstate(all="ignore"):  # a value out of range is refused below
        power = np.cumprod(np.concatenate(([1.0], (nu - j[:-1]) * sgn / ax)))
        power /= fact
        expo = rc ** j / fact
        # as floats, so that the sums below run without numpy's scalar costs
        kv = special.kve(np.abs(nu + np.arange(-4, 5)), c * ax).tolist()
        bessel = np.array([
            (-0.5 * c * sgn) ** d
            * sum(math.comb(d, k) * kv[4 - d + 2 * k] for k in range(d + 1))
            for d in j
        ]) / fact
        taylor = np.convolve(np.convolve(power, expo), bessel)[:5]
        scale = math.exp(log_base + nu * math.log(ax) + rc * x - c * ax)
        derivs = [float(v) for v in scale * taylor * fact]
    if not all(map(math.isfinite, derivs)):
        raise NotConverged(f"zero-mean density derivatives: a derivative "
                           f"at x={x} is not finite")
    return derivs


# The old name; perfbench's ode_finite_difference op still calls it.
finite_difference_derivatives = pdf_product_derivatives


def ode_residual_density(mp: MeanParams, x: float,
                         derivs: list[float]) -> float:
    """Normalized residual of the fourth-order linear ODE satisfied by the
    density of the mean: the adjoint of the operator ``stein.a1_table``,
    since E[A f] = int f A*p = 0 for every f.

    ``derivs`` supplies (p, p', p'', p''', p'''') at x.  The residual is
    the ODE left-hand side divided by the largest absolute term, so a
    value near zero certifies the ODE regardless of the density's scale.
    NotConverged if a derivative is not finite (p'''' ~ x^-4 overflows
    from about |x| = 1e-77).
    """
    if len(derivs) != 5:
        raise ValueError("derivs must contain p and its first four derivatives")
    if not all(map(math.isfinite, derivs)):
        raise NotConverged(f"density ODE: a derivative at x={x} is not finite")
    # the adjoint sum_i (-1)^i d^i[(a0_i + a1_i x) p] of the operator: the
    # coefficient of p^(i) is (-1)^i [(a0_i + a1_i x) - (i + 1) a1_(i+1)]
    table = a1_table(mp)
    a1_next = [a1 for _, a1 in table[1:]] + [0.0]
    terms = [(-1) ** i * ((a0 + a1 * x) - (i + 1) * b) * d
             for i, ((a0, a1), b, d) in enumerate(zip(table, a1_next, derivs))]
    scale = max(abs(t) for t in terms)
    if scale == 0:
        return 0.0
    return sum(terms) / scale


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
    1/c0 to 1.  The trapezoid rule in t converges spectrally (Trefethen &
    Weideman, SIAM Rev. 2014): the gap between the sums at steps h and 2h
    about squares with each halving, from 1e-7 to 1e-4 at the unit step
    to below 1e-15 at a quarter, so the first grid takes a quarter step.

    The bracket starts where the integrand vanishes near u = 0 and ends
    where a lower bound q* on the peak of its log proves the rest
    negligible: past |u| = |mu_x| + a sigma_x, log phi_X < -a^2/2 while
    Phi <= 1 and du/dt <= c0/c1, so with a^2 = 2(45 + log(c0 c1 sigma_x)
    - q*) the integrand there is 45 nats below the peak, and so is its
    integral (a = 40 bounds the bracket at any q*).  First q* = -24 is
    guessed, and the quarter-step grid it gives, if of at most 2^9 nodes,
    is accepted where its peak reaches the guess.  Otherwise q* is the
    peak of that grid, or of a 65-node probe of the whole bracket.  Where
    the grid q* gives would outgrow both 2^9 nodes and the unit-step grid
    of the whole bracket (|rho| near 1, where phi_X spans hundreds of
    unit steps), it takes the unit step, which ``_log_trapezoid`` trims
    and refines.
    """
    z = float(x)
    if math.isnan(z):
        raise NonFiniteParameter("the CDF is undefined at x = NaN")
    if math.isinf(z):
        return 0.0 if z < 0 else 1.0
    s = p.sigma_y * math.sqrt(1.0 - p.rho ** 2)
    k = p.rho * p.sigma_y / p.sigma_x
    b = p.mu_y - k * p.mu_x
    # with z = 0 the conditional probability has no step near u = 0
    c0 = (abs(b) / s if z else 0.0) + _CDF_ARG_RANGE
    c1 = 1.0 / p.sigma_x + 2.0 * abs(k) / s
    upper = z > p.mu_x * p.mu_y + p.rho * p.sigma_x * p.sigma_y
    sign_phi = -_SIGN_U if upper else _SIGN_U

    def tau_of(w):  # inverse of w = (c0/c1) log(1 + e^(tau/c0))
        y = c1 * w / c0
        return c0 * (y + math.log(-math.expm1(-y)))

    # below |u| = eps_z the argument of Phi is beyond +-40 on both sides
    eps_z = min(1.0, abs(z) / (abs(b) + abs(k) + 40 * s)) if z else math.inf
    if z > 0 if upper else z < 0:
        eps = eps_z  # the integrated probability vanishes there
    else:
        # the integrand tends to phi_X(0) Phi(-+b/s) du/dt: stop 40 nats
        # below the scale on which phi_X and m(u) change
        eps = math.exp(-40) * min(eps_z, 1 / (c1 + abs(p.mu_x)
                                              / p.sigma_x ** 2))
    tau_lo, tau_hi = tau_of(eps), tau_of(abs(p.mu_x) + 40 * p.sigma_x)
    if tau_lo >= tau_hi:
        return 1.0 if upper else 0.0
    # tau = t - (c0 - 1) log(1 + e^(t_e - t)) has slope c0 well below t_e
    # and 1 above it; below |u| = e^-3 min(eps_z, 1/c1) the argument of
    # Phi is saturated and phi_X and m(u) change by less than e^-3
    t_e = tau_of(min(eps_z, 1 / c1) * math.exp(-3)) - math.log(c0) - 3
    # tau(t) <= min(t, c0 t - (c0 - 1) t_e), and tau(t) > t - 1 past t_e
    lo = max(tau_lo, (tau_lo + (c0 - 1) * t_e) / c0)
    hi = tau_hi + 1

    def log_integrand(t):
        tau = t - (c0 - 1) * np.logaddexp(0.0, t_e - t)
        u = (c0 / c1) * np.logaddexp(0.0, tau / c0) * _SIGN_U
        a = (u - p.mu_x) / p.sigma_x
        arg = sign_phi * (z / u - p.mu_y - k * (u - p.mu_x)) / s
        log_du_dt = (np.log1p((c0 - 1) * special.expit(t_e - t))
                     - np.logaddexp(0.0, -tau / c0))
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

    end = upper_end(_CDF_PEAK_GUESS)
    n = int(4 * (end - lo)) + 2
    if lo < end and n <= _CDF_SMALL_GRID:
        # a grid that reaches the guess sums to over e^guess / 4, so this
        # floor only stops a grid whose bracket the guess does not prove
        log_sum, _, q = _log_trapezoid(log_integrand, lo, end, n,
                                       "cdf integral", x, _CDF_PEAK_GUESS - 2)
        q_star = float(q.max())
        done = q_star >= _CDF_PEAK_GUESS
    else:
        t = np.linspace(lo, hi, _CDF_PROBE_NODES)
        q_star, done = float(log_integrand(t).max()), False
    if not done:
        end = upper_end(q_star)
        n = int(4 * (end - lo)) + 2
        if n > max(n_unit, _CDF_SMALL_GRID):
            n = int(end - lo) + 2
        # below -750 the probability underflows, resolved or not
        log_sum, _, _ = _log_trapezoid(log_integrand, lo, end, n,
                                       "cdf integral", x, log_norm - 750)
    tail = min(math.exp(log_sum - log_norm), 1.0)
    return 1.0 - tail if upper else tail


def _pdf_value(p: ProductNormalParams, x: float) -> float:
    """``pdf_product_series`` at x as a float, the integrand of
    ``cdf_product_series``: 0 at the log singularity x = 0 and past
    ``_tail_cutoff``, where the density is certifiably negligible."""
    if x == 0 or abs(x) >= _tail_cutoff(p):
        return 0.0
    return pdf_product_series(p, x).value


def _tail_cutoff(p: ProductNormalParams, log_eps: float = -60.0) -> float:
    """|x| beyond which the density is certifiably below exp(log_eps).

    The tails decay like exp(-|x|/((1+|rho|)s)); the cutoff absorbs the
    exponential prefactor and leaves 20 nats of slack, so truncating the
    quadrature there changes the mass by far less than any tolerance in
    use.
    """
    log_c = (p.r_x ** 2 + p.r_y ** 2 + 2 * abs(p.rho)
             * (1 + abs(p.r_x * p.r_y))) / (2 * (1 - p.rho ** 2))
    return (1 + abs(p.rho)) * p.s * (-log_eps + log_c + 20.0)


def cdf_product_series(p: ProductNormalParams, x: float) -> float:
    """CDF of Z by adaptive quadrature of ``pdf_product_series``, the
    Bessel series or, where it fails, the integral.

    The reference that checks the series density has unit mass;
    ``cdf_product`` is faster and does not depend on the series.  The
    integrable log singularity at 0 is handled by splitting the
    integration range there; the infinite range is truncated where the
    density provably underflows double precision.
    """
    quad_tol = 1e-9
    from scipy import integrate  # its only user; keeps it off import

    def f(t):
        return _pdf_value(p, t)

    lo = -_tail_cutoff(p)
    pieces = []
    x = float(x)
    if not math.isfinite(x):  # 0 or 1, or NonFiniteParameter at NaN
        return cdf_product(p, x)
    if x <= lo:
        return 0.0
    if x <= 0:
        pieces.append((lo, x))
    else:
        pieces.append((lo, 0.0))
        pieces.append((0.0, min(x, -lo)))
    total = 0.0
    err = 0.0
    for a, b in pieces:
        if a == b:
            continue
        val, abserr = integrate.quad(f, a, b, limit=400,
                                     epsabs=quad_tol, epsrel=quad_tol)
        total += val
        err += abserr
    if err > 1e-6:
        raise NotConverged(f"cdf quadrature error estimate {err:.2e} too large")
    return min(max(total, 0.0), 1.0)
