"""Independent oracles for the benchmark's correctness gate.

None of these call into normprod: each recomputes a quantity by a route
the library does not take, so a wrong library value cannot agree with
its own oracle by construction.

- Density of Z = XY: the positive integral f(z) = int phi2(u, z/u)/|u| du,
  with u = +-e^s and the trapezoid rule in s (the integrand decays
  double-exponentially in s, so the rule converges spectrally).
- Density of the zero-mean average: the normal variance-mean mixture
  Zbar | G ~ N(s rho G/n, s^2 (1-rho^2) G/n^2) with G ~ chi^2_n, again by
  the trapezoid rule in log G.
- CDF of Z: conditioning on X = u, F(z) = int phi_X(u) P(uY <= z | u) du.
- Characteristic function and cumulants: the generic formulas for a
  Gaussian quadratic form W'AW with A = [[0, 1/2], [1/2, 0]], the
  cumulants in exact rational arithmetic, so moments come out exact.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
from scipy import integrate, special

_LOG_2PI = math.log(2 * math.pi)


def _trapezoid_log(logf, lo: float, hi: float, step: float) -> float:
    """log of the trapezoid sum of exp(logf) over [lo, hi] (lo < hi)."""
    s = np.arange(lo, hi + step, step)
    return float(special.logsumexp(logf(s))) + math.log(step)


def _window(logf, lo: float = -40.0, hi: float = 40.0, drop: float = 80.0):
    """s-interval outside which exp(logf) is below its peak by > ``drop`` nats."""
    s = np.linspace(lo, hi, 4001)
    v = logf(s)
    keep = np.flatnonzero(v > v.max() - drop)
    width = s[1] - s[0]
    return s[keep[0]] - width, s[keep[-1]] + width


def log_pdf_product(mu_x, mu_y, sigma_x, sigma_y, rho, z: float) -> float:
    """log density of XY at z != 0 by the positive integral."""
    om = 1.0 - rho * rho
    log_norm = -(_LOG_2PI + math.log(sigma_x * sigma_y) + 0.5 * math.log(om))
    parts = []
    for sign in (1.0, -1.0):
        def logf(s, sign=sign):
            u = sign * np.exp(s)
            a = (u - mu_x) / sigma_x
            b = (z / u - mu_y) / sigma_y
            return log_norm - (a * a - 2 * rho * a * b + b * b) / (2 * om)
        lo, hi = _window(logf)
        parts.append(_trapezoid_log(logf, lo, hi, (hi - lo) / 4000))
    return float(np.logaddexp(*parts))


def log_pdf_mean_zero_means(sigma_x, sigma_y, rho, n: int, z: float) -> float:
    """log density of the mean of n zero-mean products, by the chi^2 mixture."""
    s = sigma_x * sigma_y
    om = 1.0 - rho * rho
    log_chi_norm = -(n / 2) * math.log(2) - math.lgamma(n / 2)

    def logf(t):
        g = np.exp(t)
        mean = s * rho * g / n
        var = s * s * om * g / (n * n)
        # d(chi^2 density) = g^(n/2-1) e^(-g/2) dg and dg = g dt
        return (log_chi_norm + (n / 2) * t - g / 2
                - 0.5 * (_LOG_2PI + np.log(var)) - (z - mean) ** 2 / (2 * var))

    lo, hi = _window(logf, -60.0, 8.0)
    return _trapezoid_log(logf, lo, hi, (hi - lo) / 4000)


def cdf_product(mu_x, mu_y, sigma_x, sigma_y, rho, z: float) -> float:
    """P(XY <= z) by integrating the conditional law of Y given X = u."""
    m_slope = rho * sigma_y / sigma_x
    sd = sigma_y * math.sqrt(1.0 - rho * rho)

    def conditional(u):
        if u == 0.0:
            return 1.0 if z >= 0 else 0.0
        m = mu_y + m_slope * (u - mu_x)
        arg = (z / u - m) / sd
        # u > 0: P(Y <= z/u);  u < 0: P(Y >= z/u)
        return special.ndtr(arg if u > 0 else -arg)

    def integrand(u):
        return (math.exp(-0.5 * ((u - mu_x) / sigma_x) ** 2)
                / (sigma_x * math.sqrt(2 * math.pi)) * conditional(u))

    lo, hi = mu_x - 40 * sigma_x, mu_x + 40 * sigma_x
    total = 0.0
    for a, b in ((lo, min(0.0, hi)), (max(0.0, lo), hi)):
        if a < b:
            total += integrate.quad(integrand, a, b, limit=500,
                                    epsabs=1e-13, epsrel=1e-12,
                                    points=[mu_x] if a < mu_x < b else None)[0]
    return total


def _quadratic_form(mu_x, mu_y, sigma_x, sigma_y, rho):
    mean = np.array([mu_x, mu_y])
    cov = np.array([[sigma_x ** 2, rho * sigma_x * sigma_y],
                    [rho * sigma_x * sigma_y, sigma_y ** 2]])
    form = np.array([[0.0, 0.5], [0.5, 0.0]])
    return mean, cov, form


def cf_mean(mu_x, mu_y, sigma_x, sigma_y, rho, n: int, t) -> np.ndarray:
    """E[exp(i t Zbar_n)] for real t, from the quadratic-form formula
    E[e^{iuW'AW}] = det(I - 2iuA S)^(-1/2) exp(iu m'(I - 2iuAS)^(-1) A m)."""
    mean, cov, form = _quadratic_form(mu_x, mu_y, sigma_x, sigma_y, rho)
    lam = np.linalg.eigvals(form @ cov).real
    t = np.atleast_1d(np.asarray(t, dtype=float))
    out = np.empty(t.shape, dtype=complex)
    for i, tv in enumerate(t):
        u = tv / n
        mat = np.eye(2) - 2j * u * cov @ form
        quad = mean @ form @ np.linalg.solve(mat, mean)
        # each factor 1 - 2iu lam has real part 1: principal roots are continuous
        log_phi = 1j * u * quad - 0.5 * np.sum(np.log(1 - 2j * u * lam))
        out[i] = np.exp(n * log_phi)
    return out


def cumulants_exact(mu_x, mu_y, sigma_x, sigma_y, rho, n: int,
                    kmax: int) -> list[Fraction]:
    """Exact cumulants kappa_1..kappa_kmax of the mean of n copies of XY.

    For W ~ N(m, S) and symmetric A, kappa_k(W'AW) =
    2^(k-1) (k-1)! [tr((AS)^k) + k m'A(SA)^(k-1) m]; the mean of n iid
    copies has kappa_k / n^(k-1).
    """
    mx, my, sx, sy, r = map(Fraction, (mu_x, mu_y, sigma_x, sigma_y, rho))
    cov = [[sx * sx, r * sx * sy], [r * sx * sy, sy * sy]]
    half = Fraction(1, 2)
    form = [[Fraction(0), half], [half, Fraction(0)]]
    m = [mx, my]

    def mul(a, b):
        return [[a[i][0] * b[0][j] + a[i][1] * b[1][j] for j in range(2)]
                for i in range(2)]

    a_s = mul(form, cov)
    s_a = mul(cov, form)
    am = [form[0][0] * m[0] + form[0][1] * m[1],
          form[1][0] * m[0] + form[1][1] * m[1]]
    power = [[Fraction(1), Fraction(0)], [Fraction(0), Fraction(1)]]  # (SA)^(k-1)
    a_s_pow = a_s                                                     # (AS)^k
    out = []
    for k in range(1, kmax + 1):
        trace = a_s_pow[0][0] + a_s_pow[1][1]
        v = [power[0][0] * m[0] + power[0][1] * m[1],
             power[1][0] * m[0] + power[1][1] * m[1]]
        quad = am[0] * v[0] + am[1] * v[1]
        kappa = 2 ** (k - 1) * math.factorial(k - 1) * (trace + k * quad)
        out.append(kappa / Fraction(n) ** (k - 1))
        power = mul(power, s_a)
        a_s_pow = mul(a_s_pow, a_s)
    return out


def _moments(kappa: list[Fraction]) -> list[Fraction]:
    """Moments 0..len(kappa) from cumulants: m_k = sum C(k-1, j-1) kappa_j m_(k-j)."""
    mom = [Fraction(1)]
    for k in range(1, len(kappa) + 1):
        mom.append(sum(math.comb(k - 1, j - 1) * kappa[j - 1] * mom[k - j]
                       for j in range(1, k + 1)))
    return mom


def raw_moments_exact(params, kmax: int) -> list[Fraction]:
    """E[Zbar^k], k = 0..kmax, from the exact cumulants."""
    return _moments(cumulants_exact(*params, kmax))


def central_moments_exact(params, kmax: int) -> list[Fraction]:
    """E[(Zbar - E Zbar)^k], k = 0..kmax: the cumulants without kappa_1."""
    kappa = cumulants_exact(*params, kmax)
    return _moments([Fraction(0)] + kappa[1:])
