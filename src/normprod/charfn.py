"""Characteristic function of the product-normal mean and its first-order ODE.

The closed form is stated for unit variances; general variances follow
by rescaling t -> sigma_x*sigma_y*t with the mean-to-sd ratios in place
of the means.  With w = s t / n it is phi = exp((n/2) N/D) D^(-n/2), N =
2i rx ry w - c w^2 and c = rx^2 + ry^2 - 2 rho rx ry, where D = f1 f2 is
the product of the two linear factors f1 = 1 - i(1+rho)w and f2 = 1 +
i(1-rho)w.

At real t both factors have real part 1, and D = 1 + e - 2i rho w with
e = (1-rho^2) w^2 >= 0.  So the sum of the factors' principal logs is
log D = log1p(e) + log1p((Im D/Re D)^2)/2 + i arctan(Im D/Re D), and
log phi = (n/2)(Q - log D) = X + iY, Q = N/D, is formed in real
arithmetic: phi = e^X (cos Y + i sin Y) costs one real exp and a tangent,
with no complex exp or log.  No factor's modulus is squared: |f1|^2 ~
(1+rho)^2 w^2 would overflow where e and so Re D are still doubles.

Complex t (Cauchy circles, contours) takes the complex form exp((n/2)
N/D) D^(-n/2) with numpy's complex exp and principal log; Re D > 0 on
the strip -n/((1+rho)s) < Im t < n/((1-rho)s) between the poles, so
there the principal log of D is the sum of the factors' principal logs.
"""

from __future__ import annotations

import math
import sys

import numpy as np

from .errors import NonFiniteParameter, NotConverged
from .params import MeanParams, int_at_least
from .stein import _cos_sin_from_half, a1_table

#: Trapezoid nodes on the Cauchy circle of ``cf_raw_moments``.
CAUCHY_NODES = 128
_UNIT_CIRCLE = np.exp(2j * np.pi * np.arange(CAUCHY_NODES) / CAUCHY_NODES)


def _closed_form(mp: MeanParams, t, parts: bool = False):
    """phi at an array t, real or complex, elementwise; with ``parts``,
    (phi, w, s/D, Q), the pieces its derivative reuses."""
    p, n = mp.base, mp.n
    t = np.asarray(t)
    t_max = float(np.maximum.reduce(np.abs(t), axis=None, initial=0.0))
    if not math.isfinite(t_max):
        raise NonFiniteParameter("t must be finite")
    mx, my, rho = p.r_x, p.r_y, p.rho
    if not math.isfinite(mx * mx + my * my):
        raise NotConverged("the closed form overflows at mean-to-sd ratios "
                           f"({mx:.3g}, {my:.3g})")
    c, m = mx * mx + my * my - 2 * rho * mx * my, mx * my
    # at real t, the complex form's range in u = s t: its terms c u^2,
    # 2 rx ry u and 2 Re D ~ 2 (1-rho^2) (u/n)^2 are doubles (past it |phi|
    # is below about 1e-154); complex t meets it in the complex form
    u_max = p.s * t_max
    complex_t = t.dtype.kind == "c"
    if not (complex_t or (
            c * u_max * u_max < math.inf and 2 * abs(m) * u_max < math.inf
            and 2 * ((1 + rho) * u_max / n) * ((1 - rho) * u_max / n) < math.inf)):
        raise NotConverged(f"the closed form overflows at |t| = {t_max:.3g}")
    form = _complex_form if complex_t else _real_form
    try:
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            return form(mp, t, c, m, parts)
    except FloatingPointError:
        raise NotConverged(f"the closed form overflows at |t| = {t_max:.3g}") from None


def _real_form(mp: MeanParams, t: np.ndarray, c: float, m: float, parts: bool):
    """The closed form at a float array t, log phi = X + iY in real
    arithmetic."""
    p, n = mp.base, mp.n
    # augmented operators work in place on arrays and rebind numpy
    # scalars, so one sequence serves both
    w = t * (p.s / n)
    # D = 1 + e - 2i rho w, e = (1-rho^2) w^2, and N = -c w^2 + 2i m w
    e = w * ((1 + p.rho) * (1 - p.rho))
    e *= w
    nr = w * -c
    nr *= w
    ni = w * (2 * m)
    im_d = w * (-2 * p.rho)
    re_d = e + 1
    # Q = N/D by Smith's rule, over dd = Re D + r Im D = |D|^2 / Re D:
    # |D|^2 would overflow where Re D does not
    r = im_d / re_d
    dd = im_d * r
    dd += re_d
    qr = ni * r
    qr += nr
    qr /= dd
    qi = ni - nr * r
    qi /= dd
    # log D = log1p(e) + log1p(r^2)/2 + i arctan(r)
    x = np.log1p(e)
    x += 0.5 * np.log1p(r * r)
    x -= qr
    x *= -0.5 * n
    half_y = np.arctan(r, out=np.empty(t.shape))
    half_y -= qi
    half_y *= -0.25 * n
    half_y += 0.0  # Y = +0 at t = 0, so that phi(0) = 1 + 0j
    y_max = 2 * max(half_y.max(initial=0.0), -half_y.min(initial=0.0))
    if math.ulp(y_max) > 1e-6:  # from |Y| = 2^33; see cf_mean
        raise NotConverged(f"the closed form's phase reaches {y_max:.3g} rad, "
                           "where an ulp exceeds 1e-6 rad")
    cos, sin = _cos_sin_from_half(half_y, np.empty((2, t.size)))
    rad = np.exp(x)
    phi = np.empty(t.shape, dtype=complex)
    np.multiply(rad, cos, out=phi.real)
    np.multiply(rad, sin, out=phi.imag)
    if not parts:
        return phi
    return phi, w, (1 - 1j * r) * (p.s / dd), qr + 1j * qi


def _complex_form(mp: MeanParams, t: np.ndarray, c: float, m: float, parts: bool):
    """The closed form at a complex array t, with complex exp and log."""
    p, n = mp.base, mp.n
    u = p.s * t
    d = (1 - (1 + p.rho) * 1j * u / n) * (1 + (1 - p.rho) * 1j * u / n)
    num = -c * u * u / n + 2 * m * 1j * u
    phi = np.exp(num / (2 * d)) * np.exp(-0.5 * n * np.log(d))
    if not parts:
        return phi
    return phi, u / n, p.s / d, num / (n * d)


def _complex_or_array(values: np.ndarray):
    return complex(values) if values.ndim == 0 else values


def cf_mean(mp: MeanParams, t):
    """E[exp(i t mean)] at real t (complex t accepted for contour work):
    a Python complex at a scalar t, an array over an array of t.

    NonFiniteParameter at a non-finite t; NotConverged where the complex
    form overflows (at real t, where a term in u = s t, c u^2, 2 rx ry u or
    2 (1-rho^2)(u/n)^2 with c = rx^2 + ry^2 - 2 rho rx ry, leaves the
    double range): from about |t| = 1e154 n / (sigma_x sigma_y), where
    |phi| < 1e-154 at real t, or at mean-to-sd ratios past about 1e154.
    At real t also where an ulp of the largest unwrapped phase |Y| = |Im
    log phi| exceeds 1e-6 rad, which happens from |Y| = 2^33 = 8.6e9 on.
    """
    return _complex_or_array(_closed_form(mp, t))


def cf_mean_derivative(mp: MeanParams, t):
    """d/dt of the characteristic function, analytically; raises as cf_mean."""
    return _cf_and_derivative(mp, t)[1]


def _cf_and_derivative(mp: MeanParams, t):
    """(phi, phi') at t: phi times d/dt log phi = (s/D)[i rx ry - c w + i(1
    + Q)(rho + i(1-rho^2) w)], the derivative of (n/2)(Q - log D) in w = s
    t / n, from the closed form's pieces; at real t s/D = s (1 - i Im D /
    Re D) / dd, so that nothing squares D."""
    phi, w, s_over_d, q = _closed_form(mp, t, parts=True)
    p = mp.base
    mx, my, rho = p.r_x, p.r_y, p.rho
    c = mx * mx + my * my - 2 * rho * mx * my
    dlog = 1j * mx * my - c * w + 1j * (1 + q) * (rho + 1j * (1 - rho ** 2) * w)
    dlog *= s_over_d
    return _complex_or_array(phi), _complex_or_array(phi * dlog)


def cf_grid(mp: MeanParams, ts: np.ndarray) -> np.ndarray:
    """Characteristic function over a float array of t."""
    return cf_mean(mp, np.asarray(ts, dtype=float))


def cf_ode_residual(mp: MeanParams, t):
    """Normalized residual of the CF's first-order ODE, phi' from the
    closed form: a float at a scalar t, an array over an array of t.
    Raises as cf_mean, and NotConverged where a term overflows."""
    t = np.asarray(t, dtype=float)
    phi, dphi = _cf_and_derivative(mp, t)
    z, c0, c1 = 1j * t, 0.0, 0.0
    try:
        with np.errstate(over="raise", invalid="raise"):
            # E[A e^(itZ)] = 0 with E[Z e^(itZ)] = -i phi', the table's
            # polynomials in it by Horner's rule
            for a0, a1 in reversed(a1_table(mp)):
                c0, c1 = c0 * z + a0, c1 * z + a1
            t1, t2 = -1j * c1 * dphi, c0 * phi
            scale = np.maximum(abs(t1), abs(t2))
            residual = np.divide(abs(t1 + t2), scale,
                                 out=np.zeros_like(scale), where=scale > 0)
    except FloatingPointError:
        raise NotConverged("the ODE's terms overflow at |t| = "
                           f"{np.max(np.abs(t)):.3g}") from None
    return float(residual) if residual.ndim == 0 else residual


def cf_raw_moments(mp: MeanParams, kmax: int) -> list[float]:
    """Raw moments k = 0..kmax extracted from the characteristic function.

    Uses the Cauchy integral for the derivatives at 0 on a circle inside
    the nearest singularity (trapezoid rule is spectrally accurate there),
    its sums for every order from one FFT of the node values, then mu'_k =
    (-i)^k phi^(k)(0).  NotConverged where the circle's radius r, or
    r^kmax, leaves the double range.
    """
    kmax = int_at_least("kmax", kmax, 0)
    p = mp.base
    n = mp.n
    # poles of the closed form sit at t = -i n/((1+rho) s) and t = i n/((1-rho) s)
    radius = 0.2 * n / ((1 + abs(p.rho)) * p.s) if p.s else math.inf
    try:
        in_range = sys.float_info.min <= radius ** max(kmax, 1) < math.inf
    except OverflowError:
        in_range = False
    if not in_range:
        raise NotConverged(f"the Cauchy circle's radius {radius:.3g} to the "
                           f"power {kmax} leaves the double range")
    # sum_j phi(z_j) e^(-i k theta_j) for each k, aliased to k mod the nodes
    sums = np.fft.fft(cf_mean(mp, radius * _UNIT_CIRCLE)).tolist()
    return [((-1j) ** k * math.factorial(k) * sums[k % CAUCHY_NODES]
             / (CAUCHY_NODES * radius ** k)).real for k in range(kmax + 1)]
