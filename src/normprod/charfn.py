"""Characteristic function of the product-normal mean and its first-order ODE.

The closed form is stated for unit variances; general variances follow
by rescaling t -> sigma_x*sigma_y*t with the mean-to-sd ratios in place
of the means.  The complex power uses the principal branch: the base
1 + (1-rho^2)t^2/n^2 - 2i rho t/n has strictly positive real part for
all real t, so the principal branch *is* the continuous branch with
value 1 at t = 0 and no branch cut is ever crossed.
"""

from __future__ import annotations

import math
import sys

import numpy as np

from .errors import NonFiniteParameter, NotConverged
from .params import MeanParams, int_at_least
from .stein import a1_table

#: Trapezoid nodes on the Cauchy circle of ``cf_raw_moments``.
CAUCHY_NODES = 128


def _closed_form(mp: MeanParams, u):
    """(c, d, num) of the unit-variance closed form phi = exp(num / (2d))
    d^(-n/2), num = -c u^2/n + 2i rx ry u, at u = s t, elementwise."""
    p, n = mp.base, mp.n
    mx, my, rho = p.r_x, p.r_y, p.rho
    c = mx * mx + my * my - 2 * rho * mx * my
    d = (1 - (1 + rho) * 1j * u / n) * (1 + (1 - rho) * 1j * u / n)
    return c, d, -c * u * u / n + 2 * mx * my * 1j * u


def _complex_or_array(values: np.ndarray):
    return complex(values) if values.ndim == 0 else values


def cf_mean(mp: MeanParams, t):
    """E[exp(i t mean)] at real t (complex t accepted for contour work):
    a Python complex at a scalar t, an array over an array of t.

    NonFiniteParameter at a non-finite t, NotConverged where the closed
    form overflows: from about |t| = 1e154 n / (sigma_x sigma_y), where
    |phi| < 1e-154 at real t, or at mean-to-sd ratios past about 1e154.
    """
    p = mp.base
    t = np.asarray(t)
    if not np.isfinite(t).all():
        raise NonFiniteParameter("t must be finite")
    if not math.isfinite(p.r_x * p.r_x + p.r_y * p.r_y):
        raise NotConverged("the closed form overflows at mean-to-sd ratios "
                           f"({p.r_x:.3g}, {p.r_y:.3g})")
    try:
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            _, d, num = _closed_form(mp, p.s * t)
            values = np.exp(num / (2 * d)) * np.exp(-0.5 * mp.n * np.log(d))
    except FloatingPointError:
        raise NotConverged("the closed form overflows at |t| = "
                           f"{np.max(np.abs(t)):.3g}") from None
    return _complex_or_array(values)


def cf_mean_derivative(mp: MeanParams, t):
    """d/dt of the characteristic function, analytically; raises as cf_mean."""
    return _cf_and_derivative(mp, t)[1]


def _cf_and_derivative(mp: MeanParams, t):
    """(phi, phi') at t: ``cf_mean`` times d/dt log phi = num'/(2d) - num
    d'/(2d^2) - (n/2) d'/d, for the closed form's exponent num/(2d) and
    power base d, as ratios to d so that nothing squares d."""
    phi = cf_mean(mp, t)  # first: it refuses where s t overflows
    p, n = mp.base, mp.n
    mx, my, rho, u = p.r_x, p.r_y, p.rho, p.s * np.asarray(t)
    c, d, num = _closed_form(mp, u)
    d_prime = 2 * (1 - rho ** 2) * u / n ** 2 - 2j * rho / n
    num_prime = -2 * c * u / n + 2j * mx * my
    log_d = 0.5 * (num_prime / d - (num / d + n) * (d_prime / d))
    return phi, _complex_or_array(phi * p.s * log_d)


def cf_grid(mp: MeanParams, ts: np.ndarray) -> np.ndarray:
    """Characteristic function over a float array of t.

    The principal branch is continuous there: the power's base has real
    part 1 + (1-rho^2) s^2 t^2 / n^2 >= 1.
    """
    return cf_mean(mp, np.asarray(ts, dtype=float))


def cf_ode_residual(mp: MeanParams, t):
    """Normalized residual of the CF's first-order ODE, phi' from the
    closed form: a float at a scalar t, an array over an array of t.
    Raises as cf_mean, and NotConverged where a term overflows."""
    t = np.asarray(t, dtype=float)
    phi, dphi = _cf_and_derivative(mp, t)
    table = a1_table(mp)
    try:
        with np.errstate(over="raise", invalid="raise"):
            # E[A e^(itZ)] = 0 with E[Z e^(itZ)] = -i phi'
            c0, c1 = (np.polyval(col[::-1], 1j * t) for col in zip(*table))
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
    then mu'_k = (-i)^k phi^(k)(0).  NotConverged where the circle's
    radius r, or r^kmax, leaves the double range.
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
    theta = 2 * np.pi * np.arange(CAUCHY_NODES) / CAUCHY_NODES
    z = radius * np.exp(1j * theta)
    vals = cf_mean(mp, z)
    out = []
    for k in range(kmax + 1):
        deriv = (math.factorial(k)
                 * np.mean(vals * np.exp(-1j * k * theta)) / radius ** k)
        out.append(((-1j) ** k * deriv).real)
    return out
