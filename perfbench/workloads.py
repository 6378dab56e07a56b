"""The benchmark's three workloads as lists of operations, and the CLI
probe of traced runs.

An operation is one user-level library call (for the CLI probe, one
child process).  Its inputs come from the fixed catalogue seed and the
run seed sets their order.  Its check runs outside the timed region
against an oracle from ``oracles`` (for the CLI probe, against
in-process library values); oracle values are cached, so repeated passes
pay for each once.

Library functions are looked up on their modules at call time, so the
tracer's wrappers see every call the benchmark makes.
"""

from __future__ import annotations

import functools
import json
import math
import subprocess
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import numpy as np

from normprod import (bessel, charfn, density, mc, moments, opsearch, stein)
from normprod.params import MeanParams, validate

import oracles

# Gate tolerances, fixed from the accuracy each path claims (see
# perfbench/manifest.json); an op outside them fails.
# The double series keeps double precision through up to 16 nats of
# cancellation (e^16 u ~ 1e-9 per term), so its design bound at ~10^3
# terms is ~1e-6; criterion-5 asks 1e-10 of benign points.  Values
# between the two pass the gate and are listed as findings.
PDF_LOG_TOL = 1e-6        # |log f - log oracle|
PDF_LOG_CLAIM = 1e-10
CDF_ABS_TOL = 1e-8        # |F - oracle|; the library integrates to quad_tol 1e-9
ODE_ZERO_MEAN_TOL = 1e-8  # criterion-6, analytic derivatives
ODE_FD_TOL = 1e-4         # criterion-6, finite-difference derivatives
MC_Z_MAX = 4.0            # |estimate - exact| / stderr
CLOSED_FORM_REL = 1e-12   # criterion-4
CF_MOMENT_REL = 1e-6      # criterion-7, moments extracted from the CF
CF_ABS_TOL = 1e-12        # closed-form CF against the quadratic-form CF
CF_ODE_TOL = 1e-8         # criterion-7
SUBSTITUTION_TOL = 1e-9   # criterion-8
CLI_REL = 1e-15           # JSON round trip of in-process values

#: -log10 of a relative error is capped here: agreement to the last bit
#: (or exact rational equality) reads as 16 digits.
DIGITS_CAP = 16.0

SAMPLES = 10 ** 6
CLI_TIMEOUT_S = 60
CRITERION_3_FUNCTIONS = ("poly:0", "poly:1", "poly:2", "poly:3", "poly:4",
                         "gauss:0.25")

# Ten-point sweep of the unit-mass check (criterion-5): rho in
# {-0.9, 0, 0.9}, means in {0, +-1, +-3}, sigma in {0.5, 1, 2}.
NORMALIZATION_SWEEP = (
    (0, 0, 1, 1, 0.0), (0, 0, 0.5, 2, 0.9), (0, 0, 2, 0.5, -0.9),
    (1, 0, 1, 1, 0.0), (-1, 0, 0.5, 1, 0.0), (3, 0, 1, 2, 0.0),
    (-3, 0, 2, 1, 0.0), (1, 1, 1, 1, 0.0), (1, 1, 1, 1, 0.9),
    (-1, -1, 1, 1, 0.9),
)
ONE_ZERO = (1.0, 0.0, 1.0, 1.0, 0.0)


@dataclass(frozen=True)
class Check:
    ok: bool
    digits: float | None   # -log10 relative error, None if not a comparison
    detail: str = ""
    finding: bool = False  # passes the gate but misses the path's claim


@dataclass
class Op:
    kind: str
    label: str
    call: Callable[[], object]
    check: Callable[[object], Check]
    samples: int = 0                      # MC samples the op requests


def digits(rel_err: float) -> float:
    return DIGITS_CAP if rel_err <= 10 ** -DIGITS_CAP else -math.log10(rel_err)


def _within(err: float, tol: float, what: str) -> Check:
    return Check(err <= tol, digits(err), f"{what} error {err:.3g} (tol {tol:g})")


def _rel(a: float, b: float) -> float:
    return abs(a - b) / abs(b) if b else abs(a)


def _fmt(params) -> str:
    return "(" + ", ".join(f"{v:.6g}" for v in params) + ")"


def _mean_sd(params, n: int = 1) -> tuple[float, float]:
    mu_x, mu_y, sx, sy, rho = params
    mean = mu_x * mu_y + rho * sx * sy
    var = (sx * sy) ** 2 * (1 + rho ** 2) + (mu_x * sy) ** 2 \
        + (mu_y * sx) ** 2 + 2 * rho * mu_x * mu_y * sx * sy
    return mean, math.sqrt(var / n)


def _random_params(rng) -> tuple:
    return (float(rng.uniform(-3, 3)), float(rng.uniform(-3, 3)),
            float(rng.uniform(0.5, 2)), float(rng.uniform(0.5, 2)),
            float(rng.uniform(-0.9, 0.9)))


def _equal_ratio_params(rng) -> tuple:
    r = float(rng.uniform(-2, 2))
    sx, sy = (float(v) for v in rng.uniform(0.5, 2, 2))
    return (r * sx, r * sy, sx, sy, float(rng.uniform(-0.9, 0.9)))


def _dyadic_params(rng) -> tuple:
    """Means and rho on a quarter grid, sigmas powers of two: every
    parameter, ratio and (with n a power of two) s_n is exact in binary,
    so exact rational arithmetic stays small and the float coefficients
    of the known operators are exact."""
    return (float(rng.integers(-8, 9)) / 4, float(rng.integers(-8, 9)) / 4,
            float(rng.choice([0.5, 1.0, 2.0])), float(rng.choice([0.5, 1.0, 2.0])),
            float(rng.integers(-3, 4)) / 4)


def _mp(params, n: int = 1) -> MeanParams:
    return MeanParams(validate(*params), n)


# --------------------------------------------------------------- pdf --

def _pdf_check(oracle_log: Callable[[], float]):
    oracle_log = functools.cache(oracle_log)

    def check(dv) -> Check:
        if not (dv.converged and dv.sign == 1 and math.isfinite(dv.log_abs)):
            return Check(False, None, f"bad value {dv}")
        err = abs(dv.log_abs - oracle_log())
        return Check(err <= PDF_LOG_TOL, digits(err),
                     f"log error {err:.3g} (claim {PDF_LOG_CLAIM:g}, gate "
                     f"{PDF_LOG_TOL:g}), terms {dv.terms_used}",
                     finding=err > PDF_LOG_CLAIM)
    return check


def _pdf_product_op(params, x: float) -> Op:
    p = validate(*params)
    return Op("pdf_product", f"params={_fmt(params)} x={x:.6g}",
              lambda: density.pdf_product(p, x),
              _pdf_check(lambda: oracles.log_pdf_product(*params, x)))


def _pdf_single_op(params, x: float) -> Op:
    p = validate(*params)
    return Op("pdf_single_zero_mean", f"params={_fmt(params)} x={x:.6g}",
              lambda: density.pdf_single_zero_mean(p, x),
              _pdf_check(lambda: oracles.log_pdf_product(*params, x)))


def _pdf_zero_means_op(params, n: int, x: float) -> Op:
    mp = _mp(params, n)
    _, _, sx, sy, rho = params
    return Op("pdf_mean_zero_means", f"params={_fmt(params)} n={n} x={x:.6g}",
              lambda: density.pdf_mean_zero_means(mp, x),
              _pdf_check(lambda: oracles.log_pdf_mean_zero_means(
                  sx, sy, rho, n, x)))


def pdf_ops(rng) -> list[Op]:
    """Every third point, in generation order, of: 62 random sets x 13
    points with the double series, 8 one-zero-mean uncorrelated sets x 12
    points (x = 0 is the singular mean) with the single series, 8
    zero-mean sets x 13 points with the closed form.  Thinning the 1006
    points keeps every parameter set and leaves time for several passes."""
    ks = range(-6, 7)
    ops = []
    for _ in range(62):
        params = _random_params(rng)
        mean, sd = _mean_sd(params)
        ops += [_pdf_product_op(params, mean + k * sd) for k in ks]
    for _ in range(8):
        mu = float(rng.uniform(-3, 3))
        sx, sy = (float(v) for v in rng.uniform(0.5, 2, 2))
        params = (mu, 0.0, sx, sy, 0.0) if rng.random() < 0.5 \
            else (0.0, mu, sx, sy, 0.0)
        _, sd = _mean_sd(params)
        ops += [_pdf_single_op(params, k * sd) for k in ks if k]
    for _ in range(8):
        sx, sy = (float(v) for v in rng.uniform(0.5, 2, 2))
        params = (0.0, 0.0, sx, sy, float(rng.uniform(-0.9, 0.9)))
        n = int(rng.choice([2, 3, 5]))
        mean, sd = _mean_sd(params, n)
        ops += [_pdf_zero_means_op(params, n, mean + k * sd) for k in ks]
    return ops[::3]


def pdf_warmups() -> list[Op]:
    return [_pdf_product_op((1.0, 2.0, 1.0, 1.0, 0.3), 1.5),
            _pdf_single_op((1.2, 0.0, 0.9, 1.1, 0.0), 0.7),
            _pdf_zero_means_op((0.0, 0.0, 1.0, 1.0, 0.2), 3, 0.5)]


# ----------------------------------------------------------- cdf-ode --

def _cdf_op(params, x: float) -> Op:
    p = validate(*params)

    @functools.cache
    def oracle():
        return oracles.cdf_product(*params, x)

    def check(value) -> Check:
        err = abs(value - oracle())
        return Check(err <= CDF_ABS_TOL, digits(err / oracle()),
                     f"abs error {err:.3g} (tol {CDF_ABS_TOL:g})")
    return Op("cdf_product", f"params={_fmt(params)} x={x:.6g}",
              lambda: density.cdf_product(p, x), check)


def _ode_op(params, n: int, x: float, zero_means: bool) -> Op:
    mp = _mp(params, n)
    if zero_means:
        kind, tol = "ode_zero_mean", ODE_ZERO_MEAN_TOL
        oracle_log = functools.cache(lambda: oracles.log_pdf_mean_zero_means(
            params[2], params[3], params[4], n, x))

        def call():
            derivs = density.mean_zero_means_derivatives(mp, x)
            return derivs, density.ode_residual_density(mp, x, derivs)
    else:
        kind, tol = "ode_finite_difference", ODE_FD_TOL
        oracle_log = functools.cache(
            lambda: oracles.log_pdf_product(*params, x))

        def call():
            derivs = density.finite_difference_derivatives(mp.base, x)
            return derivs, density.ode_residual_density(mp, x, derivs)

    def check(result) -> Check:
        derivs, residual = result
        value_err = abs(math.log(derivs[0]) - oracle_log()) \
            if derivs[0] > 0 else math.inf
        ok = abs(residual) <= tol and value_err <= PDF_LOG_TOL
        return Check(ok, min(digits(abs(residual)), digits(value_err)),
                     f"residual {residual:.3g} (tol {tol:g}), "
                     f"log density error {value_err:.3g}")
    return Op(kind, f"params={_fmt(params)} n={n} x={x:g}", call, check)


def cdf_ode_ops() -> list[Op]:
    """cdf at one of mean - sd and mean + sd (alternating) for each of the
    10 sweep sets; the density ODE at the 5 general criterion-6 points
    and at 9 of the 27 zero-mean ones: every (n, rho) pair once, with x
    cycling through the three criterion x values.  That leaves time for
    several passes."""
    ops = []
    for i, params in enumerate(NORMALIZATION_SWEEP):
        params = tuple(float(v) for v in params)
        mean, sd = _mean_sd(params)
        ops.append(_cdf_op(params, mean + (sd if i % 2 else -sd)))
    pairs = [(n, rho) for n in (2, 3, 5) for rho in (0.0, 0.4, -0.4)]
    for i, (n, rho) in enumerate(pairs):
        x = (-1.5, 0.7, 2.0)[i % 3]
        ops.append(_ode_op((0.0, 0.0, 1.0, 1.0, rho), n, x, True))
    ops += [_ode_op((1.0, 0.5, 1.0, 1.0, 0.2), 1, x, False)
            for x in (-1.5, -0.6, 0.7, 1.0, 2.2)]
    return ops


def cdf_ode_warmups() -> list[Op]:
    return [_cdf_op((0.0, 0.0, 1.0, 1.0, 0.0), -1.0),
            _ode_op((0.0, 0.0, 1.0, 1.0, 0.0), 2, 0.7, True),
            _ode_op((1.0, 0.5, 1.0, 1.0, 0.2), 1, 0.7, False)]


# ------------------------------------------------------------ verify --

def _exact_moments_oracle(params, n, kmax, central):
    fn = oracles.central_moments_exact if central else oracles.raw_moments_exact
    return fn((*params, n), kmax)


def _stein_op(params, n, which: str, fspec: str, seed: int) -> Op:
    mp = _mp(params, n)
    cfg = mc.SamplerConfig(seed, SAMPLES)
    make_operator = stein.operator_a1 if which == "a1" else stein.operator_a2
    f = _test_function(fspec)

    def call():
        return mc.estimate_stein_expectation(mp, make_operator(mp), f, cfg)

    def check(est) -> Check:
        z = est.z_score()
        return Check(abs(z) <= MC_Z_MAX, None, f"z {z:.3g}")
    return Op("mc_stein", f"{which} f={fspec} params={_fmt(params)} n={n} "
              f"seed={seed}", call, check, samples=SAMPLES)


def _test_function(spec: str) -> stein.TestFunction:
    """The CLI's --f specs that the workloads use: poly:K, gauss:A, cos:T."""
    kind, _, arg = spec.partition(":")
    if kind == "poly":
        return stein.monomial(int(arg))
    if kind == "cos":
        return stein.cosine(float(arg))
    return stein.gaussian_bump(float(arg))


def _mc_cf_op(params, n, t: float, seed: int) -> Op:
    mp = _mp(params, n)
    cfg = mc.SamplerConfig(seed, SAMPLES)
    exact = functools.cache(lambda: complex(oracles.cf_mean(*params, n, t)[0]))

    def check(est) -> Check:
        z = max(abs(est.re.z_score(exact().real)),
                abs(est.im.z_score(exact().imag)))
        return Check(z <= MC_Z_MAX, None, f"max |z| {z:.3g}")
    return Op("mc_cf", f"t={t:.4g} params={_fmt(params)} n={n} seed={seed}",
              lambda: mc.estimate_cf(mp, t, cfg), check, samples=SAMPLES)


def _mc_moment_op(params, n, k: int, seed: int) -> Op:
    mp = _mp(params, n)
    cfg = mc.SamplerConfig(seed, SAMPLES)
    exact = functools.cache(
        lambda: float(_exact_moments_oracle(params, n, k, True)[k]))

    def check(est) -> Check:
        z = est.z_score(exact())
        return Check(abs(z) <= MC_Z_MAX, None, f"z {z:.3g}")
    return Op("mc_central_moment", f"k={k} params={_fmt(params)} n={n} "
              f"seed={seed}", lambda: mc.estimate_moment(mp, k, True, cfg),
              check, samples=SAMPLES)


def _exact_moments_op(params, n, kmax: int, central: bool) -> Op:
    mp = _mp(params, n)
    fn_name = "central_moments_exact" if central else "raw_moments_exact"
    oracle = functools.cache(
        lambda: _exact_moments_oracle(params, n, kmax, central))

    def check(values) -> Check:
        bad = [k for k, (a, b) in enumerate(zip(values, oracle())) if a != b]
        if len(values) != kmax + 1 or bad:
            return Check(False, None, f"mismatch at k={bad[:5]}")
        return Check(True, DIGITS_CAP, "exact")
    return Op("exact_moments", f"{fn_name} kmax={kmax} params={_fmt(params)} "
              f"n={n}", lambda: getattr(moments, fn_name)(mp, kmax), check)


def _known_moments_op() -> Op:
    """Criterion-1: raw moments 1, 0, 2, 0, 30, 0, 1140, 0, 80220."""
    mp = _mp(ONE_ZERO)
    known = [Fraction(v) for v in (1, 0, 2, 0, 30, 0, 1140, 0, 80220)]

    def check(values) -> Check:
        ok = list(values) == known
        return Check(ok, DIGITS_CAP if ok else None, "criterion-1 values")
    return Op("exact_moments", "raw_moments_exact kmax=8 params=(1, 0, 1, 1, 0)",
              lambda: moments.raw_moments_exact(mp, 8), check)


def _closed_form_op(params, n) -> Op:
    mp = _mp(params, n)

    @functools.cache
    def oracle():
        raw = oracles.raw_moments_exact((*params, n), 4)
        central = oracles.central_moments_exact((*params, n), 4)
        return [float(v) for v in raw[1:]] + [float(v) for v in central[2:]]

    def check(cf4) -> Check:
        got = list(cf4.raw) + list(cf4.central[1:])
        err = max(abs(g - w) / max(abs(w), 1e-12) for g, w in zip(got, oracle()))
        return _within(err, CLOSED_FORM_REL, "relative")
    return Op("closed_form", f"params={_fmt(params)} n={n}",
              lambda: moments.closed_form_four(mp), check)


def _annihilates(vector, params, n, rows: int, order: int) -> bool:
    """Whether the operator with coefficients ``vector`` (ordered a00, a10,
    a01, a11, ...) has E[A x^k] = 0 for k < rows under the oracle moments."""
    mu = oracles.raw_moments_exact((*params, n), rows + order)
    for k in range(rows):
        total = Fraction(0)
        for j in range(min(order, k) + 1):
            c = Fraction(math.factorial(k), math.factorial(k - j))
            total += c * (vector[2 * j] * mu[k - j] + vector[2 * j + 1] * mu[k - j + 1])
        if total != 0:
            return False
    return True


def _determinant_op() -> Op:
    mp = _mp(ONE_ZERO)

    def call():
        system = opsearch.moment_system(mp, opsearch.OperatorAnsatz(3), 8)
        return opsearch.determinant_exact(system)

    def check(det) -> Check:
        ok = det == 125411328000
        return Check(ok, DIGITS_CAP if ok else None, f"determinant {det}")
    return Op("opsearch", "determinant order=3 rows=8 params=(1, 0, 1, 1, 0)",
              call, check)


def _operator_exists_op(params, n, order: int, expect: bool,
                        known: Callable | None) -> Op:
    """Order search; a found nullspace must annihilate the oracle moments
    and contain the known operator's coefficients when one is given."""
    mp = _mp(params, n)
    rows = 2 * (order + 1) + opsearch.EXTRA_ROWS

    def check(result) -> Check:
        if result.exists != expect:
            return Check(False, None, f"exists={result.exists}")
        for vec in result.nullspace_basis:
            if not _annihilates(vec, params, n, rows, order):
                return Check(False, None, "nullspace vector fails the oracle")
        if known is not None:
            coeffs = [Fraction(v) for pair in known(mp).coeffs for v in pair]
            coeffs += [Fraction(0)] * (2 * (order + 1) - len(coeffs))
            if not _annihilates(coeffs, params, n, rows, order):
                return Check(False, None, "known operator fails the oracle")
            if not opsearch.in_span(coeffs, [list(v) for v in
                                             result.nullspace_basis]):
                return Check(False, None, "known operator not in the span")
        return Check(True, DIGITS_CAP, f"exists={result.exists}")
    return Op("opsearch", f"exists order={order} params={_fmt(params)} n={n}",
              lambda: opsearch.operator_exists(mp, order, rows), check)


def _cf_grid_op(params, n) -> Op:
    mp = _mp(params, n)
    ts = np.linspace(-40, 40, 4001)
    probe = slice(None, None, 40)
    oracle = functools.cache(lambda: oracles.cf_mean(*params, n, ts[probe]))

    def check(values) -> Check:
        if not np.all(np.abs(values) <= 1 + 1e-12):
            return Check(False, None, "|phi| > 1")
        err = float(np.max(np.abs(values[probe] - oracle())))
        return _within(err, CF_ABS_TOL, "absolute")
    return Op("cf_grid", f"4001 points params={_fmt(params)} n={n}",
              lambda: charfn.cf_grid(mp, ts), check)


def _cf_moments_op(params, n) -> Op:
    mp = _mp(params, n)
    oracle = functools.cache(lambda: [float(v) for v in
                                      oracles.raw_moments_exact((*params, n), 4)])

    def check(values) -> Check:
        err = max(abs(g - w) / max(abs(w), 1e-6) for g, w in zip(values, oracle()))
        return _within(err, CF_MOMENT_REL, "relative")
    return Op("cf_raw_moments", f"kmax=4 params={_fmt(params)} n={n}",
              lambda: charfn.cf_raw_moments(mp, 4), check)


def _cf_ode_op(params, n, t: float) -> Op:
    mp = _mp(params, n)

    def check(residual) -> Check:
        return _within(abs(residual), CF_ODE_TOL, "residual")
    return Op("cf_ode", f"t={t:.4g} params={_fmt(params)} n={n}",
              lambda: charfn.cf_ode_residual(mp, t), check)


def _substitution_op(params, n, fspec: str, x: float, which: str) -> Op:
    mp = _mp(params, n)
    f = _test_function(fspec)

    def check(residual) -> Check:
        return _within(residual, SUBSTITUTION_TOL, "residual")
    return Op("substitution", f"{which} f={fspec} x={x:.4g} "
              f"params={_fmt(params)} n={n}",
              lambda: stein.substitution_identity_check(mp, f, x, which), check)


def verify_ops(rng) -> list[Op]:
    """12 Monte Carlo ops at 10^6 samples (they set throughput and the
    tail) and 24 exact, closed-form and CF ops (they set the median)."""
    def n_choice():
        return int(rng.choice([1, 2, 5]))

    def seed():
        return int(rng.integers(2 ** 31))

    ops = []
    for _ in range(5):
        ops.append(_stein_op(_random_params(rng), n_choice(), "a1",
                             str(rng.choice(CRITERION_3_FUNCTIONS)), seed()))
    for _ in range(3):
        ops.append(_stein_op(_equal_ratio_params(rng), n_choice(), "a2",
                             str(rng.choice(CRITERION_3_FUNCTIONS)), seed()))
    for _ in range(2):
        ops.append(_mc_cf_op(_random_params(rng), n_choice(),
                             float(rng.uniform(0.2, 3.0)), seed()))
    for _ in range(2):
        ops.append(_mc_moment_op(_random_params(rng), n_choice(),
                                 int(rng.integers(2, 5)), seed()))

    ops.append(_known_moments_op())
    for central in (False, True):
        for _ in range(2):
            ops.append(_exact_moments_op(_dyadic_params(rng),
                                         int(rng.choice([1, 2, 4])), 40, central))
    for _ in range(3):
        ops.append(_closed_form_op(_random_params(rng), n_choice()))
    ops.append(_determinant_op())
    ops.append(_operator_exists_op(ONE_ZERO, 1, 3, False, None))
    ops.append(_operator_exists_op(ONE_ZERO, 1, 4, True, stein.operator_a1))
    ops.append(_operator_exists_op(_dyadic_params(rng), int(rng.choice([1, 2, 4])),
                                   4, True, stein.operator_a1))
    ops.append(_operator_exists_op(_dyadic_params(rng), int(rng.choice([1, 2, 4])),
                                   5, True, stein.operator_a1))
    ops.append(_cf_grid_op(_random_params(rng), n_choice()))
    for _ in range(3):
        ops.append(_cf_moments_op(_random_params(rng), n_choice()))
    for _ in range(3):
        params = (*_random_params(rng)[:2], 1.0, 1.0, float(rng.uniform(-0.9, 0.9)))
        ops.append(_cf_ode_op(params, n_choice(), float(rng.uniform(-5, 5))))
    for _ in range(2):
        ops.append(_substitution_op(
            _equal_ratio_params(rng), n_choice(),
            str(rng.choice(["poly:3", "poly:4", "gauss:0.5"])),
            float(rng.uniform(-3, 3)), "a1a2"))
    ops.append(_substitution_op(
        (0.0, 0.0, float(rng.uniform(0.5, 2)), float(rng.uniform(0.5, 2)),
         float(rng.uniform(-0.9, 0.9))), n_choice(), "gauss:0.5",
        float(rng.uniform(-3, 3)), "a3a4"))
    return ops


def verify_warmups() -> list[Op]:
    params = (0.8, -1.2, 1.1, 0.9, 0.3)
    unit = (0.8, -1.2, 1.0, 1.0, 0.3)
    equal = (0.5, 1.0, 1.0, 2.0, 0.4)
    return [_stein_op(params, 2, "a1", "poly:2", 1),
            _mc_cf_op(params, 2, 1.0, 2),
            _mc_moment_op(params, 2, 2, 3),
            _known_moments_op(),
            _exact_moments_op((0.25, 0.5, 1.0, 0.75, 0.25), 1, 40, True),
            _closed_form_op(params, 2),
            _determinant_op(),
            _cf_grid_op(params, 2),
            _cf_moments_op(params, 2),
            _cf_ode_op(unit, 2, 1.0),
            _substitution_op(equal, 2, "poly:3", 0.7, "a1a2")]


# --------------------------------------------------------------- cli --

def _param_flags(params, n: int = 1) -> list[str]:
    names = ("--mu-x", "--mu-y", "--sigma-x", "--sigma-y", "--rho")
    flags = [f"{name}={value!r}" for name, value in zip(names, params)]
    return flags + [f"--n={n}"]


def run_cli(args: list[str]) -> subprocess.CompletedProcess:
    """One ``python -m normprod.cli`` child, waited for before returning;
    it finds normprod through the PYTHONPATH run.py exports."""
    return subprocess.run([sys.executable, "-m", "normprod.cli", *args],
                          capture_output=True, text=True, timeout=CLI_TIMEOUT_S)


def _num(v):
    if isinstance(v, dict) and "num" in v:
        return Fraction(int(v["num"]), int(v["den"]))
    return v


def _compare(got, want) -> float:
    """Largest relative difference between parsed JSON and library values."""
    worst = 0.0
    for g, w in zip(got, want, strict=True):
        g = _num(g)
        if isinstance(w, Fraction) or isinstance(g, Fraction):
            worst = max(worst, 0.0 if Fraction(g) == Fraction(w) else math.inf)
        elif isinstance(w, bool):
            worst = max(worst, 0.0 if g == w else math.inf)
        else:
            worst = max(worst, _rel(float(g), float(w)))
    return worst


def _cli_op(subcommand: str, args: list[str], expected: Callable[[], list],
            extract: Callable[[dict], list]) -> Op:
    expected = functools.cache(expected)

    def check(res: subprocess.CompletedProcess) -> Check:
        if res.returncode != 0:
            return Check(False, None, f"exit {res.returncode}: {res.stderr[-300:]}")
        try:
            envelope = json.loads(res.stdout)
            err = _compare(extract(envelope["results"]), expected())
        except (ValueError, KeyError, TypeError) as exc:
            return Check(False, None, f"unparsable output: {exc!r}")
        return _within(err, CLI_REL, "relative")
    return Op("cli_" + subcommand, " ".join(args),
              lambda: run_cli(args + ["--json"]), check)


def cli_probe_ops() -> list[Op]:
    """One invocation of each of nine cheap subcommands, from their own
    catalogue stream."""
    rng = np.random.default_rng([CATALOGUE_SEED, CLI_STREAM])
    ops = []
    params, n = _dyadic_params(rng), int(rng.choice([1, 2, 4]))
    mp = _mp(params, n)
    ops.append(_cli_op(
        "moments_exact", ["moments", *_param_flags(params, n), "--kmax=8",
                          "--exact"],
        lambda mp=mp: moments.raw_moments_exact(mp, 8),
        lambda r: r["values"]))

    params, n = _random_params(rng), int(rng.choice([1, 2, 5]))
    mp = _mp(params, n)
    ops.append(_cli_op(
        "moments_closed_form", ["moments", *_param_flags(params, n),
                                "--kmax=4", "--closed-form"],
        lambda mp=mp: [*moments.raw_moments(mp, 4).values,
                       *moments.closed_form_four(mp).raw],
        lambda r: [*r["values"], *r["closed_form"]["raw"]]))

    params, n = _random_params(rng), int(rng.choice([1, 2, 5]))
    mp = _mp(params, n)
    ops.append(_cli_op(
        "operator", ["operator", *_param_flags(params, n), "--which=a1"],
        lambda mp=mp: [v for pair in stein.operator_a1(mp).coeffs for v in pair],
        lambda r: [v for c in r["coeffs"] for v in (c["a0"], c["a1"])]))

    params, n = _random_params(rng), int(rng.choice([1, 2, 5]))
    mp, x = _mp(params, n), float(rng.uniform(-3, 3))
    fspec = str(rng.choice(["poly:3", "gauss:0.5", "cos:1.5"]))
    ops.append(_cli_op(
        "stein_apply", ["stein-apply", *_param_flags(params, n),
                        "--which=a1", f"--f={fspec}", f"--x={x!r}"],
        lambda mp=mp, x=x, fspec=fspec: [float(stein.apply(
            stein.operator_a1(mp), _test_function(fspec), x))],
        lambda r: [r["value"]]))

    params = (*_random_params(rng)[:2], 1.0, 1.0, float(rng.uniform(-0.9, 0.9)))
    n = int(rng.choice([1, 2, 5]))
    mp = _mp(params, n)
    ts = np.linspace(-5, 5, 41)
    ops.append(_cli_op(
        "cf", ["cf", *_param_flags(params, n), "--grid=-5:5:41", "--check-ode"],
        lambda mp=mp, ts=ts: [v for t in ts for v in _cf_point(mp, t)],
        lambda r: [v for pt in r["points"] for v in
                   (pt["re"], pt["im"], pt["ode_residual"] <= CF_ODE_TOL)]))

    params, n = _dyadic_params(rng), int(rng.choice([1, 2, 4]))
    mp = _mp(params, n)
    ops.append(_cli_op(
        "opsearch", ["opsearch", *_param_flags(params, n), "--order=3",
                     "--rows=8", "--det"],
        lambda mp=mp: [opsearch.operator_exists(mp, 3, 8).exists,
                       opsearch.determinant_exact(opsearch.moment_system(
                           mp, opsearch.OperatorAnsatz(3), 8))],
        lambda r: [r["exists"], r["determinant"]]))

    nu, x = int(rng.integers(0, 12)), float(rng.uniform(0.1, 20))
    order = bessel.BesselOrder.from_nu(nu)
    ops.append(_cli_op(
        "besselk", ["besselk", f"--nu={nu}", f"--x={x!r}", "--scaled"],
        lambda order=order, x=x: [bessel.bessel_k(order, x, scaled=True)],
        lambda r: [r["value"]]))

    params = _random_params(rng)
    mean, sd = _mean_sd(params)
    x = mean + float(rng.uniform(-3, 3)) * sd
    p = validate(*params)
    ops.append(_cli_op(
        "pdf_x", ["pdf", *_param_flags(params), f"--x={x!r}"],
        lambda p=p, x=x: [density.pdf_product(p, x).log_abs],
        lambda r: [r["points"][0]["log_pdf"]]))

    params = _random_params(rng)
    mean, sd = _mean_sd(params)
    lo, hi = mean + 0.05 * sd, mean + 3 * sd
    grid = np.linspace(lo, hi, 21)
    p = validate(*params)
    ops.append(_cli_op(
        "pdf_grid", ["pdf", *_param_flags(params), f"--grid={lo!r}:{hi!r}:21"],
        lambda p=p, grid=grid: [density.pdf_product(p, float(x)).log_abs
                                for x in grid],
        lambda r: [pt["log_pdf"] for pt in r["points"]]))
    return ops


def _cf_point(mp, t):
    value = charfn.cf_mean(mp, float(t))
    return value.real, value.imag, True


# ---------------------------------------------------------- registry --

WORKLOADS = ("pdf", "cdf-ode", "verify")

#: Catalogue stream of the CLI probe (after the workloads' streams).
CLI_STREAM = 3

#: Fewest passes per run.  Every op is timed at least twice and keeps its
#: fastest time: the first pass also fills mpmath's caches, whose cost
#: would otherwise land on whichever op the seed puts first.
MIN_PASSES = 2


def tail_percentile(n_ops: int) -> int:
    """The op_ms_tail percentile: the highest whole percentile with at
    least ten of the ``n_ops`` operations above it."""
    return max(0, 100 * (n_ops - 10) // n_ops)


#: Seed of the operation catalogue.  It was fixed before the first run
#: and is never tuned: every run of a workload does the same operations,
#: so run-to-run spread is machine noise rather than a different mix of
#: slow inputs.  The run seed sets the order of the operations.
CATALOGUE_SEED = 240202264


def build(workload: str, seed: int) -> list[Op]:
    rng = np.random.default_rng([CATALOGUE_SEED, WORKLOADS.index(workload)])
    if workload == "pdf":
        ops = pdf_ops(rng)
    elif workload == "cdf-ode":
        ops = cdf_ode_ops()
    else:
        ops = verify_ops(rng)
    order = np.random.default_rng(seed).permutation(len(ops))
    return [ops[i] for i in order]


def warmups(workload: str) -> list[Op]:
    return {"pdf": pdf_warmups, "cdf-ode": cdf_ode_warmups,
            "verify": verify_warmups}[workload]()
