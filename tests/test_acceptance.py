"""End-to-end acceptance criteria.

Each test prints one PASS line with its measured runtime; tolerances and
runtime budgets are asserted, so a budget overrun is a test failure.
"""

import math
import time
from fractions import Fraction

import numpy as np
import pytest

from normprod import (
    MeanParams,
    OperatorAnsatz,
    SamplerConfig,
    SeriesControl,
    cf_grid,
    cf_mean,
    cf_ode_residual,
    cf_raw_moments,
    central_moments_exact,
    closed_form_four,
    determinant_exact,
    estimate_cf,
    estimate_stein_expectation,
    in_span,
    mean_zero_means_derivatives,
    moment_system,
    ode_residual_density,
    operator_exists,
    pdf_mean_zero_means,
    pdf_product,
    pdf_product_derivatives,
    pdf_single_zero_mean,
    raw_moments,
    raw_moments_exact,
    validate,
)
from normprod import stein
from conftest import random_equal_ratio_params, random_mean_params

ONE_ZERO = MeanParams(validate(1, 0, 1, 1, 0), 1)


class Budget:
    def __init__(self, name, seconds):
        self.name, self.seconds = name, seconds

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, *_):
        self.elapsed = time.perf_counter() - self.start
        if exc_type is None:
            assert self.elapsed < self.seconds, \
                f"{self.name}: runtime {self.elapsed:.3f}s over budget"
            print(f"PASS {self.name} ({self.elapsed * 1000:.1f} ms, "
                  f"budget {self.seconds * 1000:.0f} ms)")
        return False


def test_criterion_1_recursion_moments():
    expected = (1, 0, 2, 0, 30, 0, 1140, 0, 80220)
    raw_moments(ONE_ZERO, 8)  # warm-up outside the timed region
    with Budget("criterion-1 recursion moments", 0.001):
        exact = raw_moments_exact(ONE_ZERO, 8)
        floating = raw_moments(ONE_ZERO, 8).values
    assert tuple(exact) == tuple(Fraction(v) for v in expected)
    for got, want in zip(floating, expected):
        assert got == pytest.approx(want, rel=1e-12)


def test_criterion_2_determinant_and_order_search():
    with Budget("criterion-2 determinant / order search", 0.1):
        system = moment_system(ONE_ZERO, OperatorAnsatz(3), 8)
        det = determinant_exact(system)
        order3 = operator_exists(ONE_ZERO, 3, 8)
        order4 = operator_exists(ONE_ZERO, 4)
    assert det == 125411328000
    assert not order3.exists
    assert order4.exists
    known = [v for pair in stein.operator_a1(ONE_ZERO).coeffs for v in pair]
    assert in_span(known, [list(v) for v in order4.nullspace_basis])


def test_criterion_3_stein_characterisation_necessity():
    rng = np.random.default_rng(314159)
    cfg = SamplerConfig(seed=2718, count=10 ** 6)
    fns = [stein.monomial(k) for k in range(5)] + [stein.gaussian_bump(0.25)]
    with Budget("criterion-3 empirical characterisation", 60.0):
        for _ in range(10):
            mp = random_mean_params(rng)
            spec = stein.operator_a1(mp)
            for f in fns:
                est = estimate_stein_expectation(mp, spec, f, cfg)
                assert abs(est.z_score()) <= 4, (mp, f.label, est)
        for _ in range(5):
            mp = random_equal_ratio_params(rng)
            spec = stein.operator_a2(mp)
            for f in fns:
                est = estimate_stein_expectation(mp, spec, f, cfg)
                assert abs(est.z_score()) <= 4, (mp, f.label, est)


def displayed_product_kurtosis(p):
    """The corrected kurtosis of Z as displayed, an independent oracle."""
    rx, ry, rho = p.r_x, p.r_y, p.rho
    denom = (rx ** 2 + ry ** 2 + 2 * rho * rx * ry + rho ** 2 + 1) ** 2
    top1 = 3 * (rx ** 4 + ry ** 4 + 4 * rho * rx * ry * (rx ** 2 + ry ** 2)
                + 2 * (2 * rho ** 2 + 1) * rx ** 2 * ry ** 2)
    top2 = 3 * (2 * (7 * rho ** 2 + 3) * (rx ** 2 + ry ** 2)
                + 4 * rho * (3 * rho ** 2 + 7) * rx * ry
                + 3 * rho ** 4 + 14 * rho ** 2 + 3)
    return (top1 + top2) / denom


def test_criterion_4_closed_forms_match_recursion():
    rng = np.random.default_rng(6283)
    with Budget("criterion-4 closed-form agreement", 1.0):
        for _ in range(200):
            mp = random_mean_params(rng)
            cf = closed_form_four(mp)
            raw = [float(v) for v in raw_moments_exact(mp, 4)]
            central = [float(v) for v in central_moments_exact(mp, 4)]
            for k in range(4):
                assert cf.raw[k] == pytest.approx(raw[k + 1], rel=1e-12,
                                                  abs=1e-12)
                assert cf.central[k] == pytest.approx(central[k + 1],
                                                      rel=1e-12, abs=1e-12)
        for _ in range(50):
            mp = MeanParams(random_mean_params(rng).base, 1)
            assert closed_form_four(mp).kurtosis == pytest.approx(
                displayed_product_kurtosis(mp.base), rel=1e-12)


def test_criterion_5_pdf_consistency():
    from scipy import integrate
    from normprod.density import _pdf_value, _tail_cutoff
    from conftest import NORMALIZATION_SWEEP
    grid = np.concatenate([np.linspace(-4, -0.2, 20), np.linspace(0.2, 4, 21)])
    with Budget("criterion-5 pdf consistency", 10.0):
        # integral vs single series on the one-zero-mean uncorrelated case
        p = validate(1.2, 0.0, 0.9, 1.1, 0.0)
        for x in grid:
            assert pdf_product(p, x).value == pytest.approx(
                pdf_single_zero_mean(p, x).value, rel=1e-10)
        # integral vs the zero-mean closed form at n = 1
        pz = validate(0.0, 0.0, 1.1, 0.8, 0.3)
        for x in grid:
            assert pdf_product(pz, x).value == pytest.approx(
                pdf_mean_zero_means(MeanParams(pz, 1), x).value, rel=1e-10)
        # unit mass across the 10-point parameter sweep
        ctl = SeriesControl(rel_tol=1e-12, max_outer=1500)
        for tup in NORMALIZATION_SWEEP:
            q = validate(*tup)
            cut = _tail_cutoff(q, log_eps=-35.0)

            def f(t):
                return _pdf_value(q, t, ctl)

            mass = (integrate.quad(f, -cut, 0, limit=200, epsabs=1e-7)[0]
                    + integrate.quad(f, 0, cut, limit=200, epsabs=1e-7)[0])
            assert mass == pytest.approx(1.0, abs=1e-6)


def test_criterion_6_density_ode():
    with Budget("criterion-6 density ODE residuals", 5.0):
        for n in (2, 3, 5):
            for rho in (0.0, 0.4, -0.4):
                mp = MeanParams(validate(0, 0, 1, 1, rho), n)
                for x in (-1.5, 0.7, 2.0):
                    derivs = mean_zero_means_derivatives(mp, x)
                    assert abs(ode_residual_density(mp, x, derivs)) <= 1e-8
        mp = MeanParams(validate(1.0, 0.5, 1, 1, 0.2), 1)
        for x in (-1.5, -0.6, 0.7, 1.0, 2.2):
            derivs = pdf_product_derivatives(mp.base, x)
            assert abs(ode_residual_density(mp, x, derivs)) <= 1e-8


def test_criterion_7_characteristic_function():
    rng = np.random.default_rng(2997)
    with Budget("criterion-7 characteristic function", 30.0):
        dense = np.linspace(-40, 40, 4001)
        for _ in range(5):
            mp = random_mean_params(rng)
            assert cf_mean(mp, 0.0) == 1.0 + 0.0j
            assert np.all(np.abs(cf_grid(mp, dense)) <= 1 + 1e-12)
        for _ in range(100):
            mp = random_mean_params(rng, unit_sigma=True)
            t = float(rng.uniform(-5, 5))
            assert abs(cf_ode_residual(mp, t)) <= 1e-8
        for _ in range(5):
            mp = random_mean_params(rng)
            got = cf_raw_moments(mp, 4)
            expected = [float(v) for v in raw_moments_exact(mp, 4)]
            for g, e in zip(got, expected):
                assert g == pytest.approx(e, rel=1e-6, abs=1e-6)
        mp = MeanParams(validate(0.7, -1.1, 1.2, 0.9, 0.35), 2)
        cfg = SamplerConfig(seed=424242, count=10 ** 7)
        for t in (0.25, 0.8, 1.7, 3.1, 6.4):
            est = estimate_cf(mp, t, cfg)
            exact = cf_mean(mp, t)
            assert abs(est.re.mean - exact.real) <= 4 * est.re.stderr
            assert abs(est.im.mean - exact.imag) <= 4 * est.im.stderr


def test_criterion_8_substitution_identities():
    rng = np.random.default_rng(1729)
    fns = [stein.monomial(k) for k in range(5)] + \
        [stein.exponential(0.3), stein.gaussian_bump(0.5)]
    with Budget("criterion-8 substitution identities", 1.0):
        for _ in range(100):
            mp = random_equal_ratio_params(rng)
            f = fns[int(rng.integers(len(fns)))]
            x = float(rng.uniform(-3, 3))
            assert stein.substitution_identity_check(mp, f, x, "a1a2") <= 1e-9
        for _ in range(100):
            p = validate(0, 0, rng.uniform(0.5, 2), rng.uniform(0.5, 2),
                         rng.uniform(-0.9, 0.9))
            mp = MeanParams(p, int(rng.choice([1, 2, 5])))
            f = fns[int(rng.integers(len(fns)))]
            x = float(rng.uniform(-3, 3))
            assert stein.substitution_identity_check(mp, f, x, "a3a4") <= 1e-9
