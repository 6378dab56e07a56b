import cmath
import warnings

import numpy as np
import pytest

from normprod import (
    MeanParams,
    NonFiniteParameter,
    NotConverged,
    cf_grid,
    cf_mean,
    cf_mean_derivative,
    cf_ode_residual,
    cf_raw_moments,
    raw_moments_exact,
    validate,
)
from conftest import random_mean_params


class TestBasicProperties:
    def test_value_at_zero_is_one(self, rng):
        for _ in range(10):
            mp = random_mean_params(rng)
            assert cf_mean(mp, 0.0) == 1.0 + 0.0j

    def test_modulus_bounded_by_one(self, rng):
        ts = np.linspace(-30, 30, 601)
        for _ in range(10):
            mp = random_mean_params(rng)
            vals = cf_grid(mp, ts)
            assert np.all(np.abs(vals) <= 1 + 1e-12)

    def test_conjugate_symmetry(self, rng):
        for _ in range(10):
            mp = random_mean_params(rng)
            for t in (0.3, 1.7, 8.5):
                assert cf_mean(mp, -t) == pytest.approx(
                    np.conj(cf_mean(mp, t)), rel=1e-13)

    def test_decays_along_grid(self):
        mp = MeanParams(validate(0, 0, 1, 1, 0), 1)
        # |phi(t)| = (1 + t^2)^(-1/2) for the standard product
        for t in (0.5, 1.0, 3.0):
            assert abs(cf_mean(mp, t)) == pytest.approx(
                (1 + t ** 2) ** -0.5, rel=1e-13)

    def test_grid_branch_continuity_no_warning(self, rng):
        ts = np.linspace(-50, 50, 2001)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for _ in range(5):
                cf_grid(random_mean_params(rng), ts)


class TestDerivative:
    def test_analytic_derivative_matches_finite_difference(self, rng):
        h = 1e-6
        for _ in range(10):
            mp = random_mean_params(rng)
            for t in (-2.1, 0.4, 1.3):
                fd = (cf_mean(mp, t + h) - cf_mean(mp, t - h)) / (2 * h)
                assert cf_mean_derivative(mp, t) == pytest.approx(fd, rel=1e-8)

    def test_derivative_at_zero_gives_mean(self, rng):
        for _ in range(10):
            mp = random_mean_params(rng)
            m1 = float(raw_moments_exact(mp, 1)[1])
            assert (cf_mean_derivative(mp, 0.0) / 1j).real == pytest.approx(
                m1, rel=1e-12, abs=1e-12)


class TestOde:
    def test_residual_small_over_random_draws(self, rng):
        for _ in range(100):
            mp = random_mean_params(rng, unit_sigma=True)
            t = float(rng.uniform(-5, 5))
            assert abs(cf_ode_residual(mp, t)) <= 1e-10

    def test_residual_with_analytic_derivative(self):
        mp = MeanParams(validate(1, 2, 1, 1, 0.3), 2)
        assert abs(cf_ode_residual(mp, 0.8)) <= 1e-12

    # the Fourier transform of the general A1 table holds at any variances
    @pytest.mark.parametrize("tup, n", [((1, 0.5, 1.7, 0.6, 0.2), 1),
                                        ((0.3, -0.8, 0.5, 2, -0.6), 3),
                                        ((0, 0, 2, 1, 0), 1)])
    def test_residual_at_general_variances(self, tup, n):
        mp = MeanParams(validate(*tup), n)
        for t in (-3.0, -0.7, 0.4, 1.3, 5.0):
            assert abs(cf_ode_residual(mp, t)) <= 1e-12


    def test_residual_at_an_array_of_t(self, rng):
        # used to raise a bare ValueError (the truth value of an array);
        # elementwise now, each within rounding of its scalar call
        for _ in range(10):
            mp = random_mean_params(rng)
            ts = rng.uniform(-6, 6, 7)
            got = cf_ode_residual(mp, ts)
            assert isinstance(got, np.ndarray) and got.shape == ts.shape
            expected = [cf_ode_residual(mp, float(t)) for t in ts]
            assert all(type(e) is float for e in expected)
            np.testing.assert_allclose(got, expected, rtol=0, atol=1e-14)
        mp = MeanParams(validate(0.5, 1, 1, 1, 0.3), 1)
        grid = cf_ode_residual(mp, np.array([[0.0, 0.5], [-1.0, 2.0]]))
        assert grid.shape == (2, 2) and grid[0, 0] == 0.0


class TestLargeAndNonFiniteT:
    MP = MeanParams(validate(0.7, -1.1, 1.2, 0.9, 0.35), 2)

    @pytest.mark.parametrize("t", [np.nan, np.inf, np.array([0.5, np.nan])])
    def test_non_finite_t(self, t):
        # NaN used to come back as a NaN value
        with pytest.raises(NonFiniteParameter):
            cf_mean(self.MP, t)

    @pytest.mark.parametrize("t", [1e154, -1e200, 1e308,
                                   np.array([0.5, 1e200])])
    def test_overflowing_base(self, t):
        # used to warn of an overflow and return NaN
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NotConverged):
                cf_mean(self.MP, t)

    @pytest.mark.parametrize("t, error", [
        (np.nan, NonFiniteParameter), (np.inf, NonFiniteParameter),
        (np.array([0.5, np.nan]), NonFiniteParameter),
        (1e154, NotConverged), (-1e200, NotConverged),
        (np.array([0.5, 1e200]), NotConverged)])
    def test_derivative_raises_as_cf_mean(self, t, error):
        # it used to warn and return NaN, having no guard of its own
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(error):
                cf_mean_derivative(self.MP, t)

    def test_below_overflow(self):
        # |phi| <= |base|^(-n/2) with |base| ~ (1 - rho^2) s^2 t^2 / n^2;
        # the derivative is phi times a log-derivative of order 1/t, which
        # used to overflow in the square of the base
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert 0 < abs(cf_mean(self.MP, 1e100)) < 1e-199
            assert 0 < abs(cf_mean(self.MP, 1e153)) < 1e-305
            assert 0 < abs(cf_mean_derivative(self.MP, 1e100)) < 1e-299

    @pytest.mark.parametrize("t", [0.0, 1e-300])
    def test_overflowing_ratios(self, t):
        # the squared ratio overflows; phi = 1 at t = 0, near 1 at 1e-300,
        # and the closed form used to give NaN and 0 there
        mp = MeanParams(validate(1e200, 1, 1, 1, 0.3), 1)
        with pytest.raises(NotConverged):
            cf_mean(mp, t)

    def test_ode_residual_past_coefficient_range(self):
        # (i t)^4 used to end in an OverflowError from complex power
        mp = MeanParams(validate(0.5, 1, 1, 1, 0.3), 1)
        for t in (1e100, np.array([0.5, 1e100])):
            with pytest.raises(NotConverged):
                cf_ode_residual(mp, t)


class TestOverflowThreshold:
    # the complex closed form answered until a term c u^2, 2 rx ry u or 2
    # Re D ~ 2 (1-rho^2)(u/n)^2 overflowed, u = s t; a single factor's
    # |f|^2 ~ (1 +- rho)^2 (u/n)^2 overflows sooner at strong correlation
    # and must not move that threshold
    @pytest.mark.parametrize("rho, n, t", [(0.99, 1, 1.2e154), (-0.99, 1, -1.2e154),
                                           (0.3, 20, 1e155)])
    def test_answers_where_the_complex_form_did(self, rho, n, t):
        mp = MeanParams(validate(0, 0, 1, 1, rho), n)
        want = cf_unit_loop(0.0, 0.0, rho, n, [t])[0]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = cf_mean(mp, np.array([0.5, t]))[1]
            d = (1 - (1 + rho) * 1j * t / n) * (1 + (1 - rho) * 1j * t / n)
            d_prime = 2 * (1 - rho ** 2) * t / n ** 2 - 2j * rho / n
            deriv = cf_mean_derivative(mp, t)
        assert abs(got - want) <= 1e-13 * abs(want)
        assert deriv == pytest.approx(-0.5 * n * want * d_prime / d, rel=1e-13)

    def test_scalar_refuses_as_an_array_does(self):
        # 2 (u/n)^2 is 2.06e308 here; a scalar t used to go through Python
        # complex arithmetic, which overflowed unseen and answered 0j
        mp = MeanParams(validate(0, 0, 0.2019, 0.0601, 0), 5)
        for t in (-4.18e156, np.array([0.5, -4.18e156])):
            with pytest.raises(NotConverged, match="overflows at"):
                cf_mean(mp, t)

    def test_refuses_where_re_d_overflows(self):
        mp = MeanParams(validate(0, 0, 1, 1, 0.3), 1)
        for t in (2e154, np.array([0.5, 2e154])):
            with pytest.raises(NotConverged):
                cf_mean(mp, t)


class TestMomentExtraction:
    def test_matches_exact_moments(self, rng):
        for _ in range(10):
            mp = random_mean_params(rng)
            got = cf_raw_moments(mp, 4)
            expected = [float(v) for v in raw_moments_exact(mp, 4)]
            for g, e in zip(got, expected):
                assert g == pytest.approx(e, rel=1e-6, abs=1e-6)

    @pytest.mark.parametrize("n", [1, 2, 5])
    def test_matches_exact_moments_to_1e_10(self, rng, n):
        # the FFT's sums are the trapezoid sums; 1.7e-11 at worst over 200
        # random sets
        for _ in range(20):
            mp = random_mean_params(rng, n_choices=(n,))
            expected = [float(v) for v in raw_moments_exact(mp, 4)]
            assert cf_raw_moments(mp, 4) == pytest.approx(expected, rel=1e-10)

    def test_zeroth_moment_is_one(self):
        mp = MeanParams(validate(1, -2, 1.5, 0.5, -0.4), 3)
        assert cf_raw_moments(mp, 0)[0] == pytest.approx(1.0, rel=1e-12)


def cf_unit_loop(mx, my, rho, n, ts):
    """The scalar cmath form of the unit-variance closed form, point by point."""
    out = []
    for t in ts:
        d = (1 - (1 + rho) * 1j * t / n) * (1 + (1 - rho) * 1j * t / n)
        num = (-(mx * mx + my * my - 2 * rho * mx * my) * t * t / n
               + 2 * mx * my * 1j * t)
        out.append(cmath.exp(num / (2 * d)) * cmath.exp(-0.5 * n * cmath.log(d)))
    return np.array(out)


def cf_two_factor_loop(mp, ts):
    """log phi as the sum of the two linear factors' principal logs, point
    by point in cmath; w = s t / n is rounded as the library rounds it, so
    that a difference is the closed form's own rounding."""
    p, n = mp.base, mp.n
    mx, my, rho = p.r_x, p.r_y, p.rho
    out = []
    for t in ts:
        w = complex(t) * (p.s / n)
        f1, f2 = 1 - 1j * (1 + rho) * w, 1 + 1j * (1 - rho) * w
        num = 2j * mx * my * w - (mx * mx + my * my - 2 * rho * mx * my) * w * w
        out.append(cmath.exp(0.5 * n * (num / (f1 * f2) - cmath.log(f1)
                                         - cmath.log(f2))))
    return np.array(out)


class TestVectorisedAgainstLoop:
    # numpy and cmath may round the complex division, exp and log
    # differently by an ulp or two; exp turns an absolute error in its
    # exponent (up to a few hundred in modulus here) into a relative one
    TOL = 64 * np.finfo(float).eps

    def test_real_grid_and_contour_match_cmath_loop(self, rng):
        ts = np.linspace(-40, 40, 4001)
        circle = 0.3 * np.exp(2j * np.pi * np.arange(128) / 128)
        for _ in range(10):
            mp = random_mean_params(rng, n_choices=(1, 2, 5, 20))
            p = mp.base
            args = (p.r_x, p.r_y, p.rho, mp.n)
            got = cf_grid(mp, ts)
            assert np.max(np.abs(got - cf_unit_loop(*args, p.s * ts))) <= self.TOL
            want = cf_unit_loop(*args, p.s * circle)
            got = cf_mean(mp, circle)
            assert np.max(np.abs(got - want) / np.abs(want)) <= self.TOL

    def test_saddlepoint_contour_matches_two_factor_loop(self, rng):
        # t = -i(c + iv), a quarter of the way from 0 to each pole; |phi|
        # exceeds 1 near v = 0, so the error is relative there
        v = np.linspace(-30, 30, 601)
        for _ in range(10):
            for n in (1, 3):
                mp = random_mean_params(rng, n_choices=(n,))
                p = mp.base
                for c in (0.25 * n / ((1 + p.rho) * p.s),
                          -0.25 * n / ((1 - p.rho) * p.s)):
                    t = v - 1j * c
                    want = cf_two_factor_loop(mp, t)
                    err = np.abs(cf_mean(mp, t) - want) / np.maximum(1, np.abs(want))
                    assert np.max(err) <= self.TOL

    def test_large_t_at_strong_correlation(self, rng):
        # |t| to 1e6 at rho = +-0.99, where the phase Y is large
        t = np.logspace(0, 6, 301)
        t = np.concatenate([-t, t])
        for _ in range(10):
            p = random_mean_params(rng, n_choices=(1, 2, 5, 20))
            for rho in (0.99, -0.99):
                mp = MeanParams(validate(p.base.mu_x, p.base.mu_y, p.base.sigma_x,
                                         p.base.sigma_y, rho), p.n)
                got = cf_mean(mp, t)
                assert np.max(np.abs(got - cf_two_factor_loop(mp, t))) <= self.TOL

    def test_small_t(self, rng):
        # t from 1e-8 to 1e-3, where log1p carries log|D|
        t = np.logspace(-8, -3, 301)
        t = np.concatenate([-t, t])
        for _ in range(10):
            mp = random_mean_params(rng, n_choices=(1, 2, 5, 20))
            got = cf_mean(mp, t)
            assert np.max(np.abs(got - cf_two_factor_loop(mp, t))) <= self.TOL

    def test_off_the_strip_keeps_the_product_forms_branch(self, rng):
        # past a pole Re D can be negative; the value stays the principal
        # branch of the product form, as the complex closed form gave it.
        # The cut itself (Re t = 0, where Im D is a signed zero) is left out
        ts = np.linspace(-1, 1, 40)
        for rho in (0.3, -0.5):
            for n in (1, 2, 3):
                mp = MeanParams(validate(*rng.uniform(-1, 1, 2), 1.3, 0.7, rho), n)
                p = mp.base
                for b in (-1.5 * n / ((1 + rho) * p.s), 1.5 * n / ((1 - rho) * p.s)):
                    t = ts + 1j * b
                    want = cf_unit_loop(p.r_x, p.r_y, rho, n, p.s * t)
                    err = np.abs(cf_mean(mp, t) - want) / np.abs(want)
                    assert np.max(err) <= self.TOL

    def test_scalar_gives_python_complex(self):
        mp = MeanParams(validate(0.7, -1.1, 1.2, 0.9, 0.35), 2)
        assert type(cf_mean(mp, 0.5)) is complex
        assert type(cf_mean_derivative(mp, 0.5)) is complex
        assert cf_mean(mp, np.array([0.5]))[0] == cf_mean(mp, 0.5)
