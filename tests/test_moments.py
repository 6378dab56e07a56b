import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from normprod import (
    CaseMismatch,
    MeanParams,
    NotConverged,
    central_moments,
    central_moments_equal_ratio,
    central_moments_exact,
    closed_form_four,
    raw_moments,
    raw_moments_equal_ratio,
    raw_moments_exact,
    validate,
)
from normprod.moments import _solve, _solve_exact
from normprod.stein import a1_table, a2_table
from conftest import random_equal_ratio_params, random_mean_params


def binomial_raw_to_central(raw, m1, k):
    """Independent conversion mu_k = sum_j C(k,j) (-m1)^(k-j) mu'_j."""
    return sum(math.comb(k, j) * (-m1) ** (k - j) * raw[j] for j in range(k + 1))


class TestExactRecursion:
    def test_product_one_zero_mean_values(self):
        mp = MeanParams(validate(1, 0, 1, 1, 0), 1)
        assert raw_moments_exact(mp, 8) == [
            Fraction(v) for v in (1, 0, 2, 0, 30, 0, 1140, 0, 80220)]

    def test_zero_mean_even_moments(self):
        # E[Z^(2k)] = ((2k)!/(2^k k!))^2 for independent standard normals
        mp = MeanParams(validate(0, 0, 1, 1, 0), 1)
        mu = raw_moments_exact(mp, 12)
        for k in range(7):
            dfact = Fraction(math.factorial(2 * k),
                             2 ** k * math.factorial(k))
            assert mu[2 * k] == dfact ** 2
        assert all(mu[j] == 0 for j in range(1, 13, 2))

    def test_first_moment(self, rng):
        for _ in range(20):
            mp = random_mean_params(rng)
            p = mp.base
            expected = p.mu_x * p.mu_y + p.rho * p.s
            assert float(raw_moments_exact(mp, 1)[1]) == pytest.approx(
                expected, rel=1e-14)

    def test_raw_central_binomial_consistency(self, rng):
        for _ in range(20):
            mp = random_mean_params(rng)
            raw = raw_moments_exact(mp, 8)
            central = central_moments_exact(mp, 8)
            for k in range(9):
                assert central[k] == binomial_raw_to_central(raw, raw[1], k)

    def test_integer_path_matches_fraction_recursion(self, rng):
        # the exact moments run on integers (W = d Z); the same solver on
        # the Fraction table is the reference, including odd denominators
        tables = [a1_table(random_mean_params(rng), Fraction)
                  for _ in range(10)]
        tables.append(((Fraction(-1, 3), Fraction(1)),
                       (Fraction(2, 9), Fraction(5, 6)),
                       (Fraction(1, 27), Fraction(-7, 10))))
        for table in tables:
            for central in (False, True):
                assert _solve_exact(table, 12, central) == \
                    _solve(table, 12, central)

    def test_rational_parameters_give_exact_fractions(self):
        p = validate(0.5, 0.25, 1, 1, 0.5)
        mu = raw_moments_exact(MeanParams(p, 2), 4)
        assert all(isinstance(v, Fraction) for v in mu)
        assert mu[1] == Fraction(5, 8)  # mu_x mu_y + rho s = 1/8 + 1/2


def cumulant_moments(mp, kmax):
    """Raw moments 0..kmax of the mean from its exact cumulants.

    The mean is s/(4n) (A W1 - B W2) with A, B = 2(1 +- rho), s = sigma_x
    sigma_y and W1, W2 independent noncentral chi-squares with n degrees
    of freedom and noncentralities n(r_x + r_y)^2/A and n(r_x - r_y)^2/B,
    whose cumulants are 2^(k-1) (k-1)! (n + k lambda).  So kappa_k =
    (s/(4n))^k 2^(k-1) (k-1)! n [A^k + k A^(k-1) (r_x + r_y)^2
    + (-1)^k (B^k + k B^(k-1) (r_x - r_y)^2)], and the moments follow from
    mu'_k = sum_j C(k-1, j-1) kappa_j mu'_(k-j).  No Stein table enters.
    """
    p, n = mp.base, mp.n
    mux, muy, sx, sy, rho = map(Fraction, (p.mu_x, p.mu_y, p.sigma_x,
                                           p.sigma_y, p.rho))
    rx, ry, c = mux / sx, muy / sy, sx * sy / (4 * n)
    a, b = 2 * (1 + rho), 2 * (1 - rho)
    kappa = [None] + [
        c ** k * 2 ** (k - 1) * math.factorial(k - 1) * n
        * (a ** k + k * a ** (k - 1) * (rx + ry) ** 2
           + (-1) ** k * (b ** k + k * b ** (k - 1) * (rx - ry) ** 2))
        for k in range(1, kmax + 1)]
    mu = [Fraction(1)]
    for k in range(1, kmax + 1):
        mu.append(sum(math.comb(k - 1, j - 1) * kappa[j] * mu[k - j]
                      for j in range(1, k + 1)))
    return mu


class TestExactCumulants:
    # dyadic parameters, so every float is its exact rational; the third
    # set has equal mean-to-sd ratios (-1/4 each), where A2 applies too
    SETS = [((0.5, -0.75, 1.25, 0.5, 0.25), 1),
            ((1.5, 0.25, 0.75, 2.0, -0.5), 3),
            ((-0.25, -0.375, 1.0, 1.5, 0.625), 4),
            ((2.0, -1.5, 0.5, 0.25, -0.875), 7)]

    @pytest.mark.parametrize("tup, n", SETS)
    def test_recursion_equals_cumulant_moments(self, tup, n):
        mp = MeanParams(validate(*tup), n)
        assert raw_moments_exact(mp, 40) == cumulant_moments(mp, 40)

    @pytest.mark.parametrize("tup, n", SETS)
    def test_operators_annihilate_monomials(self, tup, n):
        # E[A x^k] = sum_j k!/(k-j)! (a0_j mu'_(k-j) + a1_j mu'_(k-j+1)),
        # over moments the recursion did not produce
        mp = MeanParams(validate(*tup), n)
        mu = cumulant_moments(mp, 36)
        tables = [a1_table(mp, Fraction)]
        if tup[0] / tup[2] == tup[1] / tup[3]:
            tables.append(a2_table(mp, Fraction))
        for table in tables:
            for k in range(36):
                assert sum(math.perm(k, j) * (a0 * mu[k - j] + a1 * mu[k - j + 1])
                           for j, (a0, a1) in enumerate(table[:k + 1])) == 0


class TestNegativeKmax:
    @pytest.mark.parametrize("fn", [
        raw_moments_exact, central_moments_exact, raw_moments, central_moments,
        raw_moments_equal_ratio, central_moments_equal_ratio])
    def test_rejected_by_every_entry_point(self, fn):
        # zero means: every recursion applies, so only kmax can be at fault
        mp = MeanParams(validate(0, 0, 1.5, 0.5, 0.3), 2)
        with pytest.raises(ValueError):
            fn(mp, -1)
        table = fn(mp, 0)
        assert list(getattr(table, "values", table)) == [1]


class TestOutOfRange:
    @pytest.mark.parametrize("tup", [(1e200, 1e200, 1, 1, 0.3),
                                     (1, 0.5, 1e-160, 1, 0.3)])
    def test_closed_form_refuses_values_past_the_double_range(self, tup):
        # an OverflowError from rx ** 2, and a ZeroDivisionError where
        # m2 ** 1.5 underflows
        with pytest.raises(NotConverged):
            closed_form_four(MeanParams(validate(*tup), 2))

    @pytest.mark.parametrize("tup, kmax", [((1e100, 1e100, 1, 1, 0.3), 8),
                                           ((0, 0, 1e5, 1e5, 0.0), 40)])
    def test_float_tables_refuse_what_a_double_cannot_hold(self, tup, kmax):
        # inf and NaN entries, and a Fraction too large to round
        mp = MeanParams(validate(*tup), 1)
        for fn in (raw_moments, central_moments):
            with pytest.raises(NotConverged):
                fn(mp, kmax)
        assert all(isinstance(v, Fraction)
                   for v in raw_moments_exact(mp, kmax))


class TestFloatTables:
    def test_matches_exact_to_roundoff(self, rng):
        for _ in range(20):
            mp = random_mean_params(rng)
            exact = [float(v) for v in raw_moments_exact(mp, 10)]
            table = raw_moments(mp, 10)
            assert table.kind == "raw" and table.provenance == "recursion"
            np.testing.assert_allclose(table.values, exact, rtol=1e-12)
            exact_c = [float(v) for v in central_moments_exact(mp, 10)]
            np.testing.assert_allclose(central_moments(mp, 10).values, exact_c,
                                       rtol=1e-12, atol=1e-280)

    def test_high_order_switches_to_exact_path(self):
        mp = MeanParams(validate(1, 2, 1, 1, 0.5), 1)
        table = raw_moments(mp, 24)
        assert table.values[24] == pytest.approx(
            float(raw_moments_exact(mp, 24)[24]), rel=1e-15)

    def test_moment_table_validates(self):
        from normprod import MomentTable
        with pytest.raises(ValueError):
            MomentTable("raw", (2.0, 1.0))
        with pytest.raises(ValueError):
            MomentTable("weird", (1.0,))


class TestEqualRatioRecursions:
    def test_agree_with_general_recursion(self, rng):
        for _ in range(20):
            mp = random_equal_ratio_params(rng)
            general = [float(v) for v in raw_moments_exact(mp, 8)]
            reduced = raw_moments_equal_ratio(mp, 8).values
            np.testing.assert_allclose(reduced, general, rtol=1e-10)
            general_c = [float(v) for v in central_moments_exact(mp, 8)]
            reduced_c = central_moments_equal_ratio(mp, 8).values
            np.testing.assert_allclose(reduced_c, general_c, rtol=1e-10,
                                       atol=1e-12)

    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("params", [(0.5, 1, 1, 2, 0.25),
                                        (-0.5, -0.25, 2, 1, -0.5),
                                        (0, 0, 1, 0.5, 0.75)])
    def test_third_order_table_gives_exact_moments(self, params, n):
        # dyadic parameters with exactly equal ratios: the third-order table
        # in Fractions reproduces the fourth-order table's moments exactly
        mp = MeanParams(validate(*params), n)
        table = a2_table(mp, Fraction)
        assert _solve(table, 16) == raw_moments_exact(mp, 16)
        assert _solve(table, 16, central=True) == central_moments_exact(mp, 16)

    def test_guarded_against_general_case(self):
        mp = MeanParams(validate(1, 2, 1, 1, 0.1), 1)
        with pytest.raises(CaseMismatch):
            raw_moments_equal_ratio(mp, 4)
        with pytest.raises(CaseMismatch):
            central_moments_equal_ratio(mp, 4)


class TestClosedForms:
    def test_agree_with_recursion(self, rng):
        # 200-point sweep, raw and central, first four orders
        for _ in range(200):
            mp = random_mean_params(rng)
            cf = closed_form_four(mp)
            raw = [float(v) for v in raw_moments_exact(mp, 4)]
            central = [float(v) for v in central_moments_exact(mp, 4)]
            for k in range(4):
                assert cf.raw[k] == pytest.approx(raw[k + 1], rel=1e-12,
                                                  abs=1e-12)
                assert cf.central[k] == pytest.approx(central[k + 1], rel=1e-12,
                                                      abs=1e-12)

    def test_variance_positive_and_jensen(self, rng):
        for _ in range(50):
            mp = random_mean_params(rng)
            cf = closed_form_four(mp)
            assert cf.variance > 0
            # Jensen: E[W^2] >= (E W)^2 with equality impossible here
            assert cf.raw[1] > cf.raw[0] ** 2

    def test_cauchy_schwarz_between_moments(self, rng):
        # E[W^2]^2 <= E[W^4] * E[W^0] for the centred variable
        for _ in range(50):
            mp = random_mean_params(rng)
            cf = closed_form_four(mp)
            assert cf.central[1] ** 2 <= cf.central[3] * (1 + 1e-12)

    def test_central_moment_scaling_in_n(self):
        base = validate(0.7, -1.1, 1.2, 0.9, 0.3)
        one = closed_form_four(MeanParams(base, 1))
        for n in (2, 3, 5, 8):
            cf = closed_form_four(MeanParams(base, n))
            assert cf.central[1] == pytest.approx(one.central[1] / n, rel=1e-12)
            assert cf.central[2] == pytest.approx(one.central[2] / n ** 2,
                                                  rel=1e-12)

    def test_mean_independent_of_n(self):
        base = validate(0.7, -1.1, 1.2, 0.9, 0.3)
        for n in (1, 2, 7):
            cf = closed_form_four(MeanParams(base, n))
            assert cf.raw[0] == pytest.approx(
                base.mu_x * base.mu_y + base.rho * base.s, rel=1e-14)

    def test_kurtosis_of_standard_product(self):
        # independent standard normals: mu4/mu2^2 = 9
        assert closed_form_four(MeanParams(validate(0, 0, 1, 1, 0), 1)) \
            .kurtosis == pytest.approx(9.0, rel=1e-14)

    def test_skewness_sign_follows_mean_product(self):
        def skewness(*means):
            return closed_form_four(
                MeanParams(validate(*means, 1, 1, 0), 1)).skewness
        assert skewness(2, 2) > 0
        assert skewness(2, -2) < 0
        assert skewness(0, 0) == 0

    @settings(max_examples=30, deadline=None)
    @given(mu_x=st.floats(-2, 2), mu_y=st.floats(-2, 2),
           rho=st.floats(-0.8, 0.8), n=st.integers(1, 6))
    def test_property_closed_form_matches_recursion(self, mu_x, mu_y, rho, n):
        mp = MeanParams(validate(mu_x, mu_y, 1, 1, rho), n)
        cf = closed_form_four(mp)
        raw = [float(v) for v in raw_moments_exact(mp, 4)]
        for k in range(4):
            assert cf.raw[k] == pytest.approx(raw[k + 1], rel=1e-11, abs=1e-11)
