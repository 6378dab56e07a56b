import math
from fractions import Fraction

import numpy as np
import pytest
import sympy

from normprod import CaseMismatch, InvalidTestFunction, MeanParams, validate
from normprod import stein


def sympy_derivative_oracle(expr, x_sym, points):
    """Reference (f, f', ..., f'''') at the given points via sympy."""
    out = []
    for k in range(5):
        fn = sympy.lambdify(x_sym, sympy.diff(expr, x_sym, k), "numpy")
        out.append(np.asarray(fn(points), dtype=float))
    return out


X = sympy.Symbol("x")
POINTS = np.array([-2.1, -0.7, 0.3, 1.4, 2.6])

BUILTIN_CASES = [
    (stein.monomial(4), X ** 4),
    (stein.monomial(0), sympy.Integer(1) + 0 * X),
    (stein.polynomial([1.0, -2.0, 0.0, 3.0]), 1 - 2 * X + 3 * X ** 3),
    (stein.exponential(0.7), sympy.exp(sympy.Rational(7, 10) * X)),
    (stein.sine(1.3), sympy.sin(sympy.Rational(13, 10) * X)),
    (stein.cosine(0.4), sympy.cos(sympy.Rational(2, 5) * X)),
    (stein.gaussian_bump(0.6), sympy.exp(-sympy.Rational(3, 5) * X ** 2)),
]


class TestTestFunctions:
    @pytest.mark.parametrize("f,expr", BUILTIN_CASES,
                             ids=[f.label for f, _ in BUILTIN_CASES])
    def test_derivatives_match_symbolic_oracle(self, f, expr):
        got = f(POINTS)
        expected = sympy_derivative_oracle(expr, X, POINTS)
        for k in range(5):
            np.testing.assert_allclose(np.asarray(got[k], dtype=float),
                                       expected[k], rtol=1e-12, atol=1e-12)

    def test_check_derivatives_accepts_builtins(self):
        for f, _ in BUILTIN_CASES:
            stein.check_derivatives(f)

    def test_check_derivatives_rejects_wrong_derivative(self):
        broken = stein.TestFunction(
            lambda x: (np.asarray(x) ** 2, 3 * np.asarray(x),
                       np.full_like(np.asarray(x, dtype=float), 2.0),
                       np.zeros_like(np.asarray(x, dtype=float)),
                       np.zeros_like(np.asarray(x, dtype=float))),
            "broken")
        with pytest.raises(ValueError):
            stein.check_derivatives(broken)

    def test_from_callable_wrapper(self):
        f = stein.from_callable(np.tanh)
        got = f(0.5)
        assert got[0] == pytest.approx(np.tanh(0.5), rel=1e-12)
        assert got[1] == pytest.approx(1 - np.tanh(0.5) ** 2, rel=1e-8)

    def test_from_callable_derivatives(self):
        # the wrapper reads the shared stencil table; its own copy of the
        # third-derivative stencil had the sign reversed
        f = stein.from_callable(np.sin, h=1e-2)
        x = np.array([-0.4, 0.7])
        expected = (np.sin(x), np.cos(x), -np.sin(x), -np.cos(x), np.sin(x))
        for got, want in zip(f(x), expected):
            np.testing.assert_allclose(got, want, rtol=1e-6, atol=1e-8)

    def test_monomial_degree_limit(self):
        with pytest.raises(ValueError):
            stein.monomial(9)

    @pytest.mark.parametrize("build,arg", [
        (stein.monomial, -1), (stein.monomial, 2.0),
        (stein.monomial, True),
        (stein.cosine, float("nan")), (stein.sine, float("nan")),
        (stein.cosine, 1e308), (stein.sine, -float("inf")),
        (stein.gaussian_bump, float("nan")), (stein.gaussian_bump, float("inf")),
        (stein.gaussian_bump, -1.0), (stein.gaussian_bump, 0.0),
        (stein.gaussian_bump, 1e77),
        (stein.exponential, float("nan")), (stein.exponential, 1e200),
    ])
    def test_builders_reject_bad_parameters(self, build, arg):
        # NaN used to give NaN values, and a fourth power past the double
        # range an OverflowError on the first evaluation
        with pytest.raises(InvalidTestFunction):
            build(arg)
        assert issubclass(InvalidTestFunction, ValueError)

    def test_builders_accept_largest_parameters(self):
        for build in (stein.sine, stein.cosine, stein.exponential,
                      stein.gaussian_bump):
            derivs = build(5.7e76)(0.0)
            assert all(np.isfinite(d) for d in derivs)


class TestOperatorTables:
    def test_general_operator_order(self):
        spec = stein.operator_a1(MeanParams(validate(1, 2, 1.3, 0.8, 0.4), 3))
        assert spec.order == 4
        assert len(spec.coeffs) == 5

    def test_general_reduces_to_zero_mean_table(self):
        mp = MeanParams(validate(0, 0, 1.2, 0.7, 0.4), 2)
        a1 = stein.operator_a1(mp)
        a3 = stein.operator_special("a3", mp)
        assert a1.coeffs == a3.coeffs

    # zero means and rho = 0 (or a rho that cancels an entry) zero out
    # whole products, such as -4 rho s_n, which came out as -0.0
    ZERO_ENTRY_SETS = [((0, 0, 1, 1, 0), 1), ((0, 0, 1.5, 0.5, 0), 3),
                       ((0.5, 0.5, 1, 1, 0), 1), ((0.5, 0, 1, 1, 0), 1),
                       ((0, 0, 1, 1, -0.3333333333333333), 1),
                       ((0, 0, 2, 1, -0.0), 2)]

    def test_no_negative_zero_entries(self):
        builders = {"a1": stein.operator_a1, "a2": stein.operator_a2, **{
            w: lambda mp, w=w: stein.operator_special(w, mp)
            for w in ("a3", "a4", "a5", "a6", "a7")}}
        checked, zeros = set(), 0
        for tup, n in self.ZERO_ENTRY_SETS:
            mp = MeanParams(validate(*tup), n)
            for which, build in builders.items():
                try:
                    spec = build(mp)
                except CaseMismatch:
                    continue
                checked.add(which)
                for v in (v for pair in spec.coeffs for v in pair if v == 0):
                    assert math.copysign(1, v) == 1, (which, tup, n)
                    zeros += 1
        assert checked == set(builders) and zeros >= 20

    def test_squares_are_correctly_rounded(self):
        # pow(rho, 2) is 1 ulp off the correctly rounded rho * rho here
        rho = 0.3493787908695549
        a1 = stein.a1_table(MeanParams(validate(0, 0, 1, 1, rho)))
        assert a1[2][1] == 6 * float(Fraction(rho) ** 2) - 2

    def test_third_order_requires_equal_ratios(self):
        with pytest.raises(CaseMismatch):
            stein.operator_a2(MeanParams(validate(1, 2, 1, 1, 0.1), 1))

    def test_special_case_preconditions(self):
        general = MeanParams(validate(1, 2, 1, 1, 0.1), 1)
        for which in ("a3", "a4", "a5"):
            with pytest.raises(CaseMismatch):
                stein.operator_special(which, general)
        with pytest.raises(CaseMismatch):
            stein.operator_special("a6", MeanParams(validate(1, 2, 2, 1, 0.0), 1))
        with pytest.raises(CaseMismatch):
            stein.operator_special("a7", MeanParams(validate(1, 2, 1, 1, 0.0), 1))
        with pytest.raises(ValueError):
            stein.operator_special("a9", general)

    def test_published_unit_variance_table(self):
        # n=1, rho=0, unit sigmas: the classical product-normal operator
        # x f'''' + f''' - (mu_x mu_y + 2x) f'' - (mu_x^2+mu_y^2+1) f' + (x - mu_x mu_y) f
        mp = MeanParams(validate(1.0, 2.0, 1, 1, 0.0), 1)
        assert stein.operator_special("a6", mp).coeffs == (
            (-2.0, 1.0), (-6.0, 0.0), (-2.0, -2.0), (1.0, 0.0), (0.0, 1.0))
        assert stein.operator_a1(mp).coeffs == \
            stein.operator_special("a6", mp).coeffs

    @pytest.mark.parametrize("which, params, n, table", [
        ("a3", (0, 0, 1, 2, 0.5), 2, ((-1, 1), (-0.5, -2), (2.25, -0.5),
                                      (1.125, 1.5), (0, 0.5625))),
        ("a5", (0, 0, 0.5, 2, 0), 1, ((0, -1), (1, 0), (0, 1))),
        ("a7", (1.5, 1.5, 1, 1, 0), 1, ((-2.25, 1), (-3.25, -1), (1, -1),
                                        (0, 1)))])
    def test_published_tables_at_dyadic_parameters(self, which, params, n,
                                                   table):
        # every entry is exact at these parameters, so the literature's
        # tables are pinned independently of the general ones they are
        # read from
        mp = MeanParams(validate(*params), n)
        assert stein.operator_special(which, mp).coeffs == table


class TestApply:
    def test_linearity(self):
        mp = MeanParams(validate(1, -1, 1.1, 0.9, 0.2), 2)
        spec = stein.operator_a1(mp)
        f, g = stein.monomial(3), stein.exponential(0.5)
        alpha, beta = 2.5, -1.25
        combo = stein.TestFunction(
            lambda x: tuple(alpha * a + beta * b for a, b in zip(f(x), g(x))),
            "combo")
        for x in POINTS:
            lhs = stein.apply(spec, combo, x)
            rhs = alpha * stein.apply(spec, f, x) + beta * stein.apply(spec, g, x)
            assert lhs == pytest.approx(rhs, rel=4e-16, abs=1e-13)

    def test_tuple_with_scalar_derivatives(self):
        # a hand-written f may give a vanishing derivative as a scalar
        spec = stein.operator_a1(MeanParams(validate(1, -1, 1.1, 0.9, 0.2), 2))
        square = stein.TestFunction(lambda x: (x * x, 2 * x, 2.0, 0.0, 0.0),
                                    "x^2 by hand")
        np.testing.assert_array_equal(stein.apply(spec, square, POINTS),
                                      stein.apply(spec, stein.monomial(2), POINTS))

    def test_vectorized_matches_scalar(self):
        # from_callable's stencils used to differ between a lone point
        # and a batch in the last bits
        mp = MeanParams(validate(0.5, 1.5, 1, 1, -0.3), 1)
        spec = stein.operator_a1(mp)
        for f in (stein.gaussian_bump(0.5), stein.from_callable(np.tanh)):
            vec = stein.apply(spec, f, POINTS)
            for x, v in zip(POINTS, vec):
                assert v == stein.apply(spec, f, float(x))


class TestSubstitutionIdentities:
    def test_a1_a2_identity(self, rng):
        from conftest import random_equal_ratio_params
        for _ in range(30):
            mp = random_equal_ratio_params(rng)
            f = stein.monomial(int(rng.integers(0, 5)))
            x = float(rng.uniform(-3, 3))
            assert stein.substitution_identity_check(mp, f, x, "a1a2") <= 1e-9

    def test_a3_a4_identity(self, rng):
        for _ in range(30):
            p = validate(0, 0, rng.uniform(0.5, 2), rng.uniform(0.5, 2),
                         rng.uniform(-0.9, 0.9))
            mp = MeanParams(p, int(rng.choice([1, 2, 5])))
            f = stein.exponential(float(rng.uniform(-0.4, 0.4)))
            x = float(rng.uniform(-3, 3))
            assert stein.substitution_identity_check(mp, f, x, "a3a4") <= 1e-9

    def test_auto_selects_by_case(self):
        mp = MeanParams(validate(0, 0, 1, 1, 0.3), 2)
        assert stein.substitution_identity_check(
            mp, stein.monomial(3), 0.7, "auto") <= 1e-12

    def test_identity_guards(self):
        general = MeanParams(validate(1, 2, 1, 1, 0.1), 1)
        with pytest.raises(CaseMismatch):
            stein.substitution_identity_check(general, stein.monomial(2), 1.0,
                                              "a1a2")
        with pytest.raises(CaseMismatch):
            stein.substitution_identity_check(general, stein.monomial(2), 1.0,
                                              "a3a4")
