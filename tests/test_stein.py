import math
from fractions import Fraction

import numpy as np
import pytest
import sympy
from hypothesis import given, strategies as st

from normprod import (CaseMismatch, InvalidOrder, InvalidTestFunction,
                      MeanParams, NotConverged, validate)
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
    (stein.exponential(0.7), sympy.exp(sympy.Rational(7, 10) * X)),
    (stein.sine(1.3), sympy.sin(sympy.Rational(13, 10) * X)),
    (stein.cosine(0.4), sympy.cos(sympy.Rational(2, 5) * X)),
    (stein.gaussian_bump(0.6), sympy.exp(-sympy.Rational(3, 5) * X ** 2)),
    # the highest degree (f'''' = 1680 x^4), and rows past k that vanish
    (stein.monomial(8), X ** 8),
    (stein.monomial(2), X ** 2),
    (stein.exponential(-1.1), sympy.exp(-sympy.Rational(11, 10) * X)),
    (stein.gaussian_bump(2.5), sympy.exp(-sympy.Rational(5, 2) * X ** 2)),
    (stein.cosine(3.7), sympy.cos(sympy.Rational(37, 10) * X)),
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

    def test_spec_is_its_table(self):
        # the order is the table's length less one, and nothing else
        table = stein.operator_a2(MeanParams(validate(1, 2, 1, 2, 0.4), 1))
        assert stein.SteinOperatorSpec(table.coeffs).order == 3
        for pairs in (2, 6):
            with pytest.raises(InvalidOrder):
                stein.SteinOperatorSpec(((1.0, 1.0),) * pairs)
        with pytest.raises(ValueError, match="must not vanish"):
            stein.SteinOperatorSpec(((1.0, 1.0), (0.5, 0.0), (0.0, -0.0)))

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
        cubic = stein.TestFunction(lambda x: (x ** 3, 3 * x * x, 6 * x, 6.0),
                                   "three derivatives for a fourth order")
        with pytest.raises(ValueError, match="too few derivatives"):
            stein.apply(spec, cubic, POINTS)

    def test_vectorized_matches_scalar(self):
        # a lone point and a batch give the same bits, through the
        # stacked-array path (a built-in) and the tuple path (by hand)
        mp = MeanParams(validate(0.5, 1.5, 1, 1, -0.3), 1)
        spec = stein.operator_a1(mp)
        sine = stein.TestFunction(
            lambda x: (np.sin(1.3 * x), 1.3 * np.cos(1.3 * x),
                       -1.69 * np.sin(1.3 * x), -2.197 * np.cos(1.3 * x),
                       2.8561 * np.sin(1.3 * x)), "sin(1.3x) by hand")
        for f in (stein.gaussian_bump(0.5), sine):
            vec = stein.apply(spec, f, POINTS)
            for x, v in zip(POINTS, vec):
                assert v == stein.apply(spec, f, float(x))


FOLD_FUNCTIONS = [stein.monomial(k) for k in range(9)] + [
    stein.exponential(0.7), stein.exponential(-1.1), stein.sine(1.3),
    stein.cosine(0.4), stein.gaussian_bump(0.6)]
#: A1 at general parameters, A2 at equal mean-to-sd ratios, and the
#: order-2 zero-mean operator a4, each with its parameters
FOLD_SETS = {
    "a1": (stein.operator_a1, MeanParams(validate(0.8, -1.2, 1.1, 0.9, 0.3), 2)),
    "a2": (stein.operator_a2, MeanParams(validate(0.5, 1.0, 1.0, 2.0, 0.4), 2)),
    "a4": (lambda mp: stein.operator_special("a4", mp),
           MeanParams(validate(0, 0, 1.3, 0.8, -0.4), 3)),
}
_U = 2.0 ** -53  # unit roundoff


def _fold_case(name):
    """The operator of FOLD_SETS[name], and POINTS with one 2^13 slice of
    the sampler at its parameters (a 2^13-sample stream's one batch)."""
    from normprod.mc import SamplerConfig, sample_mean_of_products
    build, mp = FOLD_SETS[name]
    stream = sample_mean_of_products(mp, SamplerConfig(4, 1 << 13))
    return build(mp), np.concatenate([POINTS, next(stream)])


def _terms_sum(spec, table, x):
    """S = sum_j (|a0_j| + |a1_j x|) sum_r sum_i |P_jr,i| |x|^i |g_r(x)|
    at the float array x: A f in absolute values, term by term."""
    used = table.polys[:spec.order + 1]
    rows = np.ones((1, x.size)) if table.basis is None \
        else np.abs(np.asarray(table.basis(x)))
    return sum(
        (abs(a0) + abs(a1 * x)) * sum(
            np.polyval(np.abs(p), np.abs(x)) * g for p, g in zip(ps, rows))
        for (a0, a1), ps in zip(spec.coeffs, used))


class TestFold:
    @pytest.mark.parametrize("name", sorted(FOLD_SETS))
    @pytest.mark.parametrize("f", FOLD_FUNCTIONS,
                             ids=[f.label for f in FOLD_FUNCTIONS])
    def test_fold_matches_apply(self, f, name):
        # Both routes read the same stored a0_j, a1_j and P_jr and the same
        # g_r(x) (the same numpy calls), and each computes sums of products
        # of these and x.  A value reached through at most K roundings on
        # any path is within gamma_K = K u / (1 - K u) of the exact one,
        # relative to the same expression in absolute values (Higham,
        # Accuracy and Stability, ch. 3), and for both routes that
        # expression is S (_terms_sum).  An addition with an exact zero
        # (a zero coefficient of P_jr, or a product with one) is exact, so
        # a sum of N nonzero terms rounds each at most N - 1 times.
        # Roundings on a path, fold + apply:
        # - x^k, k <= 8 (one nonzero coefficient per P_j, no basis): a
        #   coefficient of p, two terms, <= 2, Horner at degree <= 9 <= 18;
        #   Horner of P_j <= 8, einsum's product and sum over j <= 5, the
        #   product by x and the final sum <= 2: 20 + 15;
        # - exp(-a x^2) (P_j of degree j, every other coefficient zero): a
        #   coefficient of p, at most five terms, <= 5, Horner at degree 5
        #   <= 10, the product by g <= 1; Horner of P_4 <= 6, the product
        #   by g 1, then 5 + 2: 16 + 14;
        # - exp(a x), sin, cos (constant P_jr): a coefficient of p <= 5,
        #   Horner at degree 1 <= 2, the product by g_r and the sum over
        #   rows <= 2; the product by g_r and the sum over rows <= 2, then
        #   5 + 2: 9 + 9.
        # So |fold - apply| <= (gamma_20 + gamma_15) S < 41 u S.
        spec, x = _fold_case(name)
        scale = _terms_sum(spec, f.table, x)
        fold = f.table.fold(spec)
        assert fold.covers(float(np.abs(x).max()) + 1)
        error = np.abs(fold(x) - stein.apply(spec, f, x))
        assert (error <= 41 * _U * scale).all(), float((error / scale).max())

    @pytest.mark.parametrize("name", sorted(FOLD_SETS))
    @pytest.mark.parametrize("f", FOLD_FUNCTIONS,
                             ids=[f.label for f in FOLD_FUNCTIONS])
    def test_fold_at_a_scalar(self, f, name):
        # a Python float, a numpy scalar and a 0-d array keep every basis
        # row (an in-place product on a numpy scalar would rebind the name
        # and drop the row), within test_fold_matches_apply's bound
        build, mp = FOLD_SETS[name]
        spec = build(mp)
        fold = f.table.fold(spec)
        for point in POINTS:
            scale = _terms_sum(spec, f.table, np.array([point]))[0]
            for x in (float(point), np.float64(point), np.array(point)):
                error = abs(fold(x) - stein.apply(spec, f, x))
                assert error <= 41 * _U * scale, (type(x), float(error))

    @pytest.mark.parametrize("name", sorted(FOLD_SETS))
    @pytest.mark.parametrize("f", FOLD_FUNCTIONS,
                             ids=[f.label for f in FOLD_FUNCTIONS])
    def test_covered_reach_is_finite_on_both_routes(self, f, name):
        # the estimator folds a batch only where ``covers`` holds, so a
        # value is not finite on the fold where it is not on ``apply``,
        # and the estimator refuses the same streams
        build, mp = FOLD_SETS[name]
        spec = build(mp)
        fold = f.table.fold(spec)
        reaches = np.geomspace(1, 1e308, 155)
        x = np.concatenate([reaches, -reaches])
        with np.errstate(over="ignore", invalid="ignore"):
            by_apply = np.isfinite(stein.apply(spec, f, x))
            by_fold = np.isfinite(fold(x))
        covered = np.array([fold.covers(abs(v)) for v in x])
        assert (by_apply & by_fold)[covered].all()
        # the guarantee holds up to the first non-finite value of apply
        assert not covered[~by_apply].any()
        assert covered.any() and not covered.all()

    def test_tables_are_the_derivatives(self):
        # the table's polynomials by np.polyval give the rows of the
        # built-in's evaluate (the table's own Horner passes); a built-in,
        # table and all, stays hashable
        x = POINTS
        for f in FOLD_FUNCTIONS:
            assert hash(f) == hash(stein.TestFunction(f.evaluate, f.label,
                                                      f.table))
            derivs = f(x)
            basis = [np.ones_like(x)] if f.table.basis is None \
                else f.table.basis(x)
            for j, ps in enumerate(f.table.polys):
                got = sum(np.polyval(p, x) * g
                          for p, g in zip(ps, basis))
                np.testing.assert_allclose(got, derivs[j], rtol=1e-14,
                                           atol=1e-14, err_msg=f.label)


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

    @given(sx=st.integers(1, 64), sy=st.integers(1, 64),
           rho=st.integers(-31, 31), n=st.sampled_from([1, 2, 3, 7]))
    def test_a4_composed_with_l_prime_is_a1_exactly(self, sx, sy, rho, n):
        # A3 = A4 o L' with L' = (1 - rho^2) s_n^2 D^2 + 2 rho s_n D - 1, at
        # dyadic parameters, whose floats are exact Fractions.  L' has
        # constant coefficients, so the table of A4 o L' is a4's table
        # convolved with (-1, 2 rho s_n, (1 - rho^2) s_n^2), column by column
        mp = MeanParams(validate(0, 0, sx / 16, sy / 16, rho / 32), n)
        r, s_n = Fraction(rho, 32), Fraction(sx * sy, 256 * n)
        l_prime = (-1, 2 * r * s_n, (1 - r * r) * s_n * s_n)
        a4 = stein.a4_table(mp, Fraction)
        composed = tuple(
            tuple(sum(a4[j][col] * l_prime[m - j]
                      for j in range(max(0, m - 2), min(m, 2) + 1))
                  for col in (0, 1))
            for m in range(5))
        assert composed == stein.a1_table(mp, Fraction)
        # this inline convolution is _compose's independent oracle
        assert stein._compose(a4, l_prime) == composed

    @given(sx=st.integers(1, 64), sy=st.integers(1, 64),
           r=st.integers(-32, 32), rho=st.integers(-31, 31),
           n=st.sampled_from([1, 2, 3, 7]))
    def test_a2_composed_with_l_is_a1_exactly(self, sx, sy, r, rho, n):
        # A1 = A2 o L with L = (1 - rho) s_n D + 1 at equal mean-to-sd
        # ratios r (zero included), at dyadic parameters: mu = r sigma is
        # exact in floats, so the ratios are equal and every float an
        # exact Fraction
        mp = MeanParams(validate(r * sx / 256, r * sy / 256, sx / 16, sy / 16,
                                 rho / 32), n)
        rho_, s_n = Fraction(rho, 32), Fraction(sx * sy, 256 * n)
        composed = stein._compose(stein.a2_table(mp, Fraction),
                                  (1, (1 - rho_) * s_n))
        assert composed == stein.a1_table(mp, Fraction)

    # two dyadic sets per identity: equal ratios with rho of either sign,
    # and zero means at n = 1 and 3
    NULLSPACE_SETS = [("a1a2", (0.375, 0.5625, 0.75, 1.125, 0.25), 1),
                      ("a1a2", (-0.5, -1.0, 0.5, 1.0, -0.625), 2),
                      ("a3a4", (0, 0, 1.25, 0.5, 0.375), 1),
                      ("a3a4", (0, 0, 0.75, 1.5, -0.8125), 3)]

    @pytest.mark.parametrize("which, params, n", NULLSPACE_SETS)
    def test_composed_tables_annihilate_the_moments(self, which, params, n):
        # the exact order-4 search's candidate space holds the composed
        # table, an oracle that shares no code with the tables
        from normprod.opsearch import in_span, operator_exists
        mp = MeanParams(validate(*params), n)
        p = mp.base
        rho, s_n = Fraction(p.rho), Fraction(p.sigma_x) * Fraction(p.sigma_y) / n
        if which == "a1a2":
            composed = stein._compose(stein.a2_table(mp, Fraction),
                                      (1, (1 - rho) * s_n))
        else:
            composed = stein._compose(
                stein.a4_table(mp, Fraction),
                (-1, 2 * rho * s_n, (1 - rho * rho) * s_n * s_n))
        basis = operator_exists(mp, 4).nullspace_basis
        assert in_span([v for pair in composed for v in pair], basis)

    @pytest.mark.parametrize("which", ["a1a2", "a3a4"])
    def test_tiny_scales_answer_or_refuse(self, which):
        # near sigma_x sigma_y = 1e-81 the top pairs underflow; at
        # (0, 0, 1.254e-81, 1, 0.3) the composed one did where A1's did
        # not, and the check ended in a bare ValueError from the spec
        for s in np.geomspace(1e-82, 1e-80, 200):
            mu = (0.5 * s, 0.25) if which == "a1a2" else (0, 0)
            mp = MeanParams(validate(*mu, s, 0.5, 0.3), 1)
            try:
                residual = stein.substitution_identity_check(
                    mp, stein.monomial(4), 0.3, which)
            except NotConverged:
                continue
            assert residual <= 1e-9

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
        with pytest.raises(ValueError, match="unknown identity"):
            stein.substitution_identity_check(general, stein.monomial(2), 1.0,
                                              "a2a1")


def _proportional(table, other) -> bool:
    """Whether two coefficient tables agree up to a nonzero scalar factor,
    exactly."""
    flat = [Fraction(v) for pair in table for v in pair]
    ref = [Fraction(v) for pair in other for v in pair]
    if len(flat) != len(ref):
        return False
    k = next(i for i, v in enumerate(ref) if v)
    factor = flat[k] / ref[k]
    return factor != 0 and all(a == factor * b for a, b in zip(flat, ref))


class TestLiteratureOperators:
    """The published operators the tables generalise, each written out
    here in Fraction from its own parametrisation."""

    @staticmethod
    def _random_zero_mean(rng, n):
        sx, sy = rng.uniform(0.2, 3, 2)
        return MeanParams(validate(0, 0, sx, sy, rng.uniform(-0.95, 0.95)), n)

    @staticmethod
    def variance_gamma(r, theta, sigma2):
        # Gaunt (EJP 2014): sigma^2 x f'' + (sigma^2 r + 2 theta x) f'
        # + (r theta - x) f, for the VG(r, theta, sigma, mu = 0) law
        return ((r * theta, -1), (sigma2 * r, 2 * theta), (0, sigma2))

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 8])
    def test_variance_gamma_is_a4(self, rng, n):
        # the mean of n zero-mean products is VG with r = n, theta =
        # rho s_n and sigma^2 = (1 - rho^2) s_n^2
        for _ in range(5):
            mp = self._random_zero_mean(rng, n)
            p = mp.base
            rho = Fraction(p.rho)
            s_n = Fraction(p.sigma_x) * Fraction(p.sigma_y) / n
            vg = self.variance_gamma(n, rho * s_n, (1 - rho * rho) * s_n * s_n)
            assert _proportional(stein.a4_table(mp, Fraction), vg)

    def test_variance_gamma_at_one_uncorrelated_product_is_a5(self):
        # dyadic sigmas, so a5's float entries are the exact values
        for sx, sy in [(1, 1), (0.5, 2), (1.25, 0.75), (3, 0.375)]:
            mp = MeanParams(validate(0, 0, sx, sy, 0), 1)
            s = Fraction(sx) * Fraction(sy)
            vg = self.variance_gamma(1, 0, s * s)
            assert _proportional(stein.operator_special("a5", mp).coeffs, vg)

    def test_correlated_product_operator_is_a4_at_n_1(self, rng):
        # Gaunt (Bernoulli 2017), Z = XY with zero means, variances
        # sx^2, sy^2 and correlation rho:
        # (1 - rho^2) sx^2 sy^2 x f'' + ((1 - rho^2) sx^2 sy^2
        # + 2 rho sx sy x) f' + (rho sx sy - x) f
        for _ in range(10):
            mp = self._random_zero_mean(rng, 1)
            p = mp.base
            sx, sy, rho = map(Fraction, (p.sigma_x, p.sigma_y, p.rho))
            v = (1 - rho * rho) * sx * sx * sy * sy
            product = ((rho * sx * sy, -1), (v, 2 * rho * sx * sy), (0, v))
            assert _proportional(stein.a4_table(mp, Fraction), product)
