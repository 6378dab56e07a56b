import random
from fractions import Fraction

import pytest
import sympy

from normprod import (
    MeanParams,
    NotSquare,
    OperatorAnsatz,
    ParameterNotRational,
    determinant_exact,
    in_span,
    moment_system,
    nullspace_exact,
    operator_exists,
    raw_moments_exact,
    to_fraction,
    validate,
)
from normprod.opsearch import EXTRA_ROWS
from normprod.stein import operator_a1, operator_a2

ONE_ZERO = MeanParams(validate(1, 0, 1, 1, 0), 1)


def flatten_operator(spec):
    """Operator coefficient table in the search's column order
    (a00, a10, a01, a11, ...)."""
    return [v for pair in spec.coeffs for v in pair]


def expectation_of_ansatz(mp, order, vector, kmax):
    """E[A x^k] for k = 0..kmax, exactly, for the flattened coefficients."""
    import math
    mu = raw_moments_exact(mp, kmax + order + 1)
    out = []
    for k in range(kmax + 1):
        total = Fraction(0)
        for j in range(order + 1):
            if j > k:
                continue
            c = Fraction(math.factorial(k), math.factorial(k - j))
            a0, a1 = vector[2 * j], vector[2 * j + 1]
            total += c * (to_fraction(a0) * mu[k - j]
                          + to_fraction(a1) * mu[k - j + 1])
        out.append(total)
    return out


class TestToFraction:
    def test_exact_float_conversion(self):
        assert to_fraction(0.5) == Fraction(1, 2)
        assert to_fraction(0.1) == Fraction(0.1)  # exact binary value

    def test_accepts_rationals_and_strings(self):
        assert to_fraction(Fraction(2, 3)) == Fraction(2, 3)
        assert to_fraction(7) == 7
        assert to_fraction("3/4") == Fraction(3, 4)

    def test_rejects_non_rationals(self):
        with pytest.raises(ParameterNotRational):
            to_fraction(1 + 2j)
        with pytest.raises(ParameterNotRational):
            to_fraction("pi")


class TestMomentSystem:
    def test_displayed_eight_by_eight_system(self):
        # order 3, one zero mean: the published 8x8 integer system
        rows = moment_system(ONE_ZERO, OperatorAnsatz(3), 8)
        expected = [
            [1, 0, 0, 0, 0, 0, 0, 0],
            [0, 2, 1, 0, 0, 0, 0, 0],
            [2, 0, 0, 4, 2, 0, 0, 0],
            [0, 30, 6, 0, 0, 12, 6, 0],
            [30, 0, 0, 120, 24, 0, 0, 48],
            [0, 1140, 150, 0, 0, 600, 120, 0],
            [1140, 0, 0, 6840, 900, 0, 0, 3600],
            [0, 80220, 7980, 0, 0, 47880, 6300, 0],
        ]
        assert rows == [[Fraction(v) for v in row] for row in expected]

    def test_determinant_frozen_value(self):
        rows = moment_system(ONE_ZERO, OperatorAnsatz(3), 8)
        assert determinant_exact(rows) == 125411328000

    def test_rejects_irrational_like_parameters(self):
        import math
        mp = MeanParams(validate(math.pi, 0, 1, 1, 0), 1)
        # floats are exact rationals, so this must succeed, not raise
        moment_system(mp, OperatorAnsatz(2), 4)


class TestExactLinearAlgebra:
    def test_determinant_not_square(self):
        with pytest.raises(NotSquare):
            determinant_exact([[Fraction(1), Fraction(2)]])

    def test_determinant_with_fractions(self):
        m = [[Fraction(1, 2), Fraction(1, 3)], [Fraction(1, 4), Fraction(1, 5)]]
        assert determinant_exact(m) == Fraction(1, 60)
        assert determinant_exact([]) == 1  # the empty product

    def test_determinant_singular(self):
        m = [[Fraction(1), Fraction(2)], [Fraction(2), Fraction(4)]]
        assert determinant_exact(m) == 0

    def test_nullspace_of_full_rank_is_empty(self):
        m = [[Fraction(1), Fraction(0)], [Fraction(0), Fraction(1)]]
        assert nullspace_exact(m) == []

    def test_nullspace_vector_annihilated(self):
        m = [[Fraction(1), Fraction(2), Fraction(3)],
             [Fraction(2), Fraction(4), Fraction(6)]]
        basis = nullspace_exact(m)
        assert len(basis) == 2
        for vec in basis:
            for row in m:
                assert sum(a * b for a, b in zip(row, vec)) == 0

    def test_in_span(self):
        basis = [[Fraction(1), Fraction(0), Fraction(1)],
                 [Fraction(0), Fraction(1), Fraction(1)]]
        assert in_span([2, 3, 5], basis)
        assert not in_span([1, 0, 0], basis)
        assert in_span([0, 0, 0], [])
        assert not in_span([1, 0], [])

    def test_agrees_with_sympy_on_rectangular_matrices(self):
        # each matrix is the product of random (rows x rank) and
        # (rank x cols) small-rational factors, so its rank is at most
        # the chosen one, from 0 to full
        rng = random.Random(15)

        def factor(rows, cols):
            return sympy.Matrix(rows, cols, lambda i, j: sympy.Rational(
                rng.randint(-4, 4), rng.randint(1, 4)))

        def fraction(v):
            return Fraction(int(v.p), int(v.q))

        def fractions(vectors):
            return [[fraction(v) for v in vec] for vec in vectors]

        for _ in range(300):
            n_rows, n_cols = rng.randint(1, 7), rng.randint(1, 7)
            rank = rng.randint(0, min(n_rows, n_cols))
            m = factor(n_rows, rank) * factor(rank, n_cols)
            rows = fractions(m.tolist())
            assert nullspace_exact(rows) == fractions(m.nullspace())
            if n_rows == n_cols:
                assert determinant_exact(rows) == fraction(m.det())
            weights = [rng.randint(-3, 3) for _ in rows]
            combination = [sum(w * row[j] for w, row in zip(weights, rows))
                           for j in range(n_cols)]
            shifted = list(combination)
            shifted[rng.randrange(n_cols)] += 1
            for vector in (combination, shifted):
                grown = m.col_join(sympy.Matrix([vector]))
                assert in_span(vector, rows) == (grown.rank() == m.rank())


class TestOperatorExistence:
    def test_no_third_order_for_one_zero_mean(self):
        result = operator_exists(ONE_ZERO, 3, 8)
        assert not result.exists
        assert result.nullspace_basis == ()

    def test_fourth_order_exists_and_contains_known_operator(self):
        result = operator_exists(ONE_ZERO, 4)
        assert result.exists
        target = flatten_operator(operator_a1(ONE_ZERO))
        assert in_span(target, [list(v) for v in result.nullspace_basis])

    def test_third_order_exists_for_equal_ratios(self):
        mp = MeanParams(validate(1.5, 1.5, 1, 1, 0.25), 2)
        result = operator_exists(mp, 3)
        assert result.exists
        target = flatten_operator(operator_a2(mp))
        assert in_span(target, [list(v) for v in result.nullspace_basis])

    def test_nullspace_monotone_in_rows(self):
        small = operator_exists(ONE_ZERO, 4, 10)
        large = operator_exists(ONE_ZERO, 4, 10 + EXTRA_ROWS)
        assert len(large.nullspace_basis) <= len(small.nullspace_basis)
        for vec in large.nullspace_basis:
            assert in_span(list(vec), [list(v) for v in small.nullspace_basis])

    def test_candidates_annihilate_deep_monomials(self):
        # nullspace vectors keep annihilating monomials beyond the rows used
        result = operator_exists(ONE_ZERO, 4)
        for vec in result.nullspace_basis:
            assert all(v == 0 for v in expectation_of_ansatz(ONE_ZERO, 4,
                                                             list(vec), 12))

    def test_too_few_equations_rejected(self):
        with pytest.raises(ValueError):
            operator_exists(ONE_ZERO, 3, 5)

    def test_ansatz_validation(self):
        with pytest.raises(ValueError):
            OperatorAnsatz(0)
