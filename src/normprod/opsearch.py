"""Exact-arithmetic search for Stein operators with linear coefficients.

An order-m ansatz sum_j (a0j + a1j x) f^(j) applied to monomials x^k
gives one linear equation per k in the 2(m+1) unknowns, with entries
built from exact raw moments (the moment recursion has rational
coefficients whenever the parameters are rational, so the moments are
exact Fractions).  A nontrivial exact nullspace is a necessary-condition
screen for existence; a trivial one rules the order out over the
monomial dictionary.  One fraction-free (Bareiss) elimination gives the
determinant, the nullspace and the span test.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from numbers import Rational
from typing import Sequence

from .errors import InvalidOrder, NotSquare, ParameterNotRational
from .moments import raw_moments_exact
from .params import MeanParams, int_at_least


def to_fraction(value) -> Fraction:
    """Exact rational conversion; floats convert via their exact binary value."""
    if not isinstance(value, (Rational, float, str)):
        raise ParameterNotRational(f"{value!r} is not a rational parameter")
    try:
        return Fraction(value)
    except (ValueError, OverflowError) as exc:  # "pi", NaN, inf
        raise ParameterNotRational(f"cannot parse {value!r} as a rational") from exc


@dataclass(frozen=True)
class OperatorAnsatz:
    """Order-m linear-coefficient ansatz with 2(m+1) unknowns a_{i,j}."""

    order: int

    def __post_init__(self):
        object.__setattr__(self, "order", int_at_least(
            "order", self.order, 1, InvalidOrder))

    @property
    def num_unknowns(self) -> int:
        return 2 * (self.order + 1)


#: Extra rows beyond the square system, guarding against accidental
#: low-rank coincidences at the minimal size.
EXTRA_ROWS = 4


def moment_system(mp: MeanParams, ansatz: OperatorAnsatz,
                  num_equations: int) -> list[list[Fraction]]:
    """Exact matrix whose row k encodes E[A(x^k)] = 0.

    Applying the ansatz to x^k gives sum_j (a0j + a1j x) k!/(k-j)! x^(k-j),
    so the entry for a0j is (k!/(k-j)!) mu'_{k-j} and for a1j it is
    (k!/(k-j)!) mu'_{k-j+1}.  Columns are ordered (a00, a10, a01, a11, ...).
    Row k depends on k alone, so a taller system extends a shorter one.
    InvalidCount unless num_equations is an integer >= 1.
    """
    num_equations = int_at_least("num_equations", num_equations)
    mu = raw_moments_exact(mp, num_equations + ansatz.order)
    rows = []
    for k in range(num_equations):
        row = []
        for j in range(ansatz.order + 1):
            if j <= k:
                c = Fraction(math.factorial(k), math.factorial(k - j))
                row.extend((c * mu[k - j], c * mu[k - j + 1]))
            else:
                row.extend((Fraction(0), Fraction(0)))
        rows.append(row)
    return rows


def _echelon(matrix: Sequence[Sequence[Fraction]]):
    """Fraction-free (Bareiss) row echelon form of ``matrix``.

    Each row is scaled to integers first.  A column with no nonzero entry
    at or below the current row has no pivot and is skipped, so
    rectangular and rank-deficient matrices reduce too; every division
    stays exact.  Returns the integer rows, the pivot columns, the sign
    of the row swaps and the product of the row scales.
    """
    scale = 1
    a = []
    for row in matrix:
        row = [Fraction(v) for v in row]
        lcm = math.lcm(*(f.denominator for f in row))
        scale *= lcm
        a.append([int(f * lcm) for f in row])
    n_rows, n_cols = len(a), len(a[0]) if a else 0
    pivots, sign, prev = [], 1, 1
    for c in range(n_cols):
        r = len(pivots)
        pivot = next((i for i in range(r, n_rows) if a[i][c] != 0), None)
        if pivot is None:
            continue
        if pivot != r:
            a[r], a[pivot] = a[pivot], a[r]
            sign = -sign
        for i in range(r + 1, n_rows):
            for j in range(c + 1, n_cols):
                a[i][j] = (a[i][j] * a[r][c] - a[i][c] * a[r][j]) // prev
            a[i][c] = 0
        prev = a[r][c]
        pivots.append(c)
    return a, pivots, sign, scale


def determinant_exact(matrix: Sequence[Sequence[Fraction]]) -> Fraction:
    """Exact determinant: the last Bareiss pivot over the row scales, so
    the result is the determinant of the matrix as given."""
    n = len(matrix)
    if any(len(row) != n for row in matrix):
        raise NotSquare("determinant requires a square matrix")
    if n == 0:
        return Fraction(1)
    a, pivots, sign, scale = _echelon(matrix)
    if len(pivots) < n:
        return Fraction(0)
    return Fraction(sign * a[n - 1][n - 1], scale)


def nullspace_exact(matrix: Sequence[Sequence[Fraction]]) -> list[list[Fraction]]:
    """Basis of the exact right nullspace, one vector per free column:
    that column set to 1, the other free ones to 0, and the pivot
    unknowns back-substituted from the echelon rows.  This is the
    reduced-row-echelon basis, which is unique."""
    a, pivots, _, _ = _echelon(matrix)
    n_cols = len(a[0]) if a else 0
    basis = []
    for fc in (c for c in range(n_cols) if c not in pivots):
        vec = [Fraction(0)] * n_cols
        vec[fc] = Fraction(1)
        for r in reversed(range(len(pivots))):
            pc, row = pivots[r], a[r]
            vec[pc] = Fraction(-sum(row[j] * vec[j] for j in
                                    range(pc + 1, n_cols) if vec[j]), row[pc])
        basis.append(vec)
    return basis


@dataclass(frozen=True)
class OperatorSearchResult:
    nullspace_basis: tuple[tuple[Fraction, ...], ...]

    @property
    def exists(self) -> bool:
        return bool(self.nullspace_basis)


def operator_exists(mp: MeanParams, order: int,
                    num_equations: int | None = None) -> OperatorSearchResult:
    """Whether an order-``order`` linear-coefficient operator annihilates
    all tested monomials, with the exact candidate space when it does.

    Vanishing on monomials is necessary, not sufficient: a nontrivial
    nullspace yields candidates, a trivial one is a rigorous nonexistence
    proof over this dictionary.  More equations can only shrink the
    nullspace, so the default over-determines by EXTRA_ROWS.
    """
    ansatz = OperatorAnsatz(order)
    if num_equations is None:
        num_equations = ansatz.num_unknowns + EXTRA_ROWS
    int_at_least("num_equations", num_equations, ansatz.num_unknowns)
    system = moment_system(mp, ansatz, num_equations)
    return OperatorSearchResult(tuple(map(tuple, nullspace_exact(system))))


def in_span(vector: Sequence, basis: Sequence[Sequence[Fraction]]) -> bool:
    """Whether ``vector`` lies in the exact span of ``basis``: appending
    it leaves the rank unchanged."""
    vec = [to_fraction(v) for v in vector]
    return len(_echelon([*basis, vec])[1]) == len(_echelon(basis)[1])
