import math
import tracemalloc

import mpmath
import numpy as np
import pytest

from normprod import (
    BesselOrder,
    InvalidOrder,
    NonPositiveArgument,
    OverflowUnscaled,
    bessel_k,
    bessel_k_sequence,
    log_bessel_k,
    log_bessel_k_sequence,
)
from normprod.bessel import MAX_SEQUENCE_LENGTH


def oracle_log_k(nu: float, x: float, dps: int = 30) -> float:
    """Independent oracle: K_nu(x) = int_0^T e^{-x cosh t} cosh(nu t) dt.

    The upper limit T is pushed until the integrand is provably below the
    working precision (the tail decays doubly exponentially).
    """
    budget = (dps + 20) * math.log(10)
    upper = 5.0
    while x * math.cosh(upper) - abs(nu) * upper < budget:
        upper += 1.0
    # split points around the peak at t=0 (width ~ 1/sqrt(x)) guide the
    # quadrature when x is large and the integrand is a narrow spike
    width = 1.0 / math.sqrt(max(x, 1.0))
    splits = sorted({0.0, min(width, upper), min(4 * width, upper), upper})
    with mpmath.workdps(dps):
        # integrate e^x K_nu to keep the integrand O(1); quad's stopping
        # rule is absolute, so tiny magnitudes would lose relative digits
        val = mpmath.quad(
            lambda t: mpmath.exp(x - x * mpmath.cosh(t)) * mpmath.cosh(nu * t),
            splits)
        return float(mpmath.log(val)) - x


class TestOrder:
    def test_from_nu_forms(self):
        assert BesselOrder.from_nu(3).twice_nu == 6
        assert BesselOrder.from_nu("1/2").twice_nu == 1
        assert BesselOrder.from_nu(2.5).twice_nu == 5

    def test_rejects_other_orders(self):
        with pytest.raises(ValueError):
            BesselOrder.from_nu(0.3)

    @pytest.mark.parametrize("nu", [0.3, "abc", "1/0", float("inf"),
                                    float("nan"), None])
    def test_bad_order_is_invalid_order(self, nu):
        # "abc" and "1/0" used to escape as Fraction's own ValueError and
        # ZeroDivisionError
        with pytest.raises(InvalidOrder, match="integer or half-integer"):
            BesselOrder.from_nu(nu)

    def test_negative_order_symmetry(self):
        x = 1.7
        assert log_bessel_k(BesselOrder(-5), x) == log_bessel_k(BesselOrder(5), x)


class TestValues:
    # frozen values computed once from the integral-representation oracle
    FROZEN = [
        (0.0, 1.0, 0.4210244382407083),
        (1.0, 1.0, 0.6019072301972346),
        (0.5, 2.0, 0.11993777196806142),
        (3.0, 0.5, 62.05790952993026),
    ]

    @pytest.mark.parametrize("nu,x,expected", FROZEN)
    def test_frozen_values(self, nu, x, expected):
        got = bessel_k(BesselOrder.from_nu(nu), x)
        assert got == pytest.approx(expected, rel=1e-12)

    def test_half_integer_closed_form(self):
        x = 1.3
        expected = math.sqrt(math.pi / (2 * x)) * math.exp(-x)
        assert bessel_k(BesselOrder.from_nu(0.5), x) == pytest.approx(
            expected, rel=1e-14)

    @pytest.mark.parametrize("nu", [0, 1, 2, 5, 9, 0.5, 1.5, 7.5])
    @pytest.mark.parametrize("x", [0.1, 0.7, 2.0, 10.0])
    def test_grid_against_integral_oracle(self, nu, x):
        got = log_bessel_k(BesselOrder.from_nu(nu), x)
        assert got == pytest.approx(oracle_log_k(nu, x), abs=1e-10, rel=1e-10)

    def test_recurrence_residual(self):
        # K_{nu+1} - K_{nu-1} - (2 nu / x) K_nu = 0 along the sequence
        x = 2.4
        seq = bessel_k_sequence(BesselOrder(20), x)
        for i in range(1, len(seq) - 1):
            resid = seq[i + 1] - seq[i - 1] - (2 * i / x) * seq[i]
            assert abs(resid) / seq[i + 1] < 1e-10

    def test_large_order_small_x_in_log_space(self):
        # far beyond double range; only the log-space value is representable
        log_val = log_bessel_k(BesselOrder.from_nu(400), 1e-8)
        assert math.isfinite(log_val)
        assert log_val > math.log(np.finfo(float).max)


class TestExtremeArguments:
    # scipy's kve is NaN past x = 2^30 and inf below about 2e-305, and
    # 1/x and 2 nu/x overflow near the smallest subnormal
    @pytest.mark.parametrize("nu", [0, 1, 2, 0.5, 1.5, 7.5])
    @pytest.mark.parametrize("x", [5e-324, 1e-310, 1e-300, 1e9, 2e9, 1.7e308])
    def test_against_mpmath(self, nu, x):
        got = log_bessel_k(BesselOrder.from_nu(nu), x)
        with mpmath.workdps(30):
            ref = float(mpmath.log(mpmath.besselk(nu, mpmath.mpf(x))))
        assert got == pytest.approx(ref, rel=1e-14)

    @pytest.mark.parametrize("order", [BesselOrder(40), BesselOrder(41)])
    def test_sequence_finite_at_largest_double(self, order):
        # kve is NaN here, and was the seed of every order
        logs = log_bessel_k_sequence(order, 1.7e308)
        assert len(logs) == 21 and np.all(np.isfinite(logs))

    def test_order_two_below_double_range(self):
        # K_2(x) ~ 2/x^2 as x -> 0; was inf
        assert log_bessel_k(BesselOrder(4), 1e-310) == pytest.approx(
            math.log(2) + 2 * 310 * math.log(10), rel=1e-15)


class TestErrors:
    @pytest.mark.parametrize("x", [0.0, -1.0])
    def test_nonpositive_argument(self, x):
        with pytest.raises(NonPositiveArgument):
            bessel_k(BesselOrder(0), x)

    def test_infinite_argument(self):
        # every order, scaled or not, vanishes at x = inf
        for order in (BesselOrder(0), BesselOrder(1), BesselOrder(7)):
            assert list(log_bessel_k_sequence(order, math.inf)) == \
                [-math.inf] * (order.twice_nu // 2 + 1)
            assert bessel_k(order, math.inf) == 0
            assert bessel_k(order, math.inf, scaled=True) == 0
            assert list(bessel_k_sequence(order, math.inf, scaled=True)) == \
                [0.0] * (order.twice_nu // 2 + 1)

    def test_order_past_the_cap_is_refused_before_allocating(self):
        order = BesselOrder(2 * MAX_SEQUENCE_LENGTH)  # one order too many
        tracemalloc.start()
        try:
            for x in (1.0, math.inf):
                with pytest.raises(InvalidOrder, match="recurrence steps"):
                    log_bessel_k_sequence(order, x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < MAX_SEQUENCE_LENGTH  # the array would take 8 bytes each

    def test_overflow_unscaled(self):
        with pytest.raises(OverflowUnscaled):
            bessel_k(BesselOrder.from_nu(400), 1e-8)

    def test_scaled_avoids_underflow(self):
        x = 800.0
        assert bessel_k(BesselOrder(0), x, scaled=True) == pytest.approx(
            math.exp(oracle_log_k(0, x) + x), rel=1e-10)
