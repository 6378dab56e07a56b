import inspect
import math
import subprocess
import sys
import time
import warnings

import mpmath
import numpy as np
import pytest
from scipy import integrate

from normprod import (
    CaseMismatch,
    MeanParams,
    NonFiniteParameter,
    NormProdError,
    NotConverged,
    SingularPoint,
    cdf_product,
    cdf_product_series,
    closed_form_four,
    mean_zero_means_derivatives,
    ode_residual_density,
    pdf_mean_zero_means,
    pdf_product,
    pdf_product_derivatives,
    pdf_product_series,
    pdf_single_zero_mean,
    validate,
)
from conftest import NORMALIZATION_SWEEP, random_mean_params

_EPS = np.finfo(float).eps
GRID = np.concatenate([np.linspace(-4, -0.05, 20), np.linspace(0.05, 4, 21)])


@pytest.mark.parametrize("a", [[], [-np.inf, -np.inf], [-np.inf, 0.3],
                               [700.0, 710.0, -745.0], [-1000.0, -1001.5]])
def test_logsumexp_matches_scipy(a):
    from scipy import special
    from normprod.density import _logsumexp
    assert _logsumexp(np.array(a)) == pytest.approx(
        special.logsumexp(np.array(a, dtype=float)), rel=1e-15)


@pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("density", [
    lambda x: pdf_product(validate(1, 2, 1.3, 0.7, 0.4), x),
    lambda x: pdf_product_series(validate(1, 2, 1.3, 0.7, 0.4), x),
    lambda x: pdf_single_zero_mean(validate(1, 0, 1, 1, 0), x),
    lambda x: pdf_mean_zero_means(MeanParams(validate(0, 0, 1, 1, 0.2), 3), x),
    lambda x: pdf_product_derivatives(validate(1, 2, 1.3, 0.7, 0.4), x),
    lambda x: mean_zero_means_derivatives(
        MeanParams(validate(0, 0, 1, 1, 0.2), 3), x),
], ids=["product", "series", "single", "zero_means", "derivatives",
        "zero_means_derivatives"])
def test_non_finite_x_rejected(density, x):
    # used to raise a bare ValueError, NonPositiveArgument or return NaN
    with pytest.raises(NonFiniteParameter):
        density(x)


@pytest.mark.parametrize("cdf", [cdf_product, cdf_product_series])
def test_cdf_at_non_finite_x(cdf):
    # the series CDF used to return 0.5 at NaN
    p = validate(0.6, -0.8, 1.0, 1.2, 0.25)
    assert cdf(p, -math.inf) == 0.0 and cdf(p, math.inf) == 1.0
    with pytest.raises(NonFiniteParameter):
        cdf(p, math.nan)


# 7-point central stencils on x + k h, k = -3..3, for derivative orders
# 1..4: (weights, power of h, order of accuracy).
STENCILS = {
    1: (np.array([-1.0, 9.0, -45.0, 0.0, 45.0, -9.0, 1.0]) / 60.0, 1, 6),
    2: (np.array([2.0, -27.0, 270.0, -490.0, 270.0, -27.0, 2.0]) / 180.0, 2, 6),
    3: (np.array([1.0, -8.0, 13.0, 0.0, -13.0, 8.0, -1.0]) / 8.0, 3, 4),
    4: (np.array([-1.0, 12.0, -39.0, 56.0, -39.0, 12.0, -1.0]) / 6.0, 4, 4),
}


def _central_differences(p, x):
    """Test-only oracle for ``pdf_product_derivatives``: Richardson-
    extrapolated central differences of ``pdf_product`` at steps h and h/2,
    h = max(1e-2, 1e-2 |x|) (smaller steps are noise-dominated for the
    fourth derivative)."""
    h = max(1e-2, 1e-2 * abs(x))
    f_h = np.array([pdf_product(p, x + k * h).value for k in range(-3, 4)])
    f_h2 = np.array([pdf_product(p, x + k * h / 2).value
                     for k in range(-3, 4)])
    out = [float(f_h[3])]
    for order in range(1, 5):
        weights, power, acc = STENCILS[order]
        d_h = weights @ f_h / h ** power
        d_h2 = weights @ f_h2 / (h / 2) ** power
        out.append((2.0 ** acc * d_h2 - d_h) / (2.0 ** acc - 1.0))
    return out


def _mpmath_zero_mean_derivatives(sx, sy, rho, n, x, dps):
    """Test-only oracle for ``mean_zero_means_derivatives``: the Taylor
    coefficients of the closed form p = C |x|^nu e^(rho c x) K_nu(c|x|),
    times k!, in mpmath at ``dps`` digits, by the Leibniz rule over the
    three factors with K_nu^(j)(z) = (-1/2)^j sum_i C(j, i) K_(nu-j+2i)(z)
    (DLMF 10.29.5); ``mpmath.taylor`` of integer-order ``besselk`` took
    0.4-5 s a point."""
    mpf = mpmath.mpf
    with mpmath.workdps(dps):
        rho, x = mpf(rho), mpf(x)
        om, s_n = 1 - rho ** 2, mpf(sx) * mpf(sy) / n
        c, nu, sgn, ax = 1 / (s_n * om), mpf(n - 1) / 2, mpmath.sign(x), abs(x)
        pref = (mpf(2) ** -nu / (s_n ** (mpf(n + 1) / 2)
                                 * mpmath.sqrt(mpmath.pi * om)
                                 * mpmath.gamma(mpf(n) / 2)))
        power = [mpmath.ff(nu, j) * sgn ** j * ax ** (nu - j) for j in range(5)]
        expo = [(rho * c) ** j * mpmath.exp(rho * c * x) for j in range(5)]
        bessel = [(-c * sgn / 2) ** j * mpmath.fsum(
            mpmath.binomial(j, i) * mpmath.besselk(abs(nu - j + 2 * i), c * ax)
            for i in range(j + 1)) for j in range(5)]
        return [float(pref * mpmath.fsum(
            mpmath.factorial(k) / (mpmath.factorial(a) * mpmath.factorial(b)
                                   * mpmath.factorial(k - a - b))
            * power[a] * expo[b] * bessel[k - a - b]
            for a in range(k + 1) for b in range(k + 1 - a))) for k in range(5)]


class TestDoubleSeries:
    def test_double_equals_single_series(self):
        # one zero mean, uncorrelated: the double series collapses
        p = validate(1.0, 0.0, 1.3, 0.8, 0.0)
        for x in GRID:
            a = pdf_product_series(p, x)
            b = pdf_single_zero_mean(p, x)
            assert a.value == pytest.approx(b.value, rel=1e-10)

    def test_double_equals_zero_mean_closed_form(self):
        p = validate(0.0, 0.0, 1.1, 0.9, 0.35)
        mp = MeanParams(p, 1)
        for x in GRID:
            a = pdf_product_series(p, x)
            b = pdf_mean_zero_means(mp, x)
            assert a.value == pytest.approx(b.value, rel=1e-10)

    def test_symmetry_in_factors(self):
        pa = validate(0.7, -1.4, 1.2, 0.6, 0.25)
        pb = validate(-1.4, 0.7, 0.6, 1.2, 0.25)
        for x in (-2.0, -0.3, 0.4, 1.7):
            assert pdf_product(pa, x).value == pytest.approx(
                pdf_product(pb, x).value, rel=1e-12)

    @pytest.mark.parametrize("tup", NORMALIZATION_SWEEP)
    def test_normalization(self, tup):
        from normprod.density import _pdf_value, _tail_cutoff
        p = validate(*tup)
        cut = _tail_cutoff(p, log_eps=-35.0)
        left, _ = integrate.quad(lambda t: _pdf_value(p, t), -cut, 0,
                                 limit=200, epsabs=1e-7)
        right, _ = integrate.quad(lambda t: _pdf_value(p, t), 0, cut,
                                  limit=200, epsabs=1e-7)
        assert left + right == pytest.approx(1.0, abs=1e-6)

    def test_high_cancellation_point_matches_reference(self):
        # strongly correlated with mixed-sign means: the signed series
        # cancels past double precision and the high-precision path takes
        # over; reference value from an independent 60-digit summation
        p = validate(-1.5437, -0.1977, 0.5619, 0.7627, 0.8354)
        dv = pdf_product_series(p, 5.0)
        assert dv.converged and dv.sign == 1
        assert dv.value == pytest.approx(0.011243362755883567, rel=1e-12)

    # log f(x) at (1.0, -2.0, 1.3, 0.7, 0.6), far out in both tails and next
    # to the log singularity at 0, from mpmath.quad of the positive integral
    # in s = log|u| at 40 digits on a window centred on the integrand's peak
    # (a window off the peak misses it by ~1e-7); the 30-digit summation of
    # the series agrees to 1e-16.
    FAR_POINTS = {1000.0: -650.85469868331635743218485408957413,
                  -1000.0: -2460.4743017146309895979953659245646,
                  1e-30: -2.1815812089834555383052560165783191}

    @pytest.mark.parametrize("x", sorted(FAR_POINTS))
    def test_far_points_match_reference(self, x):
        p = validate(1.0, -2.0, 1.3, 0.7, 0.6)
        for dv in (pdf_product(p, x), pdf_product_series(p, x)):
            assert dv.converged and dv.sign == 1
            assert dv.log_abs == pytest.approx(self.FAR_POINTS[x], abs=1e-12)

    MODERATE_CANCELLATION = ((0.692903960055212, -0.7675918127118839,
                              1.6927419894553755, 1.2538883759832515,
                              0.8658504229826455), 12.878764139338028)

    def test_moderate_cancellation_point_matches_reference(self):
        # a point of the random-parameter pdf catalogue where the signed
        # series cancels by 15.6 nats and, summed in double precision, is
        # off by 1.5e-8 in log; reference from mpmath.quad as above
        tup, x = self.MODERATE_CANCELLATION
        dv = pdf_product(validate(*tup), x)
        assert dv.log_abs == pytest.approx(-5.9466186953567077007, abs=1e-12)

    @pytest.mark.parametrize("tup, x", [
        ((-1.5437, -0.1977, 0.5619, 0.7627, 0.8354), 5.0),
        MODERATE_CANCELLATION])
    def test_cancelling_series_raises(self, tup, x):
        # past 8 nats of cancellation the signed sum is refused, not
        # returned as a value or a sentinel
        from normprod.density import _combine_series, _series_parts
        with pytest.raises(NotConverged, match="cancels"):
            _combine_series(*_series_parts(validate(*tup), x))

    def test_moment_consistency_with_closed_forms(self):
        p = validate(0.8, -0.5, 1.0, 1.4, 0.3)
        mp = MeanParams(p, 1)
        raw = closed_form_four(mp).raw
        for k in (1, 2, 3, 4):
            def f(t, k=k):
                return t ** k * pdf_product(p, t).value if t != 0 else 0.0
            left, _ = integrate.quad(f, -np.inf, 0, limit=300)
            right, _ = integrate.quad(f, 0, np.inf, limit=300)
            assert left + right == pytest.approx(raw[k - 1], rel=1e-6)

    def test_singular_at_zero(self):
        with pytest.raises(SingularPoint):
            pdf_product(validate(1, 2, 1, 1, 0.3), 0.0)

    def test_not_converged_with_tiny_budget(self, monkeypatch):
        # a series cut short falls back to the integral; NotConverged
        # surfaces only where the integral exceeds its node budget too
        from normprod import density
        monkeypatch.setattr(density, "_SERIES_BLOCKS", 3)
        p = validate(3, 3, 1, 1, 0.0)
        with pytest.raises(NotConverged, match="3 blocks insufficient"):
            density._series_parts(p, 8.0)
        assert pdf_product_series(p, 8.0).log_abs == pytest.approx(
            pdf_product(p, 8.0).log_abs, abs=1e-12)
        with pytest.raises(NotConverged):
            pdf_product_series(validate(1.0, -2.0, 1.3, 0.7, 0.9999), 3.0)

    def test_series_not_converged_falls_back_to_integral(self):
        # the series needs more than its 300 default blocks here; log f
        # from a 45-digit mpmath.quad of the positive integral in u with
        # breakpoints at the integrand's peaks (30 digits agree)
        dv = pdf_product_series(validate(1.0, -2.0, 1.3, 0.7, 0.999), 3.0)
        assert dv.converged and dv.sign == 1
        assert dv.log_abs == pytest.approx(-3.6138065994470468458657069382,
                                           abs=1e-12)

    # log f from the zero-mean closed form, which the integral cannot
    # reach within its node budget at these correlations
    HIGH_RHO_POINTS = [((0, 0, 1, 1, -0.9999), 0.5, -5000.572414932236),
                       ((0, 0, 1, 1, 0.9999), -1.0, -10000.91896353307),
                       ((0, 0, 1, 1, 0.99999), 2.0, -2.2655183734896127)]

    @pytest.mark.parametrize("tup, x, ref", HIGH_RHO_POINTS)
    def test_integral_out_of_nodes_falls_back_to_series(self, tup, x, ref):
        from normprod.density import _pdf_product_integral
        p = validate(*tup)
        with pytest.raises(NotConverged):
            _pdf_product_integral(p, x)
        assert pdf_product(p, x).log_abs == pytest.approx(ref, abs=1e-12)
        assert pdf_mean_zero_means(MeanParams(p, 1), x).log_abs == \
            pytest.approx(ref, abs=1e-12)

    def test_integral_path_never_enters_series(self, monkeypatch):
        from normprod import density

        def forbidden(*args, **kwargs):
            raise AssertionError("the integral converges here")
        for name in ("_series_parts", "_combine_series", "pdf_product_series"):
            monkeypatch.setattr(density, name, forbidden)
        assert list(inspect.signature(pdf_product).parameters) == ["p", "x"]
        p = validate(1.0, -2.0, 1.3, 0.7, 0.6)
        for x in sorted(self.FAR_POINTS):
            assert pdf_product(p, x).log_abs == pytest.approx(
                self.FAR_POINTS[x], abs=1e-12)

    def test_series_oracle_matches_integral(self):
        # at every random point where the series answers by itself
        # (converged, cancelling by at most 8 nats), it agrees with the
        # integral that pdf_product returns
        from normprod.density import _combine_series, _series_parts
        rng = np.random.default_rng(31)
        checked = 0
        for _ in range(30):
            p = random_mean_params(rng).base
            cf4 = closed_form_four(MeanParams(p, 1))
            for k in (-4.0, -1.5, 0.5, 3.0):
                x = cf4.raw[0] + k * math.sqrt(cf4.variance)
                try:
                    series = _combine_series(*_series_parts(p, x))
                except NotConverged:
                    continue
                assert series.log_abs == pytest.approx(
                    pdf_product(p, x).log_abs, abs=1e-10)
                checked += 1
        assert checked >= 90

    # (params, x, terms, negative terms, log f), from the series as it was
    # built with per-block masks for a vanished c_x or c_y and one sign
    # flip per negative factor of x, c_x and c_y
    SERIES_PINS = [
        ((0.2, 0.4, 1, 1, 0.5), 0.7, 10, 0, -1.302623262498587),  # c_x = 0
        ((0.2, 0.4, 1, 1, 0.5), -1.9, 11, 0, -4.990279610203585),
        ((1.2, 0, 1, 1, 0), 0.7, 17, 0, -1.5413772370547199),  # c_y = 0
        ((1.2, 0, 1, 1, 0), -1.9, 17, 0, -2.6269266158186557),
        ((0, 0, 1.3, 0.7, -0.5), 0.7, 1, 0, -2.320995285958259),  # both
        ((0, 0, 1.3, 0.7, -0.5), -1.9, 1, 0, -2.6234953195096926),
        ((1.0, -2.0, 1.3, 0.7, 0.6), 0.7, 1849, 903, -2.56556457527111),
        ((1.0, -2.0, 1.3, 0.7, 0.6), -1.9, 1849, 0, -1.5917024089047267),
    ]

    @pytest.mark.parametrize("tup, x, terms, negative, log_f", SERIES_PINS)
    def test_series_terms_and_values_pinned(self, tup, x, terms, negative,
                                            log_f):
        from normprod.density import _series_parts
        p = validate(*tup)
        _, logs, signs, used = _series_parts(p, x)
        assert (used, logs.size, int((signs < 0).sum())) == (
            terms, terms, negative)
        assert np.all(np.isfinite(logs))
        dv = pdf_product_series(p, x)
        assert (dv.log_abs, dv.terms_used) == (log_f, terms)

    @pytest.mark.parametrize("x", [5e-324, -5e-324, 1e-320, -1e-320])
    @pytest.mark.parametrize("tup", [(1, 0.5, 1, 1, 0.2), (2.0, 0, 0.4, 3, 0),
                                     (0, 0, 1, 1, 0),
                                     (-1.3, 2.1, 0.6, 1.7, 0.9)])
    def test_subnormal_x_not_converged(self, tup, x):
        # the integral's nodes and the series' Bessel argument underflow;
        # this used to end in a bare ValueError, and at zero means in an
        # infinite single-series density
        p = validate(*tup)
        for density in (pdf_product, pdf_product_series,
                        pdf_product_derivatives):
            with pytest.raises(NotConverged):
                density(p, x)
        if p.rho == 0:
            with pytest.raises(NotConverged):
                pdf_single_zero_mean(p, x)

    def test_subnormal_x_keeps_its_value(self):
        # the integral resolves this point; the series agrees
        p = validate(1, 0.5, 1, 1, 0.2)
        assert pdf_product(p, 1e-310).log_abs == 4.900266822868941
        assert pdf_product_series(p, 1e-310).log_abs == pytest.approx(
            4.900266822868941, abs=1e-14)

    def test_integral_node_budget(self):
        # near |rho| = 1 the integrand's peak is too narrow for the node
        # budget; the fallback says so instead of allocating without bound
        from normprod.density import _pdf_product_integral
        with pytest.raises(NotConverged):
            _pdf_product_integral(validate(1.0, -2.0, 1.3, 0.7, 0.9999), 3.0)

    def test_log_output_survives_extreme_tail(self):
        # far tail: value underflows, log does not
        dv = pdf_product(validate(0.5, 0.5, 1, 1, 0.1), 900.0)
        assert dv.converged
        assert dv.log_abs < math.log(np.finfo(float).tiny)


def count_kernel_evaluations(monkeypatch, first_grid=lambda n: n):
    """Patch the trapezoid kernel to record the node count of every
    evaluation of its integrand, with its first grid resized."""
    from normprod import density
    kernel, calls = density._log_trapezoid, []

    def counting(log_integrand, lo, hi, n, *args):
        def counted(t):
            calls.append(t.size)
            return log_integrand(t)
        return kernel(counted, lo, hi, first_grid(n), *args)
    monkeypatch.setattr(density, "_log_trapezoid", counting)
    return calls


class TestTrapezoidKernel:
    # points like the pdf benchmark's: means within +-3, sigmas 0.5-2,
    # |rho| <= 0.9, x = mean + k sd for k in {-6, 0.5, 6}
    ONE_PASS_POINTS = [((1.0, 2.0, 1.0, 1.0, 0.3), 1.5),
                       ((-2.4, 0.8, 1.7, 0.6, -0.9), -21.166),
                       ((2.9, -1.6, 0.55, 1.9, 0.85), 26.111),
                       ((0.3, -2.2, 1.2, 0.8, 0.0), 0.75)]

    def test_first_grid_is_the_last(self, monkeypatch):
        # the sum on the even nodes of the first grid certifies it, where
        # a second grid at half the step used to be built to compare with
        calls = count_kernel_evaluations(monkeypatch)
        for tup, x in self.ONE_PASS_POINTS:
            calls.clear()
            dv = pdf_product(validate(*tup), x)
            assert len(calls) == 1
            assert dv.terms_used == 2 * calls[0]

    def test_benign_points_take_one_pass(self):
        # at points like the pdf benchmark's (random sets, x within 6 sd of
        # the mean) the bracket's first grid is the last, so a density
        # that needs more passes shows up as a changed node count
        from normprod.density import _pdf_product_bracket
        rng = np.random.default_rng(20261019)
        for _ in range(30):
            p = validate(*rng.uniform(-3, 3, 2), *rng.uniform(0.5, 2, 2),
                         rng.uniform(-0.9, 0.9))
            mean = p.mu_x * p.mu_y + p.rho * p.s
            sd = math.sqrt(closed_form_four(MeanParams(p, 1)).variance)
            for k in range(-6, 7):
                x = mean + k * sd
                n = _pdf_product_bracket(p, x)[3]
                assert pdf_product(p, x).terms_used == 2 * n

    def test_coarse_first_grid_is_refined(self):
        # a Gaussian of sd 0.05 on a unit step: the first grid holds one
        # node of it, so the kernel must trim and halve the step
        from normprod.density import _log_trapezoid
        calls = []

        def narrow(t):
            calls.append(t.size)
            return np.vstack([-0.5 * ((t - 0.3) / 0.05) ** 2,
                              np.full_like(t, -np.inf)])
        log_sum, t, _, (first, *_) = _log_trapezoid(narrow, -10.0, 10.0, 21,
                                                    "test", 0.0)
        assert len(calls) >= 2
        # the first pass is handed back beside the last
        assert first.tolist() == np.linspace(-10.0, 10.0, 21).tolist()
        assert t.size == calls[-1]
        assert log_sum == pytest.approx(
            math.log(0.05 * math.sqrt(2 * math.pi)), abs=1e-14)


class TestPinnedValues:
    # pdf_product at points like the pdf benchmark's, at |rho| = 0.99 and
    # 0.999 and at tiny |x|, taken with the peak bound from the vectorised
    # exponent; the bound in scalars may pick another first grid, which
    # moves the value by roundoff only
    PRODUCT_PINS = [
        ((0.632, -1.5223, 0.9175, 0.682, -0.2114), -7.78734, -6.07877339410722),
        ((0.632, -1.5223, 0.9175, 0.682, -0.2114), 0.578968, -1.8958794879258378),
        ((0.632, -1.5223, 0.9175, 0.682, -0.2114), 3.92549, -6.744529501042589),
        ((0.632, -1.5223, 0.9175, 0.682, -0.2114), 8.94527, -14.88691763404372),
        ((-0.2314, -2.2538, 0.8127, 0.937, 0.7512), -12.1958, -38.247341897081476),
        ((-0.2314, -2.2538, 0.8127, 0.937, 0.7512), -1.12122, -1.857286354577289),
        ((-0.2314, -2.2538, 0.8127, 0.937, 0.7512), 5.52353, -3.7179313595392944),
        ((-0.2314, -2.2538, 0.8127, 0.937, 0.7512), 12.1683, -7.146159267441551),
        ((-2.5527, 2.7304, 0.7528, 1.6155, -0.8542), -32.7542, -7.42777617414558),
        ((-2.5527, 2.7304, 0.7528, 1.6155, -0.8542), -1.82244, -2.761099542443449),
        ((-2.5527, 2.7304, 0.7528, 1.6155, -0.8542), 10.5503, -35.98067412844458),
        ((-2.5527, 2.7304, 0.7528, 1.6155, -0.8542), 29.1093, -118.54524816014747),
        ((-1.2633, 1.4512, 1.8319, 1.0922, 0.2868), -21.3385, -10.578294664791189),
        ((-1.2633, 1.4512, 1.8319, 1.0922, 0.2868), -4.60595, -2.939322458077266),
        ((-1.2633, 1.4512, 1.8319, 1.0922, 0.2868), 5.43359, -4.5422643654985375),
        ((-1.2633, 1.4512, 1.8319, 1.0922, 0.2868), 15.4731, -8.473328192999762),
        ((0.7506, 2.3833, 1.6635, 0.8378, 0.99), -4.80819, -47.049772550342624),
        ((2.2413, -2.9684, 1.7318, 1.6956, 0.99), -4.87183, -2.0537551934632488),
        ((-1.1818, -1.3294, 0.8823, 1.1676, 0.99), 2.69766, -2.1801254418007736),
        ((0.321, 2.973, 1.689, 1.4333, -0.99), 20.8425, -328.5186121871817),
        ((-1.7081, -2.0387, 1.4188, 0.5659, -0.99), -5.6529, -5.507224034378234),
        ((0.0893, -0.2028, 1.8758, 1.4438, -0.99), -2.26508, -2.252122887359454),
        ((-0.0188, -1.5149, 0.5177, 0.7886, 0.999), 1.95044, -2.5565153238341414),
        ((-1.7964, -0.7828, 0.5056, 1.7451, 0.999), -8.06206, -2166.8431522244614),
        ((-1.3944, 2.282, 1.2647, 1.7707, 0.999), 2.62631, -3.4975909506888194),
        ((1.4506, -2.451, 1.3117, 1.2617, -0.999), 11.3087, -4825.121462479909),
        ((-0.8324, 0.5891, 0.5889, 1.0814, -0.999), -3.30375, -2.888885437594044),
        ((-2.0988, 1.898, 1.0692, 1.9681, -0.999), -1.1619, -2.3366865843148164),
        ((0.6303, 0.828, 1.5147, 0.7262, -0.1074), 1e-12, 1.332908164039995),
        ((-1.5626, -0.585, 0.6451, 1.9517, -0.513), -1e-40, -0.8440249661716646),
        ((1.0306, -1.1975, 1.8111, 1.4933, -0.6631), 1e-100, 3.2694645651158436),
        ((2.0704, 2.6697, 1.8559, 1.3546, -0.6382), -1e-200, -1.9668464290765446),
        ((-1.8452, 2.5674, 1.3285, 0.7708, 0.6913), 1e-300, -3.320991861780666),
        ((0.8494, 0.4182, 1.0644, 1.1164, -0.4689), 1e-310, 4.701425280375015),
        ((-2.7717, 2.2573, 1.2016, 1.3215, 0.99), 1e-08, -3.961418834181388),
        ((-1.067, 1.5079, 0.5378, 1.0583, -0.99), -1e-30, -0.35894483532727406),
        ((-2.8179, -2.2626, 1.9507, 1.4866, 0.999), 1e-150, 4.143982180702692),
        ((-0.4307, 0.1424, 1.8092, 1.0163, -0.999), -3e-05, 1.823001104913491),
        ((0.5417, 1.1021, 1.0331, 1.2786, 0.999), 0.002, 0.32399700131519094),
        ((1.5915, 2.4551, 0.7266, 1.9001, 0.99), -1e-300, -1.7602842939907486),
    ]

    @pytest.mark.parametrize("tup, x, log_f", PRODUCT_PINS)
    def test_product_density_pinned(self, tup, x, log_f):
        assert pdf_product(validate(*tup), x).log_abs == pytest.approx(
            log_f, rel=0, abs=5e-15 * max(1.0, abs(log_f)))

    # the single series, bit for bit: hoisting its logs out of the loop
    # and keeping a running maximum change no operation
    SINGLE_PINS = [
        ((0.0, -2.2286, 1.2489, 1.4022, 0.0), 1.16163e-05, 18, -0.32366273219937947),
        ((2.5693, 0.0, 0.6056, 0.6947, 0.0), -6.72922, 45, -7.069010727124228),
        ((0.0, 0.7313, 1.0535, 1.2671, 0.0), -9.59894e-05, 10, 0.6855434828033975),
        ((-2.1722, 0.0, 1.6821, 1.5055, 0.0), 0.00488824, 16, -0.8936212138456923),
        ((0.0, 0.0, 1.7251, 1.3236, 0.0), 2.96803e-05, 1, 0.4603089279120345),
        ((0.3224, 0.0, 1.2254, 1.0299, 0.0), 0.0181755, 8, 0.06762786168849644),
        ((0.0, -1.5882, 1.7033, 1.801, 0.0), 0.00230636, 13, -0.6062755447582275),
        ((-1.3371, 0.0, 0.6247, 1.8439, 0.0), -0.00124632, 23, -1.0199109333472363),
        ((0.0, -2.1139, 1.51, 0.8033, 0.0), 3.65989e-05, 27, -1.4812597702247037),
        ((-2.8016, 0.0, 0.8012, 1.0186, 0.0), 0.0023776, 35, -1.833062690936563),
    ]

    @pytest.mark.parametrize("tup, x, terms, log_f", SINGLE_PINS)
    def test_single_series_pinned(self, tup, x, terms, log_f):
        dv = pdf_single_zero_mean(validate(*tup), x)
        assert (dv.terms_used, dv.log_abs) == (terms, log_f)

    # pdf_product bit for bit (terms used, log f), as are the derivatives
    # and the CDF that share its kernel: one pass; five passes at rho =
    # 0.999; the series fallback at rho = 0.9999; a negative x; a tiny |x|
    EXACT_PINS = [
        ((1.0, 2.0, 1.0, 1.0, 0.3), 1.5, 288, -1.7698800073553596),
        ((-1.3944, 2.282, 1.2647, 1.7707, 0.999), 2.62631, 340678,
         -3.4975909506888194),
        ((0.5, 0.5, 1.0, 1.0, 0.9999), 2.0, 100, -2.1589726432666794),
        ((-2.4, 0.8, 1.7, 0.6, -0.9), -21.166, 468, -8.473953560756136),
        ((0.6303, 0.828, 1.5147, 0.7262, -0.1074), 1e-12, 1546,
         1.332908164039995),
    ]

    @pytest.mark.parametrize("tup, x, terms, log_f", EXACT_PINS)
    def test_product_density_exact(self, tup, x, terms, log_f):
        dv = pdf_product(validate(*tup), x)
        assert (dv.terms_used, dv.log_abs) == (terms, log_f)

    @pytest.mark.parametrize("tup, x, derivs", [
        ((1.0, 2.0, 1.0, 1.0, 0.3), 1.5,
         [0.17035342875750434, -0.03424305206505572, -0.005237124846439375,
          0.006398144956505527, 0.012329043919948733]),
        ((-2.4, 0.8, 1.7, 0.6, -0.9), -21.166,
         [0.0002088376168705601, 8.025105734048029e-05,
          3.0306216264302955e-05, 1.1204705238286655e-05,
          4.033634248365077e-06])])
    def test_derivatives_exact(self, tup, x, derivs):
        assert pdf_product_derivatives(validate(*tup), x) == derivs

    @pytest.mark.parametrize("tup, x, cdf", [
        ((0.6, -0.8, 1.0, 1.2, 0.25), 1.0, 0.8537163950184314),
        ((1.0, 0.5, 1.0, 1.0, 0.9), -0.4, 0.008410528073311717)])
    def test_cdf_exact(self, tup, x, cdf):
        assert cdf_product(validate(*tup), x) == cdf

    @pytest.mark.parametrize("tup, x", [((1.0, 2.0, 1.0, 1.0, 0.3), 1.5),
                                        ((-2.4, 0.8, 1.7, 0.6, -0.9), -21.166),
                                        ((0.75, 2.38, 1.66, 0.84, 0.999), -4.8),
                                        ((0.85, 0.42, 1.06, 1.12, -0.47), 1e-310)])
    def test_scalar_peak_bound_matches_exponent(self, tup, x):
        # Q at the balance points, in scalars, against the vectorised
        # exponent E = -Q / (2(1 - rho^2)) there
        from normprod.density import _pdf_product_bracket, _product_q
        p = validate(*tup)
        exponent = _pdf_product_bracket(p, x)[0]
        s = 0.5 * math.log(abs(x) * p.sigma_x / p.sigma_y)
        scalar = [_product_q(p, x, sign * math.exp(s)) for sign in (1, -1)]
        vector = -2 * (1 - p.rho ** 2) * exponent(s)
        assert scalar == pytest.approx(vector.ravel().tolist(), rel=8 * _EPS)


class TestCatalogueValues:
    # the benchmark's cdf-ode catalogue bit for bit: the CDF at mean -+ sd
    # (alternating) of each NORMALIZATION_SWEEP set, and the derivatives
    # and ODE residuals at its nine zero-mean points (0, 0, 1, 1, rho) and
    # five general-means points (1, 0.5, 1, 1, 0.2), n = 1
    CDF_PINS = [
        ((0.0, 0.0, 1.0, 1.0, 0.0), -1.0, 0.10449683150232615),
        ((0.0, 0.0, 0.5, 2.0, 0.9), 2.2453624047073713, 0.8797696284515906),
        ((0.0, 0.0, 2.0, 0.5, -0.9), -2.2453624047073713, 0.12023037154840949),
        ((1.0, 0.0, 1.0, 1.0, 0.0), 1.4142135623730951, 0.8887187559380556),
        ((-1.0, 0.0, 0.5, 1.0, 0.0), -1.118033988749895, 0.12843447361654334),
        ((3.0, 0.0, 1.0, 2.0, 0.0), 6.324555320336759, 0.8604987719814191),
        ((-3.0, 0.0, 2.0, 1.0, 0.0), -3.605551275463989, 0.12034343002556365),
        ((1.0, 1.0, 1.0, 1.0, 0.0), 2.732050807568877, 0.8609607002751131),
        ((1.0, 1.0, 1.0, 1.0, 0.9), -0.46854385646540253,
         0.00028748698599542636),
        ((-1.0, -1.0, 1.0, 1.0, 0.9), 4.268543856465403, 0.8648161770133106),
    ]

    @pytest.mark.parametrize("tup, x, cdf", CDF_PINS)
    def test_cdf(self, tup, x, cdf):
        assert cdf_product(validate(*tup), x) == cdf

    ZERO_MEAN_PINS = [
        (2, 0.0, -1.5, [0.049787068367863924, 0.09957413673572785,
                        0.1991482734714557, 0.3982965469429114,
                        0.7965930938858228], 0.0),
        (2, 0.4, 0.7, [0.36787944117144233, -0.5255420588163461,
                       0.7507743697376376, -1.0725348139109105,
                       1.532192591301304], 3.7723738417192523e-16),
        (2, -0.4, 2.0, [0.0012726338013398079, -0.004242112671132693,
                        0.014140375570442312, -0.04713458523480771,
                        0.15711528411602568], -3.470402864600486e-16),
        (3, 0.0, -1.5, [0.030415872395767974, 0.0825040821427958,
                        0.21874013013338123, 0.5600415049105543,
                        1.3519731887605848], -9.516626738325652e-17),
        (3, 0.4, 0.7, [0.4394768270434478, -0.6965385338732616,
                       0.8266236608179675, 0.20404794135332335,
                       -7.113467851843601], -1.894678438612072e-17),
        (3, -0.4, 2.0, [0.00013980848533852032, -0.0006673233504902594,
                        0.0031707877300244155, -0.01498365299065885,
                        0.07033055111359693], 0.0),
        (5, 0.0, -1.5, [0.00954701630469059, 0.039584429088580106,
                        0.15950654944010453, 0.61781838954952,
                        2.256303840016929], 9.062968898278186e-17),
        (5, 0.4, 0.7, [0.5338379099186138, -1.0355864894937887,
                       1.0711153740767028, 3.5594456406041677,
                       -30.503728823800255], 5.241180962048448e-17),
        (5, -0.4, 2.0, [1.4129990987878279e-06, -1.0817643805193545e-05,
                        8.238609380034463e-05, -0.000623733698344373,
                        0.004690228328751532], -1.3330075859883473e-16),
    ]

    @pytest.mark.parametrize("n, rho, x, derivs, residual", ZERO_MEAN_PINS)
    def test_zero_mean_ode(self, n, rho, x, derivs, residual):
        mp = MeanParams(validate(0.0, 0.0, 1.0, 1.0, rho), n)
        got = mean_zero_means_derivatives(mp, x)
        assert got == derivs
        assert ode_residual_density(mp, x, got) == residual

    GENERAL_PINS = [
        (-1.5, [0.044015874382616144, 0.0606048252645263, 0.09027468713064125,
                0.1521549285884431, 0.30613938571281446], 0.0),
        (-0.6, [0.16934441010014456, 0.2899252050001295, 0.6464906993582457,
                2.0821623041425323, 9.806154351212289], -5.289749644336703e-16),
        (0.7, [0.25924741562064724, -0.2221880738796273, 0.3254226985927701,
               -0.9333259068655186, 4.175296266792215], -1.1540920725752179e-15),
        (1.0, [0.20407822713654197, -0.15354942016977685, 0.1621545712283747,
               -0.306327606980848, 0.9497197835408743], 2.5368937267959996e-16),
        (2.2, [0.08965524285519433, -0.05873140185076234, 0.04017432900729805,
               -0.032161681104733476, 0.03658697844871151],
         -4.119377093399739e-16),
    ]

    @pytest.mark.parametrize("x, derivs, residual", GENERAL_PINS)
    def test_general_ode(self, x, derivs, residual):
        mp = MeanParams(validate(1.0, 0.5, 1.0, 1.0, 0.2), 1)
        got = pdf_product_derivatives(mp.base, x)
        assert got == derivs
        assert ode_residual_density(mp, x, got) == residual


class TestExtremeInputs:
    # from the smallest subnormal x to the largest, with means and sigmas
    # scaled by 1e-150 or 1e150, and by 1e-300 or 1e300, where sigma_x
    # sigma_y and the squares leave the double range; a RuntimeWarning
    # inside the package fails the suite, so each call must give a finite
    # log or a NormProdError, never a traceback, a warning, an inf or a NaN
    XS = [sign * x for x in (5e-324, 1e-310, 1e-150, 0.7, 1e20, 1e150, 1e300,
                             1.7e308) for sign in (1, -1)]

    @pytest.mark.parametrize("mu, sx, sy, rho", [
        (1.0, 1.0, 1.0, -0.999), (1e150, 1.0, 1.0, 0.5),
        (1e-150, 1.0, 1.0, 0.0), (1.0, 1e150, 1e150, -0.999),
        (1.0, 1e-150, 1e-150, 0.5), (1.0, 1e-150, 1e150, 0.0),
        (1.0, 1e150, 1e-150, -0.999), (1e150, 1e-150, 1e-150, 0.5),
        (1e-150, 1e150, 1e150, 0.0), (1e300, 1.0, 1.0, 0.5),
        (1e-300, 1.0, 1.0, 0.0), (1.0, 1e300, 1e300, -0.999),
        (1.0, 1e-300, 1e-300, 0.5), (1.0, 1e-300, 1e300, 0.0),
        (1.0, 1e300, 1e-300, -0.999), (1e300, 1e-300, 1e-300, 0.5),
        (1e-300, 1e300, 1e300, 0.0), (1e-300, 1e300, 1e-300, 0.5)])
    def test_finite_log_or_package_error(self, mu, sx, sy, rho):
        p = validate(mu, -0.5 * mu, sx, 2 * sy, rho)
        one_zero = validate(0, -0.5 * mu, sx, 2 * sy, 0)
        zero = validate(0, 0, sx, 2 * sy, rho)
        entry_points = [
            lambda x: [pdf_product(p, x).log_abs],
            lambda x: [pdf_product_series(p, x).log_abs],
            lambda x: pdf_product_derivatives(p, x),
            lambda x: [pdf_single_zero_mean(one_zero, x).log_abs],
            lambda x: [pdf_mean_zero_means(MeanParams(zero, 1), x).log_abs],
            lambda x: [pdf_mean_zero_means(MeanParams(zero, 3), x).log_abs],
            lambda x: mean_zero_means_derivatives(MeanParams(zero, 2), x)]
        for x in self.XS:
            for entry_point in entry_points:
                try:
                    values = entry_point(x)
                except NormProdError:
                    continue
                assert all(map(math.isfinite, values)), (x, values)


class TestSingleSeries:
    def test_requires_uncorrelated(self):
        with pytest.raises(CaseMismatch):
            pdf_single_zero_mean(validate(1, 0, 1, 1, 0.2), 1.0)

    def test_requires_one_zero_mean(self):
        with pytest.raises(CaseMismatch):
            pdf_single_zero_mean(validate(1, 2, 1, 1, 0.0), 1.0)

    def test_accepts_either_zero_mean(self):
        a = pdf_single_zero_mean(validate(1.2, 0, 0.9, 1.1, 0), 0.8).value
        b = pdf_single_zero_mean(validate(0, 1.2, 1.1, 0.9, 0), 0.8).value
        assert a == pytest.approx(b, rel=1e-13)


class TestMeanZeroMeans:
    def test_rejects_nonzero_means(self):
        with pytest.raises(CaseMismatch):
            pdf_mean_zero_means(MeanParams(validate(1, 0, 1, 1, 0), 2), 1.0)

    def test_laplace_special_case(self):
        # n=2, rho=0, unit sigmas: density e^{-2|x|}
        mp = MeanParams(validate(0, 0, 1, 1, 0), 2)
        for x in (-1.5, -0.2, 0.4, 1.0):
            assert pdf_mean_zero_means(mp, x).value == pytest.approx(
                math.exp(-2 * abs(x)), rel=1e-12)
        assert pdf_mean_zero_means(mp, 0.0).value == pytest.approx(1.0, rel=1e-12)

    def test_singular_only_for_n1(self):
        with pytest.raises(SingularPoint):
            pdf_mean_zero_means(MeanParams(validate(0, 0, 1, 1, 0.2), 1), 0.0)
        with pytest.raises(SingularPoint):  # |x|^nu has no derivatives there
            mean_zero_means_derivatives(
                MeanParams(validate(0, 0, 1, 1, 0.2), 2), 0.0)
        for n in (2, 3, 5):
            v = pdf_mean_zero_means(MeanParams(validate(0, 0, 1, 1, 0.2), n), 0.0)
            assert math.isfinite(v.value) and v.value > 0

    @pytest.mark.parametrize("x", [5e-324, -5e-324, 1e-320])
    def test_subnormal_x(self, x):
        # c|x| rounds to a coarse subnormal: n = 2 used to give log f =
        # 0.0472 at 5e-324 and 3.95e-5 at 1e-320, against the limit 0.0
        for n in (2, 3):
            mp = MeanParams(validate(0, 0, 1, 1, 0.3), n)
            assert pdf_mean_zero_means(mp, x) == pdf_mean_zero_means(mp, 0.0)
            assert pdf_mean_zero_means(mp, x).log_abs == pytest.approx(
                pdf_mean_zero_means(mp, 1e-300).log_abs, abs=1e-12)
        with pytest.raises(NotConverged):
            pdf_mean_zero_means(MeanParams(validate(0, 0, 1, 1, 0.3), 1), x)

    def test_zero_limit_continuous(self):
        mp = MeanParams(validate(0, 0, 1.3, 0.7, -0.3), 4)
        at_zero = pdf_mean_zero_means(mp, 0.0).value
        near_zero = pdf_mean_zero_means(mp, 1e-9).value
        assert near_zero == pytest.approx(at_zero, rel=1e-6)

    @pytest.mark.parametrize("n", [2, 3, 5])
    @pytest.mark.parametrize("rho", [0.0, 0.4, -0.4])
    def test_normalization(self, n, rho):
        mp = MeanParams(validate(0, 0, 1, 1, rho), n)
        val, _ = integrate.quad(lambda t: pdf_mean_zero_means(mp, t).value,
                                -np.inf, np.inf, limit=200)
        assert val == pytest.approx(1.0, abs=1e-8)


class TestDerivativesAndOde:
    @pytest.mark.parametrize("rho", [0.0, 0.4, -0.4])
    @pytest.mark.parametrize("sigmas", [(1.0, 1.0), (0.6, 1.7)])
    def test_integral_matches_closed_form_derivatives(self, rho, sigmas):
        mp = MeanParams(validate(0, 0, *sigmas, rho), 1)
        for x in (-1.5, 0.7, 0.8, 2.0):
            got = pdf_product_derivatives(mp.base, x)
            exact = mean_zero_means_derivatives(mp, x)
            assert got == pytest.approx(exact, rel=1e-12)

    @pytest.mark.parametrize("params", [(1.0, 0.5, 1, 1, 0.2),
                                        (-0.7, 1.3, 0.8, 1.6, -0.5)])
    def test_integral_matches_central_differences(self, params):
        p = validate(*params)
        for x in (-1.5, 0.7, 2.2):
            got = pdf_product_derivatives(p, x)
            assert got[0] == pdf_product(p, x).value
            for k, (a, b) in enumerate(zip(got, _central_differences(p, x))):
                tol = 1e-10 if k == 0 else 10.0 ** (-9 + k)
                assert a == pytest.approx(b, rel=tol), f"order {k}"

    def test_ode_residual_closed_form(self):
        for n in (2, 3, 5):
            for rho in (0.0, 0.4, -0.4):
                mp = MeanParams(validate(0, 0, 1, 1, rho), n)
                for x in (-1.3, 0.6, 2.1):
                    derivs = mean_zero_means_derivatives(mp, x)
                    assert abs(ode_residual_density(mp, x, derivs)) <= 1e-8

    @pytest.mark.parametrize("n, rho, x", [
        (1, 0.3, -0.4), (1, -0.5, 0.5),     # integer order nu = 0
        (2, 0.4, -1.3), (2, -0.4, 0.6),     # half-integer order
        (3, 0.3, -0.4),                     # integer order nu = 1
        (4, 0.6, 0.9), (5, -0.4, -1.2), (7, 0.3, 2.0),
        # near the origin, where Leibniz sums of |x|^nu and K_nu cancelled
        # (1.0e-10 off at sigmas (1, 1))
        (2, 0.3, 0.04),
    ])
    def test_derivatives_match_mpmath_taylor(self, n, rho, x):
        for sigmas in [(1.0, 1.0), (0.6, 1.7)]:
            mp = MeanParams(validate(0, 0, *sigmas, rho), n)
            expected = _mpmath_zero_mean_derivatives(*sigmas, rho, n, x, 20)
            got = mean_zero_means_derivatives(mp, x)
            for k, (a, b) in enumerate(zip(got, expected)):
                assert a == pytest.approx(b, rel=1e-12), (sigmas, k)

    # (0, 0, 3, 0.4, -0.95) at x = -15: the heavy tail, where p'/p is
    # small against each of its terms and every step of the recursion
    # cancels.  The Leibniz sums refused all four; the recursion answers
    # n = 1 (1.2e-10 off) and refuses the rest (bounds 1.1-1.3e-9 against
    # errors of 4e-11 to 2.1e-10)
    @pytest.mark.parametrize("n", [1, 2, 3, 5])
    def test_strongly_correlated_tail_within_1e_9_or_refused(self, n):
        mp = MeanParams(validate(0, 0, 3, 0.4, -0.95), n)
        expected = _mpmath_zero_mean_derivatives(3, 0.4, -0.95, n, -15.0, 40)
        try:
            got = mean_zero_means_derivatives(mp, -15.0)
        except NotConverged:
            return
        assert got == pytest.approx(expected, rel=1e-9)

    def test_density_is_pdf_mean_zero_means_bit_for_bit(self):
        for n in (2, 3, 5):
            for rho in (0.0, 0.4, -0.4):
                mp = MeanParams(validate(0, 0, 1, 1, rho), n)
                for x in (-1.5, 0.7, 2.0):
                    assert (mean_zero_means_derivatives(mp, x)[0]
                            == pdf_mean_zero_means(mp, x).value)

    def test_underflowed_derivative_not_converged(self):
        # p is 1.1e-79 and each r_j about 1e-74 of the last, so p'''' (near
        # 1e-375) used to come back as a bare 0.0 beside a normal p ... p'''
        mp = MeanParams(validate(0, 0, 2.3921247255266395e73,
                                 2.7660581261338226, 0.5275321167000603), 1)
        with pytest.raises(NotConverged, match="underflows"):
            mean_zero_means_derivatives(mp, 9.683126866906174e74)

    def test_subnormal_derivative_not_converged(self):
        # the same point scaled by 1e-13: p is 1.1e-66 and p'''' 1.3e-310,
        # subnormal, with a few of its digits left
        mp = MeanParams(validate(0, 0, 2.3921247255266395e60,
                                 2.7660581261338226, 0.5275321167000603), 1)
        with pytest.raises(NotConverged, match="underflows"):
            mean_zero_means_derivatives(mp, 9.683126866906175e61)

    def test_underflowing_density_gives_five_zeros(self):
        mp = MeanParams(validate(0, 0, 1, 1, 0.9), 1)
        assert pdf_mean_zero_means(mp, -134.5).value == 0.0
        assert mean_zero_means_derivatives(mp, -134.5) == [0.0] * 5

    # p''''/p is about 1e20 here: p is subnormal at x = 0.0075 and
    # underflows at 0.0076, while p'' ... p'''' are in range
    @pytest.mark.parametrize("x", [0.0075, 0.0076])
    def test_derivatives_of_a_subnormal_density_keep_their_digits(self, x):
        mp = MeanParams(validate(0, 0, 1e-2, 1e-2, -0.9), 1)
        got = mean_zero_means_derivatives(mp, x)
        assert got[0] == pdf_mean_zero_means(mp, x).value < sys.float_info.min
        assert got[4] > sys.float_info.min
        expected = _mpmath_zero_mean_derivatives(1e-2, 1e-2, -0.9, 1, x, 40)
        assert got == pytest.approx(expected, rel=1e-9, abs=5e-324)

    # s_n = 1e150: the adjoint's b1_2 x is 1e438 at x = -1e138 and 1e330
    # at -1e30 unless it is scaled.  At n = 1 p^(j) ~ p x^-j stays normal
    # at -1e30; at n >= 2 p^(j) ~ p s_n^-j underflows at any x and is
    # refused (at -1e138 the n = 1 p'' ... p'''' underflow too)
    @pytest.mark.parametrize("n", [1, 3, 5])
    def test_adjoint_scaled_back_into_range(self, n):
        mp = MeanParams(validate(0, 0, 1e-150, 1e300, 0.0), n)
        with pytest.raises(NotConverged, match="underflows"):
            mean_zero_means_derivatives(mp, -1e138)
        if n > 1:
            return
        got = mean_zero_means_derivatives(mp, -1e30)
        expected = _mpmath_zero_mean_derivatives(1e-150, 1e300, 0.0, n,
                                                 -1e30, 100)
        assert got == pytest.approx(expected, rel=1e-9, abs=5e-324)

    # at rho = 0, K_nu(c|x|) overflows from about these x while
    # K_(nu-1) does not; a ratio of 0 there gave p''/p the wrong sign
    @pytest.mark.parametrize("n", [5, 7])
    @pytest.mark.parametrize("x", [1e-104, 1e-160])
    def test_tiny_x_within_1e_9_or_refused(self, n, x):
        mp = MeanParams(validate(0, 0, 1, 1, 0.0), n)
        try:
            got = mean_zero_means_derivatives(mp, x)
        except NotConverged:
            return
        # the Leibniz sums cancel by up to a factor x^-4
        dps = int(40 - 4 * math.log10(x))
        expected = _mpmath_zero_mean_derivatives(1, 1, 0.0, n, x, dps)
        assert got == pytest.approx(expected, rel=1e-9)

    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("rho", [0.4, -0.4])
    @pytest.mark.parametrize("x", [50.0, -50.0])
    def test_far_tail_derivatives_not_flushed_to_zero(self, n, rho, x):
        mp = MeanParams(validate(0, 0, 1, 1, rho), n)
        derivs = mean_zero_means_derivatives(mp, x)
        assert derivs[0] == pytest.approx(pdf_mean_zero_means(mp, x).value,
                                          rel=1e-12)
        # every derivative is nonzero, so the residual's term scale is too
        # (the p'''' coefficient (1 - rho^2)^2 x never vanishes here)
        assert all(d != 0 and math.isfinite(d) for d in derivs)
        assert abs(ode_residual_density(mp, x, derivs)) <= 1e-8

    @pytest.mark.parametrize("means, rho", [((1.0, 0.5), 0.2),
                                            ((-0.7, 1.3), -0.5)])
    def test_ode_residual_general(self, means, rho):
        mp = MeanParams(validate(*means, 1, 1, rho), 1)
        for x in (-1.5, -0.6, 0.7, 1.0, 2.2):
            derivs = pdf_product_derivatives(mp.base, x)
            assert abs(ode_residual_density(mp, x, derivs)) <= 1e-8

    @pytest.mark.parametrize("rho", [0.999, -0.999])
    def test_ode_residual_strong_correlation(self, rho):
        # central differences left residuals up to 1.1 at rho = -0.999
        mp = MeanParams(validate(1.0, 0.5, 1, 1, rho), 1)
        for x in (-0.6, 0.7, 2.2):
            derivs = pdf_product_derivatives(mp.base, x)
            assert derivs[0] > 0
            assert abs(ode_residual_density(mp, x, derivs)) <= 1e-10

    # (params, x, f, f', f'', f''', f'''', rel): f^(j) = sum over u = +-e^s
    # of mpmath.quad(H_j e^E, linspace(-60, 6, 67)) / (2 pi sx sy sqrt(1 -
    # rho^2)), with E and the H_j recurrence of pdf_product_derivatives
    # written out in mpf, at 40 digits for the first two points and 30 for
    # the third (a run of the first two at 30 digits gives the same 15
    # digits).  At these small |x| the mass of H_j e^E lies near u -> 0,
    # outside the 45-nat window of the density's trimmed grid, on which f''
    # to f'''' used to be summed (relative errors up to 1.58, and f''' of
    # the wrong sign at the third point).  The density takes one pass at
    # the first two points and three at the third, where the signed sums
    # cancel to about 9 digits in f''''.
    SMALL_X_POINTS = [
        ((-2.6698649039592857, -0.031804206304171245, 0.27528137607370784,
          0.3378122576271159, 0.13502143663088573), -6.229117663844421e-11,
         [0.44571834122247, 0.0330383366925725, 0.99530645597062,
          50538291124.5932, 2.43397029499715e21], 1e-10),
        ((-2.178263025547313, -0.6831645193743343, 0.20700658433386715,
          3.6522746914019306, 0.1969261678499412), 2.1737306359721626e-07,
         [0.0498936278222125, 0.000951311082389052, -0.00081629078544941,
          -4.70581146554366e-05, 164.212255902338], 1e-10),
        ((-2.497739058797082, -0.1877633951452644, 0.3247749245616069,
          2.7088034396894094, -0.5), -2.759734324749884e-10,
         [0.059323986650335475, 0.0018297329332920963, 28.760796430665919,
          208440685620.21184, 2.2658777314783432e+21], 2e-9),
    ]

    @pytest.mark.parametrize("tup, x, ref, rel", SMALL_X_POINTS)
    def test_derivatives_near_origin_match_mpmath(self, tup, x, ref, rel):
        got = pdf_product_derivatives(validate(*tup), x)
        for k, (a, b) in enumerate(zip(got, ref)):
            assert a == pytest.approx(b, rel=rel), f"order {k}"

    # At these tiny |x| the signed sums of H_2 e^E to H_4 e^E cancel to
    # their roundoff: |sum H_2 e^E| / sum |H_2| e^E is 1.8e-14 and 1.8e-15,
    # against nodes eps 6.7e-12 and 1.4e-12 (at the points above the
    # smallest such ratio is 5e-7, and over 0.16 at criterion-6's).  A
    # 30-digit mpmath quadrature gives f'' = 4.03241e-9 and 0.11503, where
    # the sums gave -47.5 and 1422.3 with no error.
    CANCELLING_POINTS = [
        ((2.5793131698260643, 3.852925201523078, 0.4082974310882157,
          0.2122205137831837, -0.8739018626631361), 1.8926023425921564e-11),
        ((-0.6376420624088741, -2.296582756332537, 0.5673936231947289,
          0.31195424318612985, -0.5), -3.767949681175018e-09),
    ]

    @pytest.mark.parametrize("tup, x", CANCELLING_POINTS)
    def test_derivatives_cancelled_to_roundoff_not_converged(self, tup, x):
        with pytest.raises(NotConverged, match="roundoff"):
            pdf_product_derivatives(validate(*tup), x)

    def test_derivatives_refine_a_coarse_grid(self, monkeypatch):
        # the density accepts, by force here, a first grid at 8 times its
        # step (and log f = 0); the derivatives must halve that step until
        # their own check passes, and then give f^(j)/f as before
        from normprod import density
        p, x = validate(1, 0.5, 1, 1, 0.2), 0.7
        ref = pdf_product_derivatives(p, x)
        bracket, coords, sizes = (density._pdf_product_bracket,
                                  density._product_coords, [])

        def coarse(p, x):
            exponent, lo, hi, n, log_norm = bracket(p, x)
            return exponent, lo, hi, n // 8, log_norm

        def first_grid(log_integrand, lo, hi, n, what, x):
            t = np.linspace(lo, hi, n)
            q = log_integrand(t)
            return 0.0, t, q, (t, q)

        def counted(p, x, u):  # grids only, not the scalar peak bound
            if np.ndim(u):
                sizes.append(np.size(u))
            return coords(p, x, u)
        monkeypatch.setattr(density, "_pdf_product_bracket", coarse)
        monkeypatch.setattr(density, "_log_trapezoid", first_grid)
        monkeypatch.setattr(density, "_product_coords", counted)
        got = pdf_product_derivatives(p, x)
        assert sizes[-1] > 4 * sizes[0]  # at least three halvings
        assert [g / got[0] for g in got] == pytest.approx(
            [r / ref[0] for r in ref], rel=1e-13)

    def test_refined_density_hands_over_its_first_grid(self, monkeypatch):
        # the density refines its first grid here (26515 nodes, then 13257
        # on its trimmed bracket); the derivatives start from that first
        # grid rather than evaluating it again, then refine their own window
        from normprod import density
        exponent, sizes = density._product_exponent, []

        def counted(p, x, s):
            sizes.append(s.size)
            return exponent(p, x, s)
        monkeypatch.setattr(density, "_product_exponent", counted)
        pdf_product_derivatives(validate(1, 0.5, 1, 1, -0.999), -0.6)
        assert sizes == [26515, 13257, 13601]

    def test_overflowing_derivatives_not_converged(self):
        # g ~ 1/u overflows at these u; the derivatives used to be NaN,
        # with numpy's RuntimeWarning
        with pytest.raises(NotConverged, match="not finite"):
            pdf_product_derivatives(validate(1, 0.5, 1, 1, 0.2), 1e-310)

    def test_integral_derivatives_past_node_budget(self):
        # the integral needs over 2^18 nodes from about |rho| = 0.9999; the
        # derivatives have no series fallback and must fail fast
        started = time.perf_counter()
        with pytest.raises(NotConverged):
            pdf_product_derivatives(validate(1.0, 0.5, 1, 1, 0.9999), 0.7)
        assert time.perf_counter() - started < 2.0

    @pytest.mark.parametrize("bad", [math.inf, math.nan])
    def test_ode_residual_rejects_non_finite_derivatives(self, bad):
        # p'''' ~ x^-4 overflows from about |x| = 1e-77; the residual was NaN
        mp = MeanParams(validate(0, 0, 1, 1, 0.3), 1)
        with pytest.raises(NotConverged):
            ode_residual_density(mp, 1e-100, [1.0, 2.0, 3.0, 4.0, bad])

    # along the light tail at (0, 0, 1, 1, 0.9), n = 1, the derivatives
    # turn subnormal: at x = -74 they are 2e-323 ... 1.9e-319 and the
    # residual read 9.0e-5, at x = -72.5 p holds one digit and it read
    # 3.2e-11; at x = -70 every derivative is a normal double
    @pytest.mark.parametrize("x", [-74.0, -72.5])
    def test_ode_residual_refuses_subnormal_derivatives(self, x):
        mp = MeanParams(validate(0, 0, 1, 1, 0.9), 1)
        with pytest.raises(NotConverged, match="subnormal"):
            ode_residual_density(mp, x, mean_zero_means_derivatives(mp, x))

    def test_ode_residual_in_the_normal_range_of_the_tail(self):
        mp = MeanParams(validate(0, 0, 1, 1, 0.9), 1)
        derivs = mean_zero_means_derivatives(mp, -70.0)
        assert min(map(abs, derivs)) >= sys.float_info.min
        assert abs(ode_residual_density(mp, -70.0, derivs)) <= 1e-8

    # a1_i x overflows at these x, and a term at these derivatives; the
    # residual was NaN.  The last point's derivatives are those the library
    # gave before it refused them, with f'''' underflowed to 0: a residual
    # rescaled into range reads -0.085 there, which certifies nothing
    @pytest.mark.parametrize("tup, x, derivs", [
        ((1, 0.5, 1, 1, 0.9), 1e308, [1.0] * 5),
        ((1, 0.5, 1, 1, 0.9), 1.7e308, [1.0] * 5),
        ((1, 0.5, 1, 1, 0.9), 1.7e308, [1e-300, 0.0, 1e-300, 0.0, 0.0]),
        ((1, 0.5, 1, 1, 0.9), -sys.float_info.max, [sys.float_info.max] * 5),
        ((1, 0.5, 1, 1, 0.9), 1.0, [1e308, -1e308, 1e308, -1e308, 1e308]),
        ((0, 0, 2.3921247255266395e73, 2.7660581261338226, 0.5275321167000603),
         9.683126866906174e74, [1.0821411838592031e-79, -1.1258726433434284e-153,
                                1.1770092719779246e-227, -1.237457674546833e-301,
                                0.0])])
    def test_ode_residual_refuses_an_overflowing_term(self, tup, x, derivs):
        mp = MeanParams(validate(*tup), 1)
        with pytest.raises(NotConverged, match="a term overflows"):
            ode_residual_density(mp, x, derivs)

    def test_ode_residual_needs_five_derivatives(self):
        mp = MeanParams(validate(0, 0, 1, 1, 0.3), 1)
        with pytest.raises(ValueError, match="first four derivatives"):
            ode_residual_density(mp, 0.5, [1.0, 2.0, 3.0, 4.0])
        # no term to scale by: the zero function solves the ODE
        assert ode_residual_density(mp, 0.5, [0.0] * 5) == 0.0

    # (0, 0, 1, 1, 0.3) at n = 2 and x = 1e-4 returned f''' 8.1e-5 and
    # f'''' 22% off a 60-digit mpmath derivative; at n = 4 and x = 1e-7 the
    # ODE residual read 0.99999993.  The recursion divides by B_2 = O(x)
    # at each step; its rounding bound reads 1.1e-7 and 1.4e-3 of f''' and
    # f'''' at the first point, 8.6e-3 and 1.0e-2 at the last
    @pytest.mark.parametrize("n, x", [(2, 1e-4), (2, -1e-4), (4, 1e-7)])
    def test_cancelled_zero_mean_derivatives_not_converged(self, n, x):
        mp = MeanParams(validate(0, 0, 1, 1, 0.3), n)
        with pytest.raises(NotConverged, match="cancels to its rounding"):
            mean_zero_means_derivatives(mp, x)

    # the adjoint of the general A1 table holds at any variances
    @pytest.mark.parametrize("tup", [(1, 0.5, 1.7, 0.6, 0.2),
                                     (-0.7, 1.3, 0.8, 1.6, -0.5)])
    def test_ode_residual_at_general_variances(self, tup):
        mp = MeanParams(validate(*tup), 1)
        for x in (-1.5, -0.6, 0.7, 1.0, 2.2):
            derivs = pdf_product_derivatives(mp.base, x)
            assert abs(ode_residual_density(mp, x, derivs)) <= 1e-12

    @pytest.mark.parametrize("tup, n", [((0, 0, 2, 0.5, 0.3), 3),
                                        ((0, 0, 0.7, 1.9, -0.4), 2)])
    def test_zero_mean_ode_residual_at_general_variances(self, tup, n):
        mp = MeanParams(validate(*tup), n)
        for x in (-1.5, -0.6, 0.7, 1.0, 2.2):
            derivs = mean_zero_means_derivatives(mp, x)
            assert abs(ode_residual_density(mp, x, derivs)) <= 1e-12

    def test_integral_derivatives_singular_at_origin(self):
        with pytest.raises(SingularPoint):
            pdf_product_derivatives(validate(1, 1, 1, 1, 0), 0.0)

    def test_integral_derivatives_near_origin(self):
        # the finite-difference stencil used to cross x = 0 here
        derivs = pdf_product_derivatives(validate(1, 1, 1, 1, 0), 0.01)
        assert all(math.isfinite(d) for d in derivs) and derivs[0] > 0


class TestCdf:
    def test_monotone_and_limits(self):
        p = validate(0.6, -0.8, 1.0, 1.2, 0.25)
        xs = [-40.0, -1.0, 0.0, 1.0, 40.0]
        vals = [cdf_product(p, x) for x in xs]
        assert all(b >= a for a, b in zip(vals, vals[1:]))
        assert vals[0] == pytest.approx(0.0, abs=1e-6)
        assert vals[-1] == pytest.approx(1.0, abs=1e-6)
        # an empty bracket: at |x| = 100 the tail's conditional probability
        # vanishes below |u| = 1, and phi_X past |u| = 40 sigma_x = 0.4
        p = validate(0, 0, 0.01, 1, 0)
        assert (cdf_product(p, -100.0), cdf_product(p, 100.0)) == (0.0, 1.0)

    @pytest.mark.parametrize("scales", [(1e-170, 1e170), (1e170, 1e-170),
                                        (1e-300, 1e300), (1e300, 1e-300)])
    @pytest.mark.parametrize("ratios", [(0, 0), (0.5, -0.3)])
    @pytest.mark.parametrize("x", [0.7, -1.5, -5e-324])
    def test_out_of_range_slope_rescales(self, scales, ratios, x):
        # the slope rho sigma_y / sigma_x overflows (an exit 3) or underflows
        # to 0 (a wrong CDF); the unit-variance problem is in range
        sx, sy = scales
        p = validate(ratios[0] * sx, ratios[1] * sy, sx, sy, 0.5)
        unit = validate(*ratios, 1, 1, 0.5)
        assert cdf_product(p, x) == cdf_product(unit, x / sx / sy)
        assert cdf_product(p, x) == pytest.approx(
            cdf_product(unit, x), rel=1e-14, abs=1e-300)

    @pytest.mark.parametrize("scales", [(1e-170, 1e170), (1e170, 1e-170),
                                        (1e-300, 1e300), (1e300, 1e-300)])
    @pytest.mark.parametrize("x", [1e300, -1e300, 0.7])
    def test_out_of_range_ratio_at_rho_0_rescales(self, scales, x):
        # no slope, but at sigma_y = 1e-170 a large x / u divided by s
        # overflowed: "overflow encountered in divide" at x = 1e300
        sx, sy = scales
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = cdf_product(validate(0, 0, sx, sy, 0), x)
        unit = validate(0, 0, 1, 1, 0)
        assert got == cdf_product(unit, x / sx / sy)
        assert got == pytest.approx(cdf_product(unit, x), rel=1e-14)

    @pytest.mark.parametrize("params, x, expected", [
        ((0, 0, 1, 1e-300, 0), 1e300, 1.0),
        ((0, 0, 1, 1e-20, 0), 1e300, 1.0),
        ((0, 0, 1, 1e-5, 0), 1e306, 1.0),
        ((0, 0, 1, 1e-300, 0.5), 1e300, 1.0),
        ((0, 0, 1, 1e-300, 0), -1e300, 0.0),
        # this one ran out of nodes (NotConverged)
        ((1, 2, 1, 1e-300, 0.3), -1e300, 0.0)])
    def test_far_past_the_conditional_sd(self, params, x, expected):
        # sigma_y/sigma_x is in range, but sigma_y sqrt(1 - rho^2) is so
        # small against x that z / u / s overflowed ("overflow encountered
        # in divide"); Phi's argument is beyond +-40 over the whole bracket
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cdf_product(validate(*params), x) == expected

    def test_zero_mean_uncorrelated_median_at_zero(self):
        assert cdf_product(validate(0, 0, 1, 1, 0), 0.0) == pytest.approx(
            0.5, abs=1e-7)

    def test_matches_quadrature_of_density(self):
        p = validate(1.0, 0.5, 1, 1, 0.3)
        val, _ = integrate.quad(lambda t: pdf_product(p, t).value, -np.inf, -0.4,
                                limit=300)
        assert cdf_product(p, -0.4) == pytest.approx(val, abs=1e-8)

    @pytest.mark.parametrize("tup, x", [((0, 0, 0.5, 2, 0.9), -1.0),
                                        ((0, 0, 1, 1, 0.0), 0.5),
                                        ((1, 1, 1, 1, 0.0), -0.5)])
    def test_matches_series_cdf(self, tup, x):
        # quadrature of the Bessel-series density: shares no code with the
        # conditional integral
        p = validate(*tup)
        assert cdf_product(p, x) == pytest.approx(cdf_product_series(p, x),
                                                  abs=1e-9)

    @pytest.mark.parametrize("tup, x, value", [
        ((0, 0, 0.5, 2, 0.9), 2.0, 0.8579843675816574),
        ((-1, 0, 0.5, 1, 0.0), -3.0, 0.0102006180330581),
        ((3, 0, 1, 2, 0.0), -0.5, 0.46031051600491846),
        ((1, 1, 1, 1, 0.9), 0.5, 0.3578013423754003)])
    def test_series_cdf_pinned(self, tup, x, value):
        # bits recorded while the integrand still ran the series to 1500
        # blocks and cut values below 1e-40 to 0; the path may change, the
        # values may not
        assert tup in NORMALIZATION_SWEEP
        assert cdf_product_series(validate(*tup), x) == value

    def test_series_cdf_at_the_ends(self):
        p = validate(1, 0.5, 1, 1, 0.3)
        # (0, 5e-324) has a half-width that rounds to 0, so quad evaluates
        # it at t = 0 alone, where the density is taken as 0
        assert cdf_product_series(p, 5e-324) == cdf_product_series(p, 0.0)
        assert cdf_product_series(p, -1e4) == 0.0  # below the tail cutoff

    # F(x) from mpmath.quad of phi_X(u) Phi(+-(x/u - m(u))/s) over
    # mu_x +- 40 sigma_x at 60 digits, with breakpoints at 0, mu_x, the
    # roots of x/u = m(u) and 2 and 8 step widths either side of each root
    # (40 digits agree to 1e-31 or better).  The first three sit on the
    # narrow step of Phi at |rho| = 0.999, and the next three at |rho| =
    # 0.9999, where the unit-step grid of the whole bracket spans thousands
    # of steps; F(-1e4) is 4.5e-90536.  The last two, at |rho| = 0.99 and
    # 0.999, would take over 2^9 nodes at a quarter step on the guessed
    # bracket, so their first grid takes the unit step.
    REFERENCES = [
        ((0.90703, 2.99599, 0.66968, 0.54007, 0.999), 1e-8,
         "0.087800717210774389873893958680964"),
        ((-4.8402, 5.3582, 0.13161, 0.34891, -0.999), -40.3466,
         "2.4981128181462654113902159952975e-8"),
        ((-7.26895, -6.11308, 4.65257, 0.18192, 0.999), 45.311,
         "0.51172250139384553279172723669806"),
        ((1, 0.5, 1, 1, 0.9999), 0.7, "0.49677688703396938300481071149337"),
        ((-0.308735, 1.79364, 0.853275, 0.979677, 0.9999), 3.9988,
         "0.95582510132092309139102042130850"),
        ((1.10523, -0.217054, 0.832833, 1.46141, -0.9999), -2.92911,
         "0.18659749091939515049195972507322"),
        ((1, 1, 1, 1, 0.9), 1e-30, "0.086329833006197499771710896901486"),
        ((1, 1, 1, 1, 0.9), -1e-30, "0.086329833006197499771710896842308"),
        ((1, 1, 1, 1, 0.9), 1e4, "1"),
        ((1, 1, 1, 1, 0.9), -1e4, "0"),
        ((2.40427, -1.29576, 2.96317, 2.10852, 0.99), -1.18867,
         "0.42277131018481063409343577495166"),
        ((-2.98674, -2.33868, 0.5794, 0.924432, -0.999), 5.94628,
         "0.27479283772798610636460369723132"),
    ]

    @pytest.mark.parametrize("tup, x, ref", REFERENCES)
    def test_matches_high_precision_reference(self, tup, x, ref):
        ref = float(ref)
        err = abs(cdf_product(validate(*tup), x) - ref)
        assert err <= 1e-12
        # the smaller tail is accurate relative to its own size
        assert err <= 1e-12 * min(ref, 1 - ref)

    # |rho| = 0.9999 points whose bracket reaches the near-zero step
    # widening: without it (tau = t on [tau_lo, hi]) the grid runs past 2^18
    # nodes.  References as above (60 digits; 40 agree to 4e-36)
    @pytest.mark.parametrize("tup, x, ref", [
        ((12.7028, 18.5454, 2.13134, 0.500005, 0.9999), 132.85,
         "0.0089033365119039173409531454004361"),
        ((-14.1126, -16.7591, 2.3804, 0.46632, 0.9999), 110.283,
         "0.001751309429472119624433553941272")])
    def test_converges_with_the_widening_where_it_is_needed(self, tup, x, ref):
        ref = float(ref)
        err = abs(cdf_product(validate(*tup), x) - ref)
        assert err <= 1e-12 * min(ref, 1 - ref)

    def test_uses_neither_series_nor_quadrature(self, monkeypatch):
        from normprod import density

        def forbidden(*args, **kwargs):
            raise AssertionError("cdf_product must not call this")
        for name in ("pdf_product", "_series_parts", "_pdf_value"):
            monkeypatch.setattr(density, name, forbidden)
        monkeypatch.setattr(integrate, "quad", forbidden)
        assert list(inspect.signature(cdf_product).parameters) == ["p", "x"]
        assert 0 < cdf_product(validate(0.6, -0.8, 1.0, 1.2, 0.25), 0.3) < 1

    def test_import_leaves_out_quadrature(self):
        # scipy.integrate serves only cdf_product_series and costs a
        # fifth of a second of start-up
        code = "import sys, normprod; print('scipy.integrate' in sys.modules)"
        proc = subprocess.run([sys.executable, "-c", code],
                              capture_output=True, text=True, check=True)
        assert proc.stdout.strip() == "False"

    def test_node_budget(self):
        # the step of Phi at rho = -0.999999 is too narrow for 2^18 nodes;
        # the failure must be fast, whatever the first grid
        started = time.perf_counter()
        with pytest.raises(NotConverged):
            cdf_product(validate(-4.38, -5.4, 0.496, 0.146, -0.999999), 3.2)
        assert time.perf_counter() - started < 2.0

    @pytest.mark.parametrize("tup", NORMALIZATION_SWEEP)
    def test_first_grid_is_the_last(self, tup, monkeypatch):
        # at mean -+ sd, the quarter-step grid on the bracket of the
        # guessed peak bound is accepted: one evaluation of the integrand
        # and no probe, where the unit step took three
        moments = closed_form_four(MeanParams(validate(*tup), 1))
        mean, sd = moments.raw[0], math.sqrt(moments.variance)
        calls = count_kernel_evaluations(monkeypatch)
        for x in (mean - sd, mean + sd):
            calls.clear()
            assert 0 < cdf_product(validate(*tup), x) < 1
            assert len(calls) == 1 and calls[0] <= 512

    @pytest.mark.parametrize("tup, x", [((0, 0, 0.5, 2, 0.9), -0.4454),
                                        ((1, 1, 1, 1, 0.9), 4.2685),
                                        ((-3, 0, 2, 1, 0.0), -3.6056)])
    def test_coarse_first_grid_is_refined(self, tup, x, monkeypatch):
        # forced to start at 8 times its step, the kernel must trim and
        # refine to the same value
        ref = cdf_product(validate(*tup), x)
        calls = count_kernel_evaluations(monkeypatch, lambda n: n // 8 + 2)
        assert abs(cdf_product(validate(*tup), x) - ref) <= 1e-15
        assert len(calls) >= 3
