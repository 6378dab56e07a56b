import warnings

import numpy as np
import pytest
import scipy.stats

from normprod import (
    InvalidCount,
    MeanParams,
    NonFiniteParameter,
    NotConverged,
    SamplerConfig,
    ValidationError,
    central_moments_exact,
    cf_mean,
    closed_form_four,
    estimate_cf,
    estimate_cfs,
    estimate_moment,
    estimate_stein_expectation,
    estimate_stein_expectations,
    raw_moments_exact,
    sample_mean_of_products,
    validate,
)
from normprod import stein
from conftest import random_mean_params

MP = MeanParams(validate(0.8, -1.2, 1.1, 0.9, 0.3), 2)


def collect(mp, cfg):
    return np.concatenate(list(sample_mean_of_products(mp, cfg)))


class TestSampler:
    def test_deterministic_given_seed(self):
        a = collect(MP, SamplerConfig(seed=11, count=5000))
        b = collect(MP, SamplerConfig(seed=11, count=5000))
        assert np.array_equal(a, b)

    def test_different_seeds_differ(self):
        a = collect(MP, SamplerConfig(seed=11, count=1000))
        b = collect(MP, SamplerConfig(seed=12, count=1000))
        assert not np.array_equal(a, b)

    def test_batches_reproducible_out_of_order(self):
        # each batch is keyed by (seed, batch index): regenerating any
        # batch from its key must reproduce the sequential stream.  The
        # draw formula is restated here, with scale = sigma_x sigma_y /
        # (4n), c, d = scale a+-^2 and the wider normal on the cosine row:
        # one fill of uniforms U', U gives E = -log(1 - U'), v = tan(pi U)
        # and the rows k (1 - v^2) + sqrt(scale) b and ratio k v +
        # sqrt(scale) b', k = sqrt(2 scale a^2 E) / (1 + v^2), a sample
        # being (plus - minus)(plus + minus); for even n one more fill
        # gives c N3^2 - d N4^2 = 2E ((c + d)/(1 + v^2) - d); then c and -d
        # times 2 Gamma(k), k = (n - 1) // 2, -log of a product of k
        # factors 1 - U up to the cutoff, numpy's gamma above
        from normprod.mc import _UNIFORM_GAMMA_MAX, BATCH, _batch_rng

        def restated(p, n, rng, size):
            scale = p.sigma_x * p.sigma_y / (4 * n)
            var_plus, var_minus = 2 * (1 + p.rho), 2 * (1 - p.rho)
            c, d = scale * var_plus, scale * var_minus
            plus = (var_plus, np.sqrt(n) * (p.r_x + p.r_y) * np.sqrt(scale))
            minus = (var_minus, np.sqrt(n) * (p.r_x - p.r_y) * np.sqrt(scale))
            (cw, cb), (sw, sb) = (plus, minus) if p.rho >= 0 else (minus, plus)
            e, u = rng.random((2, size))
            v = np.tan(np.pi * u)
            k = np.sqrt(np.log(1.0 - e) * -(2 * scale * cw)) / (1.0 + v * v)
            rows = [k * (1.0 - v * v) + cb, v * k * (2 * np.sqrt(sw / cw)) + sb]
            first, second = rows if p.rho >= 0 else rows[::-1]
            total = (first - second) * (first + second)
            if n % 2 == 0:
                e, u = rng.random((2, size))
                v = np.tan(np.pi * u)
                total += np.log(1.0 - e) * (-2 * (c + d) / (1.0 + v * v)
                                            + 2 * d)
            shape = (n - 1) // 2
            for weight in (c, -d) if shape else ():
                if shape <= _UNIFORM_GAMMA_MAX:
                    prod = 1.0 - rng.random(size)
                    for _ in range(shape - 1):
                        prod *= 1.0 - rng.random(size)
                    total += np.log(prod) * (-2 * weight)
                else:
                    total += 2 * weight * rng.standard_gamma(shape, size)
            return total

        # n = 14 and 17 draw the largest uniform-product gamma and the
        # smallest numpy one; 2, 4 and 14 the even-n odd-dof weight, 4
        # with a gamma part; rho < 0 puts the minus normal on the cosine
        for p, ns in ((MP.base, (1, 2, 4, 5, 14, 17)),
                      (validate(-0.4, 1.3, 0.7, 2.2, -0.6), (1, 4))):
            for n in ns:
                mp = MeanParams(p, n)
                # two full batches and a short last one
                cfg = SamplerConfig(seed=3, count=2 * BATCH + 1000)
                batches = list(sample_mean_of_products(mp, cfg))
                assert [b.size for b in batches] == [BATCH, BATCH, 1000]
                # each batch a new array: list() keeps every one of them
                assert not any(np.shares_memory(a, b) for i, a in
                               enumerate(batches) for b in batches[i + 1:])
                for idx in (2, 0, 1):
                    expected = restated(p, n, _batch_rng(cfg, idx),
                                        batches[idx].size)
                    assert np.array_equal(batches[idx], expected), (n, idx)

    @pytest.mark.parametrize("n,expected", [
        (1, [-0.07750798318158518, 0.9125465573303428, 0.4645381373806127,
             -2.309125248358105, 1.5677570447589049]),
        (2, [-0.41378278965414256, 0.19264097499942684, 0.9033937149427214,
             -2.324328894298814, 0.6192782577477942]),
    ])
    def test_small_n_streams_unchanged(self, n, expected):
        # the n = 1 and n = 2 streams draw no gamma; their bits are pinned
        # so that a change of the chi-square draw cannot move them
        got = collect(MeanParams(MP.base, n), SamplerConfig(seed=3, count=5))
        assert got.tolist() == expected

    # at mu_x = 1e80 each N1 and N2 is lost in the rounding of its shift,
    # and every sample used to come out 0.0; the sd bound is derived in
    # sample_mean_of_products
    @pytest.mark.parametrize("tup, n, refused", [
        ((1e80, 1, 1, 1, 0), 1, True), ((4.6e9, 0, 1, 1, 0), 1, True),
        ((1e200, 1e200, 1, 1, 0.5), 3, True), ((4.4e9, 0, 1, 1, 0), 1, False),
        ((3, -3, 0.5, 0.5, 0.9), 5, False)])
    def test_means_past_the_digits_refused(self, tup, n, refused):
        mp = MeanParams(validate(*tup), n)
        cfg = SamplerConfig(seed=0, count=10)
        if not refused:
            assert np.isfinite(collect(mp, cfg)).all()
            return
        calls = [lambda: collect(mp, cfg),
                 lambda: estimate_moment(mp, 2, True, cfg),
                 lambda: estimate_cf(mp, 1.0, cfg),
                 # an in-range operator: at mu = 1e200 its own table
                 # leaves the double range
                 lambda: estimate_stein_expectation(
                     mp, stein.operator_a1(MP), stein.monomial(2), cfg)]
        for call in calls:
            with pytest.raises(NotConverged, match="loses its digits"):
                call()

    # each used to return NaN or warn: the scale sigma_x sigma_y / 8
    # overflows (a NaN Stein mean, a tan of inf), the squares of samples
    # near 1e170 overflow (a warning and an infinite moment), or a sample
    # sigma_x sigma_y / 4 times a total of about 1e19 does
    @pytest.mark.parametrize("call, match", [
        (lambda cfg: estimate_stein_expectation(
            MeanParams(validate(0, 0, 1e170, 1e170, 0.3), 2),
            stein.operator_a1(MP), stein.monomial(3), cfg), "scale"),
        (lambda cfg: estimate_cf(
            MeanParams(validate(0, 0, 1e170, 1e170, 0.3), 2), 1e-300, cfg),
         "scale"),
        (lambda cfg: collect(
            MeanParams(validate(0, 0, 1e-170, 1e-170, 0.3), 2), cfg),
         "scale"),
        (lambda cfg: estimate_moment(
            MeanParams(validate(0, 0, 1e170, 1, 0.3)), 2, False, cfg),
         "estimate"),
        (lambda cfg: estimate_moment(
            MeanParams(validate(0, 0, 1e170, 1, 0.3)), 2, True, cfg),
         "sum of powers"),
        (lambda cfg: collect(
            MeanParams(validate(1e9, 1e9, 1e300, 1e5, 0.3)), cfg),
         "overflows")],
        ids=["stein-scale", "cf-scale", "scale-underflows", "raw-moment",
             "central-moment", "sample"])
    def test_past_the_double_range_refused(self, call, match):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NotConverged, match=match):
                call(SamplerConfig(seed=1, count=100))

    # sigma_x sigma_y / (4n) near the top of the double range: at 1e7
    # every one of 5000 samples is finite, at 1e8 some overflow; the
    # constants folded into the draws must not change either outcome
    @pytest.mark.parametrize("n", [1, 2, 5])
    @pytest.mark.parametrize("sigma_y, finite", [(1e7, True), (1e8, False)])
    def test_overflow_at_the_top_of_the_range(self, n, sigma_y, finite):
        mp = MeanParams(validate(0, 0, 1e300, sigma_y, 0.3), n)
        cfg = SamplerConfig(seed=0, count=5000)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            if finite:
                assert np.isfinite(collect(mp, cfg)).all()
            else:
                with pytest.raises(NotConverged, match="overflows"):
                    collect(mp, cfg)

    @pytest.mark.parametrize("rho", [0.3, -0.9])
    def test_folded_constant_past_the_double_range_refused(self, rho):
        # scale = 4e307 is in range, but 8 scale, which bounds the
        # constants folded into the draws, is not (only at n = 1 can it
        # leave the range while sigma_x sigma_y does not): a Python float
        # product that overflows to inf raises no floating-point error,
        # and would have put inf and NaN into the samples
        mp = MeanParams(validate(0, 0, 1e300, 1.6e8, rho), 1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NotConverged, match="overflows"):
                collect(mp, SamplerConfig(seed=0, count=2))

    def test_count_respected(self):
        assert collect(MP, SamplerConfig(seed=0, count=12345)).size == 12345

    def test_invalid_count(self):
        with pytest.raises(ValueError):
            SamplerConfig(seed=0, count=0)

    @pytest.mark.parametrize("seed", [-1, 2.0, True, "3"])
    def test_invalid_seed(self, seed):
        # a negative seed used to reach numpy's SeedSequence and fail there
        with pytest.raises(ValidationError):
            SamplerConfig(seed=seed, count=10)

    def test_sample_mean_and_variance_within_band(self):
        cfg = SamplerConfig(seed=5, count=400_000)
        vals = collect(MP, cfg)
        cf4 = closed_form_four(MP)
        mean_err = abs(vals.mean() - cf4.raw[0])
        stderr = vals.std(ddof=1) / np.sqrt(vals.size)
        assert mean_err <= 4 * stderr
        # variance within a generous band (chi-square stderr approximation)
        var = vals.var(ddof=1)
        var_stderr = var * np.sqrt(2.0 / (vals.size - 1)) * 2
        assert abs(var - cf4.variance) <= 8 * var_stderr

    def test_correlation_direction(self):
        pos = collect(MeanParams(validate(0, 0, 1, 1, 0.8), 1),
                      SamplerConfig(seed=9, count=200_000))
        neg = collect(MeanParams(validate(0, 0, 1, 1, -0.8), 1),
                      SamplerConfig(seed=9, count=200_000))
        assert pos.mean() > 0.5 > -0.5 > neg.mean()


class TestChiSquare:
    @pytest.mark.parametrize("dof", range(1, 16))
    def test_ks_against_scipy(self, dof):
        # 2 Gamma(k) for k = dof // 2 = 0..7: the uniform-product gamma up
        # to the cutoff, numpy's gamma above it; an odd dof adds the
        # square of one normal, the even-n weight at c = 1, d = 0
        from normprod.mc import (_UNIFORM_GAMMA_MAX, _add_chi_square,
                                 _batch_rng, _squares_difference)
        assert 2 * _UNIFORM_GAMMA_MAX + 3 == 15
        rng = _batch_rng(SamplerConfig(seed=808, count=1), dof)
        rows = np.empty((2, 200_000))
        draws = np.zeros(rows.shape[1])
        if dof % 2:
            draws += _squares_difference(rng, 1.0, 0.0, rows)
        _add_chi_square(rng, dof // 2, 1.0, draws, rows)
        assert np.all(np.isfinite(draws)) and np.all(draws >= 0)
        assert scipy.stats.kstest(draws, scipy.stats.chi2(dof).cdf).pvalue > 1e-3


class TestSquaresDifference:
    """The even-n weight: one draw for the two chi-squares' odd-dof
    normals, a+^2 N3^2 - a-^2 N4^2."""

    @pytest.mark.parametrize("rho", [0.0, 0.9, -0.9])
    def test_two_sample_ks_against_scipy(self, rho):
        from normprod.mc import _batch_rng, _squares_difference
        a2_plus, a2_minus = 2 * (1 + rho), 2 * (1 - rho)
        rng = _batch_rng(SamplerConfig(seed=515, count=1), 0)
        drawn = _squares_difference(rng, a2_plus, a2_minus,
                                    np.empty((2, 100_000))).copy()
        chi2 = scipy.stats.chi2(1)
        ref = (a2_plus * chi2.rvs(100_000, random_state=61)
               - a2_minus * chi2.rvs(100_000, random_state=62))
        assert np.all(np.isfinite(drawn))
        assert scipy.stats.ks_2samp(drawn, ref).pvalue > 1e-3


class TestNormalPair:
    """The Box-Muller pair the sampler draws its normals from, at unit
    widths (radius2 = 2, ratio = 2), zero shifts and scale 1."""

    @pytest.fixture(scope="class")
    def pair(self):
        from normprod.mc import _batch_rng, _normal_pair
        rng = _batch_rng(SamplerConfig(seed=909, count=1), 0)
        rows = np.empty((4, 200_000))
        return _normal_pair(rng, 2.0, 2.0, (0.0, 0.0), rows[:2], rows[2:])

    @pytest.mark.parametrize("row", [0, 1])
    def test_each_row_standard_normal(self, pair, row):
        assert np.all(np.isfinite(pair[row]))
        assert scipy.stats.kstest(pair[row], "norm").pvalue > 1e-3

    def test_squared_radius_chi_square_2(self, pair):
        r2 = pair[0] * pair[0] + pair[1] * pair[1]
        assert scipy.stats.kstest(r2, scipy.stats.chi2(2).cdf).pvalue > 1e-3

    @pytest.mark.parametrize("sign", [1, -1])
    def test_rotations_standard_normal(self, pair, sign):
        # (N0 +- N1) / sqrt(2) is standard normal only if the rows are
        # jointly normal, uncorrelated and of unit variance
        rotated = (pair[0] + sign * pair[1]) / np.sqrt(2)
        assert scipy.stats.kstest(rotated, "norm").pvalue > 1e-3


class TestHalfAngle:
    @pytest.mark.parametrize("magnitude", [10.0 ** e for e in range(0, 301, 20)])
    def test_matches_cos_and_sin(self, magnitude):
        from normprod.stein import _cos_sin_from_half
        theta = np.random.default_rng(17).uniform(-1, 1, 200_000) * magnitude
        theta = np.concatenate([theta, [np.pi, -np.pi, 3 * np.pi]])
        cos, sin = _cos_sin_from_half(0.5 * theta, np.empty((2, theta.size)))
        assert np.max(np.abs(cos - np.cos(theta))) <= 4.4e-16
        assert np.max(np.abs(sin - np.sin(theta))) <= 4.4e-16

    @pytest.mark.parametrize("n", [1, 2, 5])
    def test_cf_means_match_cos_and_sin(self, n):
        mp = MeanParams(MP.base, n)
        cfg = SamplerConfig(seed=41, count=100_000)
        z = collect(mp, cfg)
        for t in (0.3, 2.5, 40.0):
            est = estimate_cf(mp, t, cfg)
            assert abs(est.re.mean - np.cos(t * z).mean()) <= 1e-15
            assert abs(est.im.mean - np.sin(t * z).mean()) <= 1e-15


class TestSteinExpectation:
    def test_characterising_expectation_near_zero(self, rng):
        cfg = SamplerConfig(seed=101, count=300_000)
        for _ in range(5):
            mp = random_mean_params(rng)
            spec = stein.operator_a1(mp)
            for f in (stein.monomial(2), stein.gaussian_bump(0.25)):
                est = estimate_stein_expectation(mp, spec, f, cfg)
                assert abs(est.z_score()) <= 4

    def test_detects_wrong_distribution(self):
        # operator built for different parameters must be rejected loudly
        target = MeanParams(validate(1.0, 1.0, 1, 1, 0.0), 1)
        wrong = MeanParams(validate(2.0, 1.0, 1, 1, 0.0), 1)
        spec = stein.operator_a1(wrong)
        est = estimate_stein_expectation(target, spec, stein.monomial(2),
                                         SamplerConfig(seed=21, count=500_000))
        assert abs(est.z_score()) > 6

    def test_one_stream_gives_each_single_estimate(self):
        # every statistic of the shared stream has the bits of its own
        # call: the same batches, slices and pooling, whatever else shares
        # the stream; the count ends inside a batch and inside a slice
        mp = MeanParams(validate(0.8, -1.2, 1.1, 0.9, 0.3), 5)
        spec = stein.operator_a1(mp)
        cfg = SamplerConfig(seed=12, count=70_001)
        fns = [stein.monomial(k) for k in range(5)] + [
            stein.exponential(0.3), stein.sine(1.3), stein.cosine(0.4),
            stein.gaussian_bump(0.25),
            stein.TestFunction(stein.monomial(3).evaluate, "x^3 by hand")]
        together = estimate_stein_expectations(mp, spec, fns, cfg)
        assert together == [estimate_stein_expectation(mp, spec, f, cfg)
                            for f in fns]
        assert estimate_stein_expectations(mp, spec, [], cfg) == []

    def test_hand_written_function_goes_through_apply(self):
        # a TestFunction(evaluate, label) has no derivative table: the
        # estimator calls its evaluate on every 2^13 slice, by ``apply``,
        # and agrees with the built-in's fold far inside a standard error
        calls = []

        def evaluate(x):
            calls.append(np.size(x))
            return stein.monomial(2).evaluate(x)

        by_hand = stein.TestFunction(evaluate, "x^2 by hand")
        assert by_hand.table is None
        cfg = SamplerConfig(seed=3, count=100_000)
        spec = stein.operator_a1(MP)
        est = estimate_stein_expectation(MP, spec, by_hand, cfg)
        assert calls == [8192] * 12 + [1696]
        folded = estimate_stein_expectation(MP, spec, stein.monomial(2), cfg)
        assert est.count == folded.count
        assert abs(est.mean - folded.mean) <= 1e-9 * est.stderr
        assert est.stderr == pytest.approx(folded.stderr, rel=1e-9)

    def test_uncovered_batches_go_through_apply(self):
        # a table goes through ``apply`` (which calls evaluate) on every
        # batch its fold does not cover: under A1 the fold covers them
        # all; a coefficient of 1e304 on f''' (zero for x^2) leaves it
        # no batch of reach > 1.44
        calls = []

        def evaluate(x):
            calls.append(np.size(x))
            return stein.monomial(2).evaluate(x)

        f = stein.TestFunction(evaluate, "x^2", stein.monomial(2).table)
        cfg = SamplerConfig(seed=3, count=20_000)
        estimate_stein_expectation(MP, stein.operator_a1(MP), f, cfg)
        assert calls == []
        big = stein.SteinOperatorSpec(((0.0, 1.0), (0.0, 0.0), (0.0, 1.0),
                                       (1e304, 0.0)))
        assert f.table.fold(big).covers(1.0)
        assert not f.table.fold(big).covers(1.44)
        estimate_stein_expectation(MP, big, f, cfg)
        assert calls == [8192, 8192, 3616]

    def test_zero_stderr_gives_infinite_z(self):
        from normprod.mc import EstimateWithError
        assert EstimateWithError(1.0, 0.0, 10).z_score() == np.inf

    def test_nan_stderr_gives_nan_z(self):
        # NaN > 0 is false, so this used to be +inf
        from normprod.mc import EstimateWithError
        assert np.isnan(EstimateWithError(1.0, np.nan, 10).z_score())


class TestCfAndMoments:
    def test_empirical_cf_matches_analytic(self):
        cfg = SamplerConfig(seed=33, count=400_000)
        for t in (0.5, 1.5, 4.0):
            est = estimate_cf(MP, t, cfg)
            exact = cf_mean(MP, t)
            assert abs(est.re.mean - exact.real) <= 4 * est.re.stderr
            assert abs(est.im.mean - exact.imag) <= 4 * est.im.stderr
            assert est.value == complex(est.re.mean, est.im.mean)

    def test_moment_estimates_match_closed_forms(self):
        cfg = SamplerConfig(seed=55, count=400_000)
        cf4 = closed_form_four(MP)
        raw2 = estimate_moment(MP, 2, central=False, cfg=cfg)
        assert abs(raw2.mean - cf4.raw[1]) <= 4 * raw2.stderr
        cen2 = estimate_moment(MP, 2, central=True, cfg=cfg)
        assert abs(cen2.mean - cf4.central[1]) <= 4 * cen2.stderr

    def test_estimators_need_two_samples(self):
        # one sample used to give a zero standard error and an infinite z
        cfg = SamplerConfig(seed=0, count=1)
        with pytest.raises(InvalidCount):
            estimate_stein_expectation(MP, stein.operator_a1(MP),
                                       stein.monomial(2), cfg)
        with pytest.raises(InvalidCount):
            estimate_cf(MP, 1.0, cfg)
        for central in (False, True):
            with pytest.raises(InvalidCount):
                estimate_moment(MP, 2, central, cfg)

    @pytest.mark.parametrize("t", [np.nan, np.inf, -np.inf])
    def test_cf_at_non_finite_t(self, t):
        with pytest.raises(NonFiniteParameter):
            estimate_cf(MP, t, SamplerConfig(seed=0, count=10))
        with pytest.raises(NonFiniteParameter):
            estimate_cfs(MP, [0.5, t], SamplerConfig(seed=0, count=10))

    def test_one_stream_gives_each_single_cf(self):
        # every t of the shared stream has the bits of its own call: no t
        # may overwrite the batch the next one reads; the count ends
        # inside a batch
        mp = MeanParams(validate(0.8, -1.2, 1.1, 0.9, 0.3), 5)
        cfg = SamplerConfig(seed=12, count=70_001)
        ts = [0.25, -1.7, 0.0, 6.4, 0.25]
        assert estimate_cfs(mp, ts, cfg) == [estimate_cf(mp, t, cfg)
                                             for t in ts]
        assert estimate_cfs(mp, [], cfg) == []

    def test_cf_where_t_z_overflows(self):
        # used to warn of an overflow and return NaN
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NotConverged):
                estimate_cf(MP, 1e308, SamplerConfig(seed=0, count=1000))
            with pytest.raises(NotConverged, match="t=1e\\+308"):
                estimate_cfs(MP, [1.0, 1e308], SamplerConfig(seed=0, count=1000))
            est = estimate_cf(MP, 1e300, SamplerConfig(seed=0, count=1000))
        assert np.isfinite(est.re.mean) and np.isfinite(est.im.mean)

    @pytest.mark.parametrize("k", [0, -1, 2.0])
    def test_invalid_order(self, k):
        # k = -1 used to return a finite 'estimate' of E[1/mean], which
        # does not exist
        for central in (False, True):
            with pytest.raises(InvalidCount):
                estimate_moment(MP, k, central, SamplerConfig(seed=0, count=10))


ORACLE_NS = (1, 2, 3, 4, 5, 20)
ORACLE_BASES = [validate(mx, my, sx, sy, rho)
                for rho in (0.0, 0.95, -0.95)
                for mx, my, sx, sy in ((0.0, 0.0, 1.3, 0.7),
                                       (0.8, -1.5, 1.1, 0.6))]
ORACLE_CASES = [MeanParams(p, n) for p in ORACLE_BASES for n in ORACLE_NS]
ORACLE_IDS = [f"mu=({mp.base.mu_x},{mp.base.mu_y})-rho={mp.base.rho}-n={mp.n}"
              for mp in ORACLE_CASES]


def direct_means(mp, size, rng):
    """The mean of n products from 2n correlated normals per sample."""
    p = mp.base
    u = rng.standard_normal((size, mp.n))
    v = rng.standard_normal((size, mp.n))
    x = p.mu_x + p.sigma_x * u
    y = p.mu_y + p.sigma_y * (p.rho * u + np.sqrt(1 - p.rho ** 2) * v)
    return (x * y).mean(axis=1)


class TestSamplerAgainstExact:
    """The two-chi-square sampler against exact moments and against the
    direct 2n-normal construction."""

    @pytest.mark.parametrize("mp", ORACLE_CASES, ids=ORACLE_IDS)
    def test_mean_and_central_moments(self, mp):
        cfg = SamplerConfig(seed=1234, count=200_000)
        mean = float(raw_moments_exact(mp, 1)[1])
        central = [float(v) for v in central_moments_exact(mp, 4)]
        est = estimate_moment(mp, 1, central=False, cfg=cfg)
        assert abs(est.z_score(mean)) <= 4, ("mean", est)
        for k in (2, 3, 4):
            est = estimate_moment(mp, k, central=True, cfg=cfg)
            assert abs(est.z_score(central[k])) <= 4, (k, est)

    @pytest.mark.parametrize("mp", ORACLE_CASES, ids=ORACLE_IDS)
    def test_two_sample_ks_against_direct_construction(self, mp):
        size = 20_000
        sampled = collect(mp, SamplerConfig(seed=99, count=size))
        direct = direct_means(mp, size, np.random.default_rng(4321))
        assert scipy.stats.ks_2samp(sampled, direct).pvalue > 1e-4

    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_one_pass_central_moment_matches_two_pass(self, k):
        # same stream, centred on the sample mean of the whole stream
        cfg = SamplerConfig(seed=77, count=300_000)
        for mp in (MP, MeanParams(validate(3.0, 2.5, 0.4, 0.5, 0.6), 4)):
            x = collect(mp, cfg)
            y = (x - x.mean()) ** k
            ref_mean = y.mean()
            ref_stderr = y.std(ddof=1) / np.sqrt(y.size)
            est = estimate_moment(mp, k, central=True, cfg=cfg)
            assert abs(est.mean - ref_mean) <= 1e-12 * ref_stderr
            assert est.stderr == pytest.approx(ref_stderr, rel=1e-12)
