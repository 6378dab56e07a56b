import numpy as np
import pytest

from normprod import (
    InvalidCount,
    MeanParams,
    SamplerConfig,
    cf_mean,
    closed_form_four,
    estimate_cf,
    estimate_moment,
    estimate_stein_expectation,
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
        # batch from its key must reproduce the sequential stream
        from normprod.mc import _batch_rng
        p = MP.base
        cfg = SamplerConfig(seed=3, count=3000, batch=1000)
        batches = list(sample_mean_of_products(MP, cfg))
        assert len(batches) == 3
        for idx in (2, 0, 1):
            rng = _batch_rng(cfg, idx)
            u = rng.standard_normal((1000, MP.n))
            v = rng.standard_normal((1000, MP.n))
            x = p.mu_x + p.sigma_x * u
            y = p.mu_y + p.sigma_y * (p.rho * u
                                      + np.sqrt(1 - p.rho ** 2) * v)
            assert np.array_equal(batches[idx], (x * y).mean(axis=1))

    def test_count_respected(self):
        assert collect(MP, SamplerConfig(seed=0, count=12345)).size == 12345

    def test_invalid_count(self):
        with pytest.raises(ValueError):
            SamplerConfig(seed=0, count=0)

    @pytest.mark.parametrize("batch", [0, -5])
    def test_invalid_batch(self, batch):
        # a zero batch used to be kept and yield empty batches forever
        with pytest.raises(InvalidCount):
            SamplerConfig(seed=0, count=10, batch=batch)

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

    def test_zero_stderr_gives_infinite_z(self):
        from normprod.mc import EstimateWithError
        assert EstimateWithError(1.0, 0.0, 10).z_score() == np.inf


class TestCfAndMoments:
    def test_empirical_cf_matches_analytic(self):
        cfg = SamplerConfig(seed=33, count=400_000)
        for t in (0.5, 1.5, 4.0):
            est = estimate_cf(MP, t, cfg)
            exact = cf_mean(MP, t)
            assert abs(est.re.mean - exact.real) <= 4 * est.re.stderr
            assert abs(est.im.mean - exact.imag) <= 4 * est.im.stderr

    def test_moment_estimates_match_closed_forms(self):
        cfg = SamplerConfig(seed=55, count=400_000)
        cf4 = closed_form_four(MP)
        raw2 = estimate_moment(MP, 2, central=False, cfg=cfg)
        assert abs(raw2.mean - cf4.raw[1]) <= 4 * raw2.stderr
        cen2 = estimate_moment(MP, 2, central=True, cfg=cfg)
        assert abs(cen2.mean - cf4.central[1]) <= 4 * cen2.stderr
