import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from normprod import (
    CorrelationOutOfRange,
    DistributionCase,
    InvalidCount,
    MeanParams,
    NonFiniteParameter,
    NonPositiveSigma,
    ValidationError,
    classify,
    validate,
)


class TestValidation:
    def test_valid_roundtrip(self):
        p = validate(1, -2, 0.5, 3, 0.25)
        assert (p.mu_x, p.mu_y, p.sigma_x, p.sigma_y, p.rho) == \
            (1.0, -2.0, 0.5, 3.0, 0.25)

    @pytest.mark.parametrize("sx,sy", [(0, 1), (1, 0), (-1, 1), (1, -2)])
    def test_nonpositive_sigma(self, sx, sy):
        with pytest.raises(NonPositiveSigma):
            validate(0, 0, sx, sy, 0)

    @pytest.mark.parametrize("rho", [1.0, -1.0, 1.5, -2.0])
    def test_correlation_out_of_range(self, rho):
        with pytest.raises(CorrelationOutOfRange):
            validate(0, 0, 1, 1, rho)

    def test_frozen(self):
        p = validate(0, 0, 1, 1, 0)
        with pytest.raises(AttributeError):
            p.rho = 0.5

    def test_derived_quantities(self):
        p = validate(1, 3, 2, 1.5, 0.1)
        assert p.r_x == 0.5
        assert p.r_y == 2.0
        assert p.s == 3.0
        assert MeanParams(p, 4).s_n == 0.75

    @pytest.mark.parametrize("n", [0, -1, 2.5])
    def test_bad_copy_count(self, n):
        with pytest.raises(ValueError):
            MeanParams(validate(0, 0, 1, 1, 0), n)

    @pytest.mark.parametrize("n", [0, 2.0, True])
    def test_bad_copy_count_is_validation_error(self, n):
        with pytest.raises(InvalidCount) as info:
            MeanParams(validate(0, 0, 1, 1, 0), n)
        assert isinstance(info.value, ValidationError)

    def test_numpy_integer_copy_count(self):
        mp = MeanParams(validate(0, 0, 1, 1, 0), np.int64(2))
        assert mp.n == 2 and type(mp.n) is int

    @pytest.mark.parametrize("args", [
        (math.nan, 0, 1, 1, 0), (0, math.inf, 1, 1, 0), (-math.inf, 0, 1, 1, 0),
        (0, 0, math.inf, 1, 0), (0, 0, 1, math.nan, 0), (0, 0, 1, 1, math.nan),
    ])
    def test_non_finite_rejected(self, args):
        with pytest.raises(NonFiniteParameter) as info:
            validate(*args)
        assert isinstance(info.value, ValidationError)
        assert isinstance(info.value, ValueError)


class TestClassify:
    def test_zero_means_wins_over_equal_ratio(self):
        # 0/sigma ratios are trivially equal; the zero-mean tag must win
        assert classify(validate(0, 0, 1, 2, 0.5)) is DistributionCase.ZERO_MEANS

    def test_one_zero_mean_uncorrelated(self):
        assert classify(validate(1, 0, 1, 1, 0)) is \
            DistributionCase.ONE_ZERO_MEAN_UNCORRELATED
        assert classify(validate(0, 2, 1, 1, 0)) is \
            DistributionCase.ONE_ZERO_MEAN_UNCORRELATED

    def test_one_zero_mean_correlated_is_general(self):
        assert classify(validate(1, 0, 1, 1, 0.3)) is DistributionCase.GENERAL

    def test_equal_ratio(self):
        assert classify(validate(1, 2, 1, 2, 0.3)) is DistributionCase.EQUAL_RATIO

    def test_general(self):
        assert classify(validate(1, 2, 1, 1, 0.3)) is DistributionCase.GENERAL

    def test_ratio_tolerance_absorbs_roundoff(self):
        # 0.1 * 3 / 3 differs from 0.1 by one ulp-scale rounding step
        p = validate(0.1 * 3, 0.1, 3, 1, 0)
        assert classify(p) is DistributionCase.EQUAL_RATIO

    def test_ratio_tolerance_is_tight(self):
        assert classify(validate(1, 1.001, 1, 1, 0)) is DistributionCase.GENERAL

    @given(mu_x=st.floats(-3, 3, allow_subnormal=False),
           mu_y=st.floats(-3, 3, allow_subnormal=False),
           rho=st.floats(-0.9, 0.9), c=st.floats(0.25, 4))
    def test_tag_invariant_under_scale(self, mu_x, mu_y, rho, c):
        before = classify(validate(mu_x, mu_y, 1, 1, rho))
        after = classify(validate(c * mu_x, mu_y, c, 1, rho))
        assert before is after
