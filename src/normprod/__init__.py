"""normprod: the distribution of the product of correlated normals.

Exact density evaluation, Stein operators and their substitution
identities, moment recursions with closed forms, the characteristic
function and its differential equation, exact-rational operator search,
and reproducible Monte Carlo verification, for Z = XY with (X, Y)
bivariate normal and for the mean of n independent copies.
"""

from .bessel import (
    BesselOrder,
    bessel_k,
    bessel_k_sequence,
    log_bessel_k,
    log_bessel_k_sequence,
)
from .charfn import (
    cf_grid,
    cf_mean,
    cf_mean_derivative,
    cf_ode_residual,
    cf_raw_moments,
)
from .density import (
    DensityValue,
    cdf_product,
    cdf_product_series,
    mean_zero_means_derivatives,
    ode_residual_density,
    pdf_mean_zero_means,
    pdf_product,
    pdf_product_derivatives,
    pdf_product_series,
    pdf_single_zero_mean,
)
from .errors import (
    CaseMismatch,
    CorrelationOutOfRange,
    DegenerateVariance,
    InvalidCount,
    InvalidGrid,
    InvalidOrder,
    InvalidTestFunction,
    NonFiniteParameter,
    NonPositiveArgument,
    NonPositiveSigma,
    NormProdError,
    NotConverged,
    NotSquare,
    OverflowUnscaled,
    ParameterNotRational,
    SingularPoint,
    ValidationError,
)
from .mc import (
    ComplexEstimate,
    EstimateWithError,
    SamplerConfig,
    estimate_cf,
    estimate_cfs,
    estimate_moment,
    estimate_stein_expectation,
    estimate_stein_expectations,
    sample_mean_of_products,
)
from .moments import (
    ClosedFormFour,
    MomentTable,
    central_moments,
    central_moments_equal_ratio,
    central_moments_exact,
    closed_form_four,
    raw_moments,
    raw_moments_equal_ratio,
    raw_moments_exact,
)
from .opsearch import (
    OperatorAnsatz,
    OperatorSearchResult,
    determinant_exact,
    in_span,
    moment_system,
    nullspace_exact,
    operator_exists,
    to_fraction,
)
from .params import (
    DistributionCase,
    MeanParams,
    ProductNormalParams,
    classify,
    validate,
)
from .stein import (
    SteinOperatorSpec,
    TestFunction,
    apply,
    cosine,
    exponential,
    gaussian_bump,
    monomial,
    operator_a1,
    operator_a2,
    operator_special,
    sine,
    substitution_identity_check,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
