"""The library's public surface, pinned so that a new parameter, default
or exported name shows up as a diff of this file."""

import enum
import inspect

import pytest

import normprod

#: Parameters of every public function and class, with their defaults.
SIGNATURES = {
    "BesselOrder": ["twice_nu"],
    "ClosedFormFour": ["raw", "central", "variance", "skewness", "kurtosis"],
    "ComplexEstimate": ["re", "im"],
    "DensityValue": ["log_abs", "sign", "converged", "terms_used"],
    "EstimateWithError": ["mean", "stderr", "count"],
    "MeanParams": ["base", "n=1"],
    "MomentTable": ["kind", "values", "provenance"],
    "OperatorAnsatz": ["order"],
    "OperatorSearchResult": ["exists", "nullspace_basis"],
    "ProductNormalParams": ["mu_x", "mu_y", "sigma_x", "sigma_y", "rho"],
    "SamplerConfig": ["seed", "count"],
    "SteinOperatorSpec": ["order", "coeffs"],
    "TestFunction": ["evaluate", "label"],
    "apply": ["spec", "f", "x"],
    "bessel_k": ["order", "x", "scaled=False"],
    "bessel_k_sequence": ["max_order", "x", "scaled=False"],
    "cdf_product": ["p", "x"],
    "cdf_product_series": ["p", "x"],
    "central_moments": ["mp", "kmax"],
    "central_moments_equal_ratio": ["mp", "kmax"],
    "central_moments_exact": ["mp", "kmax"],
    "cf_grid": ["mp", "ts"],
    "cf_mean": ["mp", "t"],
    "cf_mean_derivative": ["mp", "t"],
    "cf_ode_residual": ["mp", "t"],
    "cf_raw_moments": ["mp", "kmax"],
    "check_derivatives": ["f"],
    "classify": ["p"],
    "closed_form_four": ["mp"],
    "cosine": ["t"],
    "determinant_exact": ["matrix"],
    "estimate_cf": ["mp", "t", "cfg"],
    "estimate_moment": ["mp", "k", "central", "cfg"],
    "estimate_stein_expectation": ["mp", "spec", "f", "cfg"],
    "exponential": ["a"],
    "from_callable": ["fn", "h=1e-05"],
    "gaussian_bump": ["a"],
    "in_span": ["vector", "basis"],
    "kurtosis": ["mp"],
    "log_bessel_k": ["order", "x"],
    "log_bessel_k_sequence": ["max_order", "x"],
    "mean_zero_means_derivatives": ["mp", "x"],
    "moment_system": ["mp", "ansatz", "num_equations"],
    "monomial": ["k"],
    "nullspace_exact": ["matrix"],
    "ode_residual_density": ["mp", "x", "derivs"],
    "operator_a1": ["mp"],
    "operator_a2": ["mp"],
    "operator_exists": ["mp", "order", "num_equations=None"],
    "operator_special": ["which", "mp"],
    "pdf_mean_zero_means": ["mp", "x"],
    "pdf_product": ["p", "x"],
    "pdf_product_derivatives": ["p", "x"],
    "pdf_product_series": ["p", "x"],
    "pdf_single_zero_mean": ["p", "x"],
    "polynomial": ["coeffs"],
    "raw_moments": ["mp", "kmax"],
    "raw_moments_equal_ratio": ["mp", "kmax"],
    "raw_moments_exact": ["mp", "kmax"],
    "sample_mean_of_products": ["mp", "cfg"],
    "sine": ["t"],
    "skewness": ["mp"],
    "substitution_identity_check": ["mp", "f", "x", "which='auto'"],
    "to_fraction": ["value"],
    "validate": ["mu_x", "mu_y", "sigma_x", "sigma_y", "rho"],
}

#: Bases of every public exception: a ValueError subclass is caught by
#: callers that expect the built-in error.
EXCEPTIONS = {
    "NormProdError": ("Exception",),
    "ValidationError": ("NormProdError",),
    "NonPositiveSigma": ("ValidationError",),
    "CorrelationOutOfRange": ("ValidationError",),
    "NonFiniteParameter": ("ValidationError", "ValueError"),
    "InvalidCount": ("ValidationError", "ValueError"),
    "InvalidGrid": ("ValidationError", "ValueError"),
    "InvalidOrder": ("ValidationError", "ValueError"),
    "InvalidTestFunction": ("ValidationError", "ValueError"),
    "CaseMismatch": ("NormProdError",),
    "DegenerateVariance": ("NormProdError",),
    "NonPositiveArgument": ("NormProdError",),
    "NotConverged": ("NormProdError",),
    "NotSquare": ("NormProdError",),
    "OverflowUnscaled": ("NormProdError",),
    "ParameterNotRational": ("NormProdError",),
    "SingularPoint": ("NormProdError",),
}

ENUMS = {"DistributionCase": ["general", "equal_ratio", "zero_means",
                              "one_zero_mean_uncorrelated"]}


def _public_callables():
    return [name for name in normprod.__all__
            if callable(getattr(normprod, name))]


def _is(name, kind):
    obj = getattr(normprod, name)
    return isinstance(obj, type) and issubclass(obj, kind)


def test_every_public_callable_is_pinned():
    assert sorted(_public_callables()) == sorted(
        [*SIGNATURES, *EXCEPTIONS, *ENUMS])


@pytest.mark.parametrize("name", sorted(SIGNATURES))
def test_parameters_and_defaults(name):
    params = inspect.signature(getattr(normprod, name)).parameters.values()
    assert [p.name if p.default is p.empty else f"{p.name}={p.default!r}"
            for p in params] == SIGNATURES[name]


@pytest.mark.parametrize("name", sorted(EXCEPTIONS))
def test_exception_bases(name):
    assert _is(name, BaseException)
    assert tuple(b.__name__ for b in getattr(normprod, name).__bases__) == \
        EXCEPTIONS[name]


@pytest.mark.parametrize("name", sorted(ENUMS))
def test_enum_members(name):
    assert _is(name, enum.Enum)
    assert [m.value for m in getattr(normprod, name)] == ENUMS[name]
