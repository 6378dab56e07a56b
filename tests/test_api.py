"""The library's public surface, pinned so that a new parameter, default
or exported name shows up as a diff of this file."""

import dataclasses
import enum
import inspect
import math
import warnings
from fractions import Fraction

import numpy as np
import pytest

import normprod

#: Parameters of every public function and class, with their defaults.
SIGNATURES = {
    "BesselOrder": ["twice_nu"],
    "ClosedFormFour": ["raw", "central", "variance", "skewness", "kurtosis"],
    "ComplexEstimate": ["re", "im"],
    "DensityValue": ["log_abs", "terms_used"],
    "EstimateWithError": ["mean", "stderr", "count"],
    "MeanParams": ["base", "n=1"],
    "MomentTable": ["kind", "values"],
    "OperatorAnsatz": ["order"],
    "OperatorSearchResult": ["nullspace_basis"],
    "ProductNormalParams": ["mu_x", "mu_y", "sigma_x", "sigma_y", "rho"],
    "SamplerConfig": ["seed", "count"],
    "SteinOperatorSpec": ["coeffs"],
    "TestFunction": ["evaluate", "label", "table=None"],
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
    "classify": ["p"],
    "closed_form_four": ["mp"],
    "cosine": ["t"],
    "determinant_exact": ["matrix"],
    "estimate_cf": ["mp", "t", "cfg"],
    "estimate_cfs": ["mp", "ts", "cfg"],
    "estimate_moment": ["mp", "k", "central", "cfg"],
    "estimate_stein_expectation": ["mp", "spec", "f", "cfg"],
    "estimate_stein_expectations": ["mp", "spec", "fns", "cfg"],
    "exponential": ["a"],
    "gaussian_bump": ["a"],
    "in_span": ["vector", "basis"],
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
    "raw_moments": ["mp", "kmax"],
    "raw_moments_equal_ratio": ["mp", "kmax"],
    "raw_moments_exact": ["mp", "kmax"],
    "sample_mean_of_products": ["mp", "cfg"],
    "sine": ["t"],
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
    "DegenerateVariance": ("NotConverged",),
    "NonPositiveArgument": ("NormProdError",),
    "NotConverged": ("NormProdError",),
    "NotSquare": ("NormProdError",),
    "OverflowUnscaled": ("NotConverged",),
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


def test_density_value_constants():
    # every density path returns a positive, converged value or raises,
    # so these are class constants rather than fields
    dv = normprod.DensityValue(0.0, 1)
    assert dv.sign == 1 and dv.converged is True
    assert dv.value == 1.0


# ------------------------------------------------ one boundary sweep --
#
# Every public function that takes a point (x or t) is called at NaN and
# +-inf, and every count or order argument at True, 2.5 and -1.  Each call
# raises a NormProdError with no warning, or returns the value its
# docstring gives there.

_GENERAL = normprod.MeanParams(normprod.validate(1, 0.5, 1, 1, 0.3), 2)
_ZERO = normprod.MeanParams(normprod.validate(0, 0, 1, 1, 0.3), 2)
_EQUAL = normprod.MeanParams(normprod.validate(1, 0.5, 1, 0.5, 0.3), 2)
#: parameters that put each case-specific function in its own case
_CASE = {"pdf_mean_zero_means": _ZERO, "mean_zero_means_derivatives": _ZERO,
         "pdf_single_zero_mean": normprod.MeanParams(
             normprod.validate(1.2, 0, 0.9, 1.1, 0)),
         "raw_moments_equal_ratio": _EQUAL,
         "central_moments_equal_ratio": _EQUAL,
         "substitution_identity_check": _EQUAL}
_ARGS = {"x": 0.7, "t": 0.7, "kmax": 4, "num_equations": 8, "k": 2,
         "count": 10, "n": 2, "central": False, "derivs": [1.0] * 5,
         "seed": 1, "which": "auto", "ansatz": normprod.OperatorAnsatz(3),
         "f": normprod.monomial(3), "cfg": normprod.SamplerConfig(1, 100),
         # built-ins (each folded) and a hand-written f (through apply)
         "fns": [normprod.monomial(3), normprod.exponential(0.5),
                 normprod.gaussian_bump(0.5),
                 normprod.TestFunction(normprod.sine(0.7).evaluate, "sin")],
         "spec": normprod.operator_a1(_GENERAL),
         "max_order": normprod.BesselOrder(4)}
_BAD = {"x": (math.nan, math.inf, -math.inf),
        "t": (math.nan, math.inf, -math.inf)}
_BAD.update(dict.fromkeys(("kmax", "order", "num_equations", "k", "count",
                           "n"), (True, 2.5, -1)))
#: arguments outside the sweep: a Bessel order is a ``BesselOrder``, which
#: ``BesselOrder.from_nu`` validates, and an estimate's count is a result
_SKIP = {("bessel_k", "order"), ("log_bessel_k", "order"),
         ("EstimateWithError", "count")}
#: the documented values at a non-finite point: the CDFs' limits, K_nu's
#: limit 0 at x = inf, and the elementwise operator's non-finite value
#: (NaN for x^3)
_DOCUMENTED = {("cdf_product", -math.inf): 0.0,
               ("cdf_product", math.inf): 1.0,
               ("cdf_product_series", -math.inf): 0.0,
               ("cdf_product_series", math.inf): 1.0,
               ("bessel_k", math.inf): 0.0,
               ("bessel_k_sequence", math.inf): 0.0,
               ("log_bessel_k", math.inf): -math.inf,
               ("log_bessel_k_sequence", math.inf): -math.inf,
               **{("apply", bad): math.nan for bad in _BAD["x"]}}


def _boundary_cases():
    for name, params in sorted(SIGNATURES.items()):
        names = [p.split("=")[0] for p in params]
        for arg in names:
            if arg in _BAD and (name, arg) not in _SKIP:
                for bad in _BAD[arg]:
                    yield pytest.param(name, names, arg, bad,
                                       id=f"{name}-{arg}={bad}")


def _call(name, names, arg, bad):
    mp = _CASE.get(name, _GENERAL)
    args = {**_ARGS, "mp": mp, "p": mp.base, "base": mp.base,
            "order": normprod.BesselOrder(2) if "bessel" in name else 3}
    args[arg] = bad
    return getattr(normprod, name)(**{a: args[a] for a in names
                                      if a in args})


@pytest.mark.parametrize("name, names, arg, bad", _boundary_cases())
def test_boundary_sweep(name, names, arg, bad):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            value = _call(name, names, arg, bad)
        except normprod.NormProdError:
            assert (name, bad) not in _DOCUMENTED
            return
    expected = _DOCUMENTED.get((name, bad))
    assert expected is not None, f"{name} returned {value!r}"
    np.testing.assert_array_equal(value, expected)


# ------------------------------------------ one parameter-scale sweep --
#
# Every public function of the parameters is called where sigma_x
# sigma_y, a square or a fourth power of the scales leaves the double
# range, at zero, fixed and equal-ratio means, at x = t = 0.7 (the CDFs
# also at 0 and +-5e-324), the Monte Carlo ones with 10 samples.  Each
# call raises a NormProdError with no warning, or returns finite values
# (every batch of a sample stream).

_SCALES = [(1e170, 1), (1, 1e170), (1e-170, 1), (1e-170, 1e-170),
           (1e170, 1e170), (1e-170, 1e170)]
_CDFS = ("cdf_product", "cdf_product_series")


def _scale_cases():
    for name, params in sorted(SIGNATURES.items()):
        names = [p.split("=")[0] for p in params]
        if not {"mp", "p"} & set(names):
            continue
        for sx, sy in _SCALES:
            for means in [(0, 0), (1, 0.5), (sx / 2, sy / 2)]:
                for x in (0.7, 0.0, 5e-324, -5e-324) if name in _CDFS \
                        else (0.7,):
                    yield pytest.param(
                        name, names, (*means, sx, sy), x,
                        id=f"{name}-{means[0]:g},{means[1]:g},{sx:g},{sy:g}"
                           f"-x={x}")


def _finite(value) -> bool:
    """Whether every number in a result is finite."""
    if isinstance(value, (tuple, list)):
        return all(map(_finite, value))
    if dataclasses.is_dataclass(value):
        return all(_finite(getattr(value, f.name))
                   for f in dataclasses.fields(value))
    if isinstance(value, (str, Fraction, enum.Enum)):
        return True
    return bool(np.isfinite(value).all())


@pytest.mark.parametrize("name, names, params, x", _scale_cases())
def test_parameter_scale_sweep(name, names, params, x):
    mp = normprod.MeanParams(normprod.validate(*params, 0.3), 2)
    args = {**_ARGS, "mp": mp, "p": mp.base, "x": x, "t": x, "order": 3,
            "ts": np.array([x]), "cfg": normprod.SamplerConfig(1, 10),
            "which": "a4" if name == "operator_special" else "auto"}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            value = getattr(normprod, name)(**{a: args[a] for a in names})
            if inspect.isgenerator(value):
                value = list(value)
        except normprod.NormProdError:
            return
    assert _finite(value), f"{name} returned {value!r}"


def test_equation_count_above_the_minimum_must_be_an_integer():
    with pytest.raises(normprod.InvalidCount):
        normprod.operator_exists(_GENERAL, 3, 9.5)
