"""Exception hierarchy shared across the package."""


class NormProdError(Exception):
    """Base class for all errors raised by this package."""


class ValidationError(NormProdError):
    """Invalid distribution parameters."""


class NonPositiveSigma(ValidationError):
    """A standard deviation was zero or negative."""


class CorrelationOutOfRange(ValidationError):
    """|rho| >= 1; the correlation must lie strictly inside (-1, 1)."""


class NonFiniteParameter(ValidationError, ValueError):
    """A mean, standard deviation or correlation was NaN or infinite."""


class InvalidCount(ValidationError, ValueError):
    """A copy, sample or equation count was not an integer >= 1 or kmax
    one >= 0 (a bool is not), a standard error was asked of fewer than 2
    samples, or an operator search of fewer equations than unknowns."""


class InvalidOrder(ValidationError, ValueError):
    """A Bessel order was not an integer or half-integer, an ansatz order
    not an integer >= 1, or a Stein operator's table not of order 2, 3 or
    4 (3, 4 or 5 coefficient pairs)."""


class InvalidGrid(ValidationError, ValueError):
    """A grid was not lo:hi:count with numbers lo and hi and an integer
    count >= 1."""


class InvalidTestFunction(ValidationError, ValueError):
    """A built-in test function's parameter was out of range, not finite,
    or large enough that its derivatives overflow."""


class CaseMismatch(NormProdError):
    """Operation invoked outside its supported parameter case."""


class SingularPoint(NormProdError):
    """Density evaluation requested at a point where it diverges."""


class NotConverged(NormProdError):
    """Series or quadrature failed to converge within its budget, or a
    result of valid parameters lies outside the double range."""


class NonPositiveArgument(NormProdError):
    """Bessel argument must be positive."""


class OverflowUnscaled(NotConverged):
    """Unscaled Bessel value exceeds the representable floating range."""


class DegenerateVariance(NotConverged):
    """The variance underflows to zero; skewness/kurtosis undefined."""


class ParameterNotRational(NormProdError):
    """Exact mode requires parameters convertible to rationals."""


class NotSquare(NormProdError):
    """Determinant requested for a non-square matrix."""
