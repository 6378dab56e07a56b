"""Reproducible Monte Carlo for products of correlated normals.

The mean of n products is drawn from its exact distribution with a
constant number of random draws per sample, whatever n is.  With
U = X/sigma_x and V = Y/sigma_y, U + V and U - V are independent normals
with variances 2(1 + rho) and 2(1 - rho), and UV is a quarter of the
difference of their squares.  A sum of n squared normals with a common
mean equals, in distribution, one shifted square plus a chi-square with
n - 1 degrees of freedom, so

    mean = sigma_x sigma_y / (4n) * [(a+ N1 + sqrt(n)(r_x + r_y))^2 + a+^2 C1
                                     - (a- N2 + sqrt(n)(r_x - r_y))^2 - a-^2 C2]

with a+- = sqrt(2(1 +- rho)), N1, N2 standard normals and C1, C2
chi-square(n - 1) (zero for n = 1).  A chi-square(n - 1) is twice a gamma
of integer shape k = (n - 1) // 2 plus one squared normal when n - 1 is
odd.  Up to k = 6 the gamma is drawn as -log of a product of k uniforms
(Devroye 1986, section IX.3), which is cheaper than numpy's
Marsaglia-Tsang gamma there; above it, as a numpy gamma (see _chi_square).

Every normal is one row of a Box & Muller (1958) pair, R cos 2w and
R sin 2w with R = sqrt(2E), E a standard exponential, and w = pi U, U
uniform: N1 and N2 are one pair, and for even n the two odd-dof normals
of C1 and C2 another: an exponential, a uniform and a tan for two
normals cost less than two of numpy's ziggurat normals.

Both the pair and the empirical characteristic function take cos and
sin of an angle 2w from one tangent of its half, v = tan(w):
cos = (1 - v^2)/(1 + v^2), sin = 2v/(1 + v^2), within 2.2e-16 of numpy's
cos and sin at any magnitude.  numpy's vectorised tan costs a tenth of
cos and sin together (on a CPU without AVX-512 it is libm's, still one
call where there were two), and |v| stays below about 2e18, so v^2
cannot overflow.

Streams are generated batch-by-batch with an independent SFC64 generator
(the fastest of numpy's bit generators for uniforms) keyed on (seed,
batch index), so parallel or out-of-order evaluation of batches
reproduces the same numbers as a sequential pass.  Batches of BATCH =
2^15 samples keep the per-batch generator set-up small; the Stein
estimator evaluates its operator on slices of 2^13 (see _APPLY_SLICE),
for a built-in test function as one Horner pass per basis row of the
operator folded into the function's derivative table (see
estimate_stein_expectations), a fraction of the cost of ``apply``.
Several test functions share one stream (estimate_stein_expectations),
each with the bits of its own estimate.  Estimators merge batch
statistics by count-weighted pooling; merge order only moves results at
floating roundoff level.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .errors import NonFiniteParameter, NotConverged, ValidationError
from .params import MeanParams, int_at_least
from .stein import SteinOperatorSpec, TestFunction, apply


#: Samples per batch; batch i is drawn from the generator keyed on (seed, i).
BATCH = 1 << 15

#: Largest rounding error of a sample, relative to its sd, that the
#: sampler accepts (see sample_mean_of_products).
_ROUNDING_FRACTION = 1e-6


@dataclass(frozen=True)
class SamplerConfig:
    seed: int
    count: int

    def __post_init__(self):
        object.__setattr__(self, "seed", int_at_least("seed", self.seed, 0,
                                                      ValidationError))
        object.__setattr__(self, "count", int_at_least("count", self.count))


@dataclass(frozen=True)
class EstimateWithError:
    mean: float
    stderr: float
    count: int

    def z_score(self, target: float = 0.0) -> float:
        """(mean - target) / stderr: inf at a zero standard error, NaN at
        a NaN one."""
        return math.inf if self.stderr == 0 else \
            (self.mean - target) / self.stderr


def _batch_rng(cfg: SamplerConfig, index: int) -> np.random.Generator:
    return np.random.Generator(
        np.random.SFC64(np.random.SeedSequence((cfg.seed, index))))


#: Largest gamma shape k drawn as -log of a product of k uniforms, whose
#: cost grows with k while numpy's Marsaglia-Tsang gamma costs about the
#: same at any k >= 2; the product measured faster up to k = 6.
_UNIFORM_GAMMA_MAX = 6


def _cos_sin_from_half(w, scratch) -> tuple[np.ndarray, np.ndarray]:
    """cos and sin of 2w, overwriting w and the (2, >= w.size) ``scratch``:
    with v = tan(w), cos = (1 - v^2)/(1 + v^2) and sin = 2v/(1 + v^2)."""
    w2, den = scratch[:, :w.size]
    np.tan(w, out=w)
    np.multiply(w, w, out=w2)
    np.add(1.0, w2, out=den)
    cos = np.subtract(1.0, w2, out=w2)
    cos /= den
    sin = np.multiply(2.0, w, out=w)
    sin /= den
    return cos, sin


def _normal_pair(rng: np.random.Generator, out, scratch) -> np.ndarray:
    """Two rows of independent standard normals into the (2, size) ``out``
    (``scratch`` alike, overwritten), by Box & Muller (1958): R cos 2w and
    R sin 2w with R = sqrt(2E), E standard exponential, and w = pi U, U
    uniform in [0, 1); cos and sin from one tangent (_cos_sin_from_half)."""
    r, w = out
    np.sqrt(np.multiply(2.0, rng.standard_exponential(out=r), out=r), out=r)
    np.multiply(math.pi, rng.random(out=w), out=w)
    cos, sin = _cos_sin_from_half(w, scratch)  # sin overwrites w
    sin *= r
    r *= cos
    return out


def _chi_square(rng: np.random.Generator, dof: int, out, scratch,
                normal) -> np.ndarray:
    """chi-square(dof) draws into ``out`` (``scratch`` alike, both
    contiguous): 2 Gamma(k), k = dof // 2, plus the square of ``normal``,
    a row of standard normals that it overwrites, when dof is odd (a
    half-integer shape is several times slower).  For k <=
    _UNIFORM_GAMMA_MAX, Gamma(k) = -log prod_i (1 - U_i) over k uniforms
    U_i in [0, 1), each factor in (0, 1]; for larger k, numpy's gamma."""
    k = dof // 2
    if k == 0:
        return np.square(normal, out=out)
    if k <= _UNIFORM_GAMMA_MAX:
        np.subtract(1.0, rng.random(out=out), out=out)
        for _ in range(k - 1):
            out *= np.subtract(1.0, rng.random(out=scratch), out=scratch)
        np.log(out, out=out)
        out *= -2.0
    else:
        np.multiply(2.0, rng.standard_gamma(k, out=out), out=out)
    if dof % 2:
        out += np.square(normal, out=normal)
    return out


def sample_mean_of_products(mp: MeanParams,
                            cfg: SamplerConfig) -> Iterator[np.ndarray]:
    """Batched stream of means of n products.

    Each mean is drawn from the difference of two noncentral chi-squares
    given in the module docstring: two normals and, for n > 1, two
    chi-square(n - 1) draws per sample.  Deterministic given the seed,
    independent of batch scheduling.

    NotConverged, before any draw, where the shifts b+- = sqrt(n)(r_x +-
    r_y) swamp the draws: plus = a+ N1 + b+ rounds by about eps |plus|,
    so plus^2 - minus^2 by about 2 eps (plus^2 + minus^2), of mean 2 eps
    (b+^2 + b-^2 + 4), while a sample's total has the variance 2n(a+^4 +
    a-^4) + 4(a+^2 b+^2 + a-^2 b-^2) (2a^4 + 4a^2 b^2 per noncentral
    square of sd a and mean b).  That rounding may reach _ROUNDING_FRACTION
    of the sd (at rho = 0, max(|b+|, |b-|) from 4.5e9 to 6.4e9).
    NotConverged too where the samples' scale sigma_x sigma_y / (4n)
    leaves the double range, before any draw, or where a sample overflows.
    """
    p = mp.base
    n = mp.n
    var_plus, var_minus = 2.0 * (1.0 + p.rho), 2.0 * (1.0 - p.rho)
    widths = np.sqrt([[var_plus], [var_minus]])  # of the two normals
    b_plus = math.sqrt(n) * (p.r_x + p.r_y)
    b_minus = math.sqrt(n) * (p.r_x - p.r_y)
    shifts = np.array([[b_plus], [b_minus]])
    sq_plus, sq_minus = b_plus * b_plus, b_minus * b_minus  # inf past 1e154
    rounding = 2 * math.ulp(1.0) * (sq_plus + sq_minus + 4)
    sd = math.sqrt(2 * n * (var_plus ** 2 + var_minus ** 2)
                   + 4 * (var_plus * sq_plus + var_minus * sq_minus))
    if not rounding / sd <= _ROUNDING_FRACTION:  # a float's inf / inf is NaN
        raise NotConverged(f"mean-to-sd ratios r_x={p.r_x}, r_y={p.r_y}: a "
                           "sample's difference of squares loses its digits")
    scale = p.sigma_x * p.sigma_y / (4 * n)
    if not sys.float_info.min <= scale < math.inf:
        raise NotConverged(f"the samples' scale sigma_x sigma_y / (4n) = "
                           f"{scale:.3g} leaves the double range")
    # N1 and N2 (a pair, then the total) and the pair's scratch, where the
    # chi-squares go; for even n, one more row holds the odd-dof pair
    rows = 5 if n % 2 == 0 else 4
    flat = np.empty(rows * min(BATCH, cfg.count))
    for index, start in enumerate(range(0, cfg.count, BATCH)):
        size = min(BATCH, cfg.count - start)
        rng = _batch_rng(cfg, index)
        draws = flat[:rows * size].reshape(rows, size)  # contiguous, for out=
        normals = _normal_pair(rng, draws[:2], draws[2:4])
        normals *= widths
        normals += shifts
        normals *= normals
        total = np.subtract(*normals, out=normals[0])
        if n > 1:
            odd = _normal_pair(rng, draws[1:3], draws[3:5]) if n % 2 == 0 \
                else (None, None)
            for var, normal in zip((var_plus, -var_minus), odd):
                chi = _chi_square(rng, n - 1, *draws[-2:], normal)
                total += np.multiply(var, chi, out=chi)
        try:  # not held across the yield, which runs the caller's code
            with np.errstate(over="raise"):
                batch = scale * total
        except FloatingPointError:
            raise NotConverged("a sample of the mean overflows") from None
        yield batch


def _power(x: np.ndarray, k: int) -> np.ndarray:
    """x**k, k >= 1, by repeated multiplication (libm pow is far slower)."""
    out = x
    for _ in range(k - 1):
        out = out * x
    return out


@dataclass
class _Pool:
    """Count-weighted pooling of batch means and sums of squares."""

    count: int = 0
    mean: float = 0.0
    m2: float = 0.0

    def add(self, values: np.ndarray):
        n_b = values.size
        mean_b = float(values.mean())
        values -= mean_b  # in place: no caller reads a batch it has pooled
        m2_b = float(np.dot(values, values))
        delta = mean_b - self.mean
        total = self.count + n_b
        self.m2 += m2_b + delta * delta * self.count * n_b / total
        self.mean += delta * n_b / total
        self.count = total

    def estimate(self) -> EstimateWithError:
        return _estimate(self.mean, self.m2, self.count)


def _estimate(mean: float, m2: float, count: int) -> EstimateWithError:
    """The estimate of a sample mean and its sum of squared deviations m2;
    NotConverged where either is not finite.  An estimator's batches run
    with numpy's overflow and invalid warnings off, since an inf or NaN
    they make stays in the mean or m2 and is refused here."""
    stderr = math.sqrt(m2 / (count - 1) / count)
    if not (math.isfinite(mean) and math.isfinite(stderr)):
        raise NotConverged(f"a Monte Carlo estimate leaves the double range: "
                           f"mean {mean}, stderr {stderr}")
    return EstimateWithError(mean, stderr, count)


#: Samples per evaluation of the Stein operator.  ``apply`` on a
#: built-in's derivatives holds 10 to 12 arrays of this length at once,
#: a fold (DerivativeTable.fold) at most four; at 2^13 doubles
#: (64 KiB) each stays under glibc malloc's 128 KiB mmap threshold, so
#: freed arrays are reused rather than unmapped and faulted in again
#: (whole 2^15 batches cost about 12000 minor page faults per 10^6
#: samples, a fifth of an n = 1 estimate through ``apply``).
_APPLY_SLICE = 1 << 13


def estimate_stein_expectation(mp: MeanParams, spec: SteinOperatorSpec,
                               f: TestFunction,
                               cfg: SamplerConfig) -> EstimateWithError:
    """Sample mean and standard error of the operator applied to f along
    the stream; near-zero z-scores are the empirical face of the
    characterising equation.  The one-function case of
    estimate_stein_expectations."""
    return estimate_stein_expectations(mp, spec, [f], cfg)[0]


def estimate_stein_expectations(mp: MeanParams, spec: SteinOperatorSpec,
                                fns: Sequence[TestFunction],
                                cfg: SamplerConfig) -> list[EstimateWithError]:
    """estimate_stein_expectation of each f in fns, from one stream: each
    batch is drawn once and every f evaluated on its slices, so each
    estimate has the bits of its own call.  NotConverged where any of
    them is not finite.

    The operator is folded once into a built-in's derivative table
    (DerivativeTable.fold), so that a slice costs one Horner pass per
    basis row.  A batch whose largest |x| the fold does not cover
    (FoldedOperator.covers), and every slice of a hand-written f, go
    through ``apply``, so a value is finite exactly where ``apply``'s is.
    """
    int_at_least("count", cfg.count, 2)  # for a standard error
    folds = [None if f.table is None else f.table.fold(spec) for f in fns]
    pools = [_Pool() for _ in fns]
    for batch in sample_mean_of_products(mp, cfg):
        reach = max(1.0, np.maximum.reduce(batch), -np.minimum.reduce(batch))
        covered = [fold is not None and fold.covers(reach) for fold in folds]
        with np.errstate(over="ignore", invalid="ignore"):  # see _estimate
            for start in range(0, batch.size, _APPLY_SLICE):
                x = batch[start:start + _APPLY_SLICE]
                for f, fold, use_fold, pool in zip(fns, folds, covered, pools):
                    pool.add(fold(x) if use_fold
                             else np.asarray(apply(spec, f, x)))
    return [pool.estimate() for pool in pools]


@dataclass(frozen=True)
class ComplexEstimate:
    re: EstimateWithError
    im: EstimateWithError

    @property
    def value(self) -> complex:
        return complex(self.re.mean, self.im.mean)


def estimate_cf(mp: MeanParams, t: float, cfg: SamplerConfig) -> ComplexEstimate:
    """Empirical characteristic function at t with per-component errors.

    cos and sin of t z come from w = tan(t z / 2) (module docstring).
    NonFiniteParameter at a non-finite t; NotConverged where t z / 2
    overflows for some sample z.
    """
    t = float(t)
    if not math.isfinite(t):
        raise NonFiniteParameter(f"t={t}; must be finite")
    int_at_least("count", cfg.count, 2)  # for a standard error
    half_t = 0.5 * t
    pool_re, pool_im = _Pool(), _Pool()
    scratch = np.empty((2, min(BATCH, cfg.count)))  # w^2 and 1 + w^2
    for batch in sample_mean_of_products(mp, cfg):
        try:
            with np.errstate(over="raise"):
                w = np.multiply(half_t, batch, out=batch)
        except FloatingPointError:
            raise NotConverged(f"t={t}: t z / 2 overflows for a sample z "
                               "of the mean") from None
        cos, sin = _cos_sin_from_half(w, scratch)
        pool_re.add(cos)
        pool_im.add(sin)
    return ComplexEstimate(pool_re.estimate(), pool_im.estimate())


def estimate_moment(mp: MeanParams, k: int, central: bool,
                    cfg: SamplerConfig) -> EstimateWithError:
    """Monte Carlo k-th raw or central moment.

    Central moments take one pass: power sums of (x - c) up to order 2k,
    with c the first batch's mean, are expanded about the sample mean at
    the end, which gives the same mean and standard error as centring
    each sample on the sample mean.
    """
    k = int_at_least("k", k)
    int_at_least("count", cfg.count, 2)  # for a standard error
    if not central:
        pool = _Pool()
        for batch in sample_mean_of_products(mp, cfg):
            with np.errstate(over="ignore", invalid="ignore"):  # _estimate
                pool.add(_power(batch, k))
        return pool.estimate()
    sums = [0.0] * (2 * k + 1)
    shift = None
    for batch in sample_mean_of_products(mp, cfg):
        with np.errstate(over="ignore", invalid="ignore"):  # see _estimate
            if shift is None:
                shift = float(batch.mean())
            d = batch - shift
            sums[0] += batch.size
            for j in range(1, 2 * k + 1):
                term = d if j == 1 else term * d
                sums[j] += float(term.sum())
    count = int(sums[0])
    # |delta|^(2k) <= sums[2k] / count, so while that sum is finite no
    # power of delta below overflows (where Python's ** would raise)
    if not math.isfinite(sums[-1]):
        raise NotConverged(f"the samples' sum of powers {2 * k} leaves "
                           "the double range")
    # sums of (x - mean)^j with mean = shift + delta, by the binomial theorem
    delta = sums[1] / count

    def centred(j):
        return sum(math.comb(j, i) * sums[i] * (-delta) ** (j - i)
                   for i in range(j + 1))

    mean = centred(k) / count
    return _estimate(mean, max(centred(2 * k) - count * mean * mean, 0.0),
                     count)
