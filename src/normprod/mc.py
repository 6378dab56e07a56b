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
Marsaglia-Tsang gamma there; above it, as a numpy gamma (see
_add_chi_square).  The sampler draws uniforms only below the gamma
cutoff (n <= 14): an exponential E is -log(1 - U), cheaper than numpy's
ziggurat.

N1 and N2 are a Box & Muller (1958) pair, R cos 2w and R sin 2w with
R = sqrt(2E) and w = pi U, its cos and sin taken from one tangent of the
half angle, v = tan(w): cos 2w = (1 - v^2)/(1 + v^2) and sin 2w =
2v/(1 + v^2) (stein._cos_sin_from_half).  The widths, the shifts and
sqrt(sigma_x sigma_y / (4n)) are folded into per-call constants, so the
two shifted rows come out directly (see _normal_pair):

    sample = (plus - minus)(plus + minus) + c C1 - d C2,
    plus  = k (1 - v^2) + sqrt(scale) b+,
    minus = (2 a- / a+) k v + sqrt(scale) b-,
    k = a+ sqrt(2 E scale) / (1 + v^2),

with scale = sigma_x sigma_y / (4n), c, d = scale a+-^2 and b+- =
sqrt(n)(r_x +- r_y); for rho < 0 the rows' roles swap, so that the wider
normal takes the cosine row.  For even n the odd-dof normals N3 and N4
of C1 and C2 enter as c N3^2 - d N4^2, one draw of 2E'((c + d)/(1 + v'^2)
- d): a pair's squares are 2E' cos^2 and 2E' sin^2 (_squares_difference).

The empirical characteristic function takes its cos and sin from the
half-angle tangent too.

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
from .stein import (SteinOperatorSpec, TestFunction, _cos_sin_from_half,
                    apply)


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


def _normal_pair(rng: np.random.Generator, radius2: float, ratio: float,
                 shifts: tuple[float, float], out, scratch) -> np.ndarray:
    """Two rows of shifted normals into the (2, size) ``out`` (``scratch``
    alike, overwritten), by Box & Muller (1958) with the widths folded
    in: k (1 - v^2) + shifts[0] and ratio k v + shifts[1], where v =
    tan(pi U), k = sqrt(radius2 E) / (1 + v^2) and E = -log(1 - U') is
    standard exponential, U' and U from one fill of uniforms in [0, 1)
    (1 - U' is exact, in (0, 1]).  These are a R cos 2w and (ratio a / 2)
    R sin 2w, shifted, with R = sqrt(2E), w = pi U and a = sqrt(radius2 /
    2); at radius2 = 2 and ratio = 2, unshifted, two independent standard
    normals."""
    k, v = rng.random(out=out)
    v2, den = scratch
    np.subtract(1.0, k, out=k)
    np.log(k, out=k)
    k *= -radius2
    np.sqrt(k, out=k)
    np.multiply(math.pi, v, out=v)
    np.tan(v, out=v)
    np.multiply(v, v, out=v2)
    np.add(1.0, v2, out=den)
    k /= den
    v *= k
    v *= ratio
    v += shifts[1]
    k *= np.subtract(1.0, v2, out=v2)
    k += shifts[0]
    return out


def _squares_difference(rng: np.random.Generator, c: float, d: float,
                        out) -> np.ndarray:
    """c N^2 - d N'^2 for independent standard normals N and N', into
    out[0] (``out`` (2, size), contiguous, overwritten).  The squares of a
    Box-Muller pair are 2E cos^2 w and 2E sin^2 w, so this is one draw of
    2E ((c + d) / (1 + v^2) - d), with v = tan w, w = pi U and E = -log(1
    - U'), U' and U from one fill."""
    e, v = rng.random(out=out)
    np.multiply(math.pi, v, out=v)
    np.tan(v, out=v)
    np.multiply(v, v, out=v)
    v += 1.0
    np.divide(-2.0 * (c + d), v, out=v)
    v += 2.0 * d
    np.subtract(1.0, e, out=e)
    np.log(e, out=e)
    e *= v
    return e


def _add_chi_square(rng: np.random.Generator, k: int, weight: float, total,
                    scratch) -> None:
    """total += weight chi-square(2k), chi-square(2k) being 2 Gamma(k)
    (nothing at k = 0), with ``scratch`` (2, total.size), contiguous, whose
    rows it overwrites.  For k <= _UNIFORM_GAMMA_MAX, Gamma(k) = -log
    prod_i (1 - U_i) over k uniforms U_i in [0, 1), each factor in (0, 1];
    for larger k, numpy's gamma."""
    if k == 0:
        return
    draw, factor = scratch
    if k <= _UNIFORM_GAMMA_MAX:
        np.subtract(1.0, rng.random(out=draw), out=draw)
        for _ in range(k - 1):
            draw *= np.subtract(1.0, rng.random(out=factor), out=factor)
        np.log(draw, out=draw)
        draw *= -2.0 * weight
    else:
        np.multiply(2.0 * weight, rng.standard_gamma(k, out=draw), out=draw)
    total += draw


def sample_mean_of_products(mp: MeanParams,
                            cfg: SamplerConfig) -> Iterator[np.ndarray]:
    """Batched stream of means of n products, each batch a new array.

    Each mean is drawn from the difference of two noncentral chi-squares
    given in the module docstring, with the constants folded into the
    draws.  Deterministic given the seed, independent of batch
    scheduling.

    NotConverged, before any draw, where the shifts b+- = sqrt(n)(r_x +-
    r_y) swamp the draws: plus = a+ N1 + b+ rounds by about eps |plus|,
    so plus^2 - minus^2 by about 2 eps (plus^2 + minus^2), of mean 2 eps
    (b+^2 + b-^2 + 4), while a sample's total has the variance 2n(a+^4 +
    a-^4) + 4(a+^2 b+^2 + a-^2 b-^2) (2a^4 + 4a^2 b^2 per noncentral
    square of sd a and mean b).  That rounding may reach _ROUNDING_FRACTION
    of the sd (at rho = 0, max(|b+|, |b-|) from 4.5e9 to 6.4e9).
    NotConverged too where the samples' scale sigma_x sigma_y / (4n)
    leaves the double range, before any draw, or where a sample, or a
    constant folded into the draws, overflows.
    """
    p = mp.base
    n = mp.n
    var_plus, var_minus = 2.0 * (1.0 + p.rho), 2.0 * (1.0 - p.rho)
    b_plus = math.sqrt(n) * (p.r_x + p.r_y)
    b_minus = math.sqrt(n) * (p.r_x - p.r_y)
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
    # scale times the module docstring's bracket: the rows sqrt(scale)(a+-
    # N + b+-), whose squares' difference is a sample with c C1 - d C2
    # added.  The wider normal takes the cosine row of the pair, so that
    # its constant 2 scale a^2 >= 4 scale stays normal and ratio <= 2.
    c, d = scale * var_plus, scale * var_minus
    root = math.sqrt(scale)
    plus, minus = (var_plus, b_plus * root), (var_minus, b_minus * root)
    flip = p.rho < 0
    (cvar, cshift), (svar, sshift) = (minus, plus) if flip else (plus, minus)
    radius2, ratio = 2.0 * scale * cvar, 2.0 * math.sqrt(svar / cvar)
    # the largest multiplier in the draws is 2(c + d); a float product
    # that overflows to inf raises no FloatingPointError
    if not all(map(math.isfinite, (2.0 * (c + d), cshift, sshift))):
        raise NotConverged("a sample of the mean overflows")
    k = (n - 1) // 2  # the shape of each chi-square(n - 1)'s gamma
    work = np.empty(4 * min(BATCH, cfg.count))
    for index, start in enumerate(range(0, cfg.count, BATCH)):
        size = min(BATCH, cfg.count - start)
        rng = _batch_rng(cfg, index)
        rows = work[:4 * size].reshape(4, size)  # contiguous, for out=
        try:  # not held across the yield, which runs the caller's code
            with np.errstate(over="raise"):
                first, second = _normal_pair(rng, radius2, ratio,
                                             (cshift, sshift), rows[:2],
                                             rows[2:])
                both = np.add(first, second, out=rows[2])
                if flip:
                    first, second = second, first
                # plus^2 - minus^2, finite wherever the sample is
                batch = np.subtract(first, second, out=first) * both
                if n % 2 == 0:  # the two chi-squares' odd-dof normals
                    batch += _squares_difference(rng, c, d, rows[:2])
                _add_chi_square(rng, k, c, batch, rows[:2])
                _add_chi_square(rng, k, -d, batch, rows[:2])
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
    """Empirical characteristic function at t with per-component errors:
    the one-t case of estimate_cfs."""
    return estimate_cfs(mp, [t], cfg)[0]


def estimate_cfs(mp: MeanParams, ts: Sequence[float],
                 cfg: SamplerConfig) -> list[ComplexEstimate]:
    """estimate_cf at each t in ts, from one stream: each batch is drawn
    once and every t evaluated on it, so each estimate has the bits of
    its own call.

    cos and sin of t z come from w = tan(t z / 2) (module docstring).
    NonFiniteParameter at a non-finite t; NotConverged where t z / 2
    overflows for some t and some sample z.
    """
    ts = [float(t) for t in ts]
    for t in ts:
        if not math.isfinite(t):
            raise NonFiniteParameter(f"t={t}; must be finite")
    int_at_least("count", cfg.count, 2)  # for a standard error
    pools = [(_Pool(), _Pool()) for _ in ts]
    # t z / 2, then w^2 and 1 + w^2; the batch itself is left as it is
    scratch = np.empty((3, min(BATCH, cfg.count)))
    for batch in sample_mean_of_products(mp, cfg):
        for t, (pool_re, pool_im) in zip(ts, pools):
            try:
                with np.errstate(over="raise"):
                    w = np.multiply(0.5 * t, batch, out=scratch[0, :batch.size])
            except FloatingPointError:
                raise NotConverged(f"t={t}: t z / 2 overflows for a sample z "
                                   "of the mean") from None
            cos, sin = _cos_sin_from_half(w, scratch[1:])
            pool_re.add(cos)
            pool_im.add(sin)
    return [ComplexEstimate(re.estimate(), im.estimate()) for re, im in pools]


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
