"""Reproducible Monte Carlo for products of correlated normals.

Streams are generated batch-by-batch with an independent PCG64 generator
keyed on (seed, batch index), so parallel or out-of-order evaluation of
batches reproduces the same numbers as a sequential pass.  Estimators
merge batch statistics by count-weighted pooling; merge order only moves
results at floating roundoff level.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Optional

import numpy as np

from .params import MeanParams, positive_int
from .stein import SteinOperatorSpec, TestFunction, apply


@dataclass(frozen=True)
class SamplerConfig:
    seed: int
    count: int
    batch: int = 1 << 17

    def __post_init__(self):
        count = positive_int("count", self.count)
        object.__setattr__(self, "count", count)
        object.__setattr__(self, "batch", min(positive_int("batch", self.batch),
                                              count))


@dataclass(frozen=True)
class EstimateWithError:
    mean: float
    stderr: float
    count: int

    def z_score(self, target: float = 0.0) -> float:
        return (self.mean - target) / self.stderr if self.stderr > 0 else math.inf


def _batch_rng(cfg: SamplerConfig, index: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence((cfg.seed, index)))


def sample_mean_of_products(mp: MeanParams,
                            cfg: SamplerConfig) -> Iterator[np.ndarray]:
    """Batched stream of means of n products.

    Each (X, Y) pair is drawn as X = mu_x + sigma_x U,
    Y = mu_y + sigma_y (rho U + sqrt(1-rho^2) V) with U, V independent
    standard normals; each output is the average of n products.
    Deterministic given the seed, independent of batch scheduling.
    """
    p = mp.base
    root = math.sqrt(1.0 - p.rho ** 2)
    remaining = cfg.count
    index = 0
    while remaining > 0:
        size = min(cfg.batch, remaining)
        rng = _batch_rng(cfg, index)
        u = rng.standard_normal((size, mp.n))
        v = rng.standard_normal((size, mp.n))
        x = p.mu_x + p.sigma_x * u
        y = p.mu_y + p.sigma_y * (p.rho * u + root * v)
        yield (x * y).mean(axis=1)
        remaining -= size
        index += 1


@dataclass
class _Pool:
    """Count-weighted pooling of batch means and sums of squares."""

    count: int = 0
    mean: float = 0.0
    m2: float = 0.0

    def add(self, values: np.ndarray):
        n_b = values.size
        mean_b = float(values.mean())
        m2_b = float(((values - mean_b) ** 2).sum())
        delta = mean_b - self.mean
        total = self.count + n_b
        self.m2 += m2_b + delta * delta * self.count * n_b / total
        self.mean += delta * n_b / total
        self.count = total

    def estimate(self) -> EstimateWithError:
        var = self.m2 / (self.count - 1) if self.count > 1 else 0.0
        return EstimateWithError(self.mean, math.sqrt(var / self.count), self.count)


def estimate_stein_expectation(mp: MeanParams, spec: SteinOperatorSpec,
                               f: TestFunction,
                               cfg: SamplerConfig) -> EstimateWithError:
    """Sample mean and standard error of the operator applied to f along
    the stream; near-zero z-scores are the empirical face of the
    characterising equation."""
    pool = _Pool()
    for batch in sample_mean_of_products(mp, cfg):
        pool.add(np.asarray(apply(spec, f, batch)))
    return pool.estimate()


@dataclass(frozen=True)
class ComplexEstimate:
    re: EstimateWithError
    im: EstimateWithError

    @property
    def value(self) -> complex:
        return complex(self.re.mean, self.im.mean)


def estimate_cf(mp: MeanParams, t: float, cfg: SamplerConfig) -> ComplexEstimate:
    """Empirical characteristic function at t with per-component errors."""
    pool_re, pool_im = _Pool(), _Pool()
    for batch in sample_mean_of_products(mp, cfg):
        pool_re.add(np.cos(t * batch))
        pool_im.add(np.sin(t * batch))
    return ComplexEstimate(pool_re.estimate(), pool_im.estimate())


def estimate_moment(mp: MeanParams, k: int, central: bool,
                    cfg: SamplerConfig) -> EstimateWithError:
    """Monte Carlo k-th raw or central moment.

    Central moments use a two-pass estimator: the first pass fixes the
    location, the second accumulates centred powers (the deterministic
    stream makes the second pass see identical samples).
    """
    shift = 0.0
    if central:
        pool = _Pool()
        for batch in sample_mean_of_products(mp, cfg):
            pool.add(batch)
        shift = pool.estimate().mean
    pool = _Pool()
    for batch in sample_mean_of_products(mp, cfg):
        pool.add((batch - shift) ** k)
    return pool.estimate()
