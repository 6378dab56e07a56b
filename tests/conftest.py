import os
from pathlib import Path

import numpy as np
import pytest

from normprod import MeanParams, validate

# child interpreters (the CLI and import checks) import this checkout too
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [
    str(Path(__file__).resolve().parents[1] / "src"),
    os.environ.get("PYTHONPATH")]))


def random_mean_params(rng: np.random.Generator, *, n_choices=(1, 2, 5),
                       unit_sigma=False) -> MeanParams:
    """A random valid parameter set for property tests."""
    sigma = (1.0, 1.0) if unit_sigma else tuple(rng.uniform(0.5, 2.0, 2))
    p = validate(rng.uniform(-3, 3), rng.uniform(-3, 3),
                 sigma[0], sigma[1], rng.uniform(-0.9, 0.9))
    return MeanParams(p, int(rng.choice(n_choices)))


def random_equal_ratio_params(rng: np.random.Generator,
                              n_choices=(1, 2, 5)) -> MeanParams:
    """Random parameters with exactly equal mean-to-sd ratios."""
    r = rng.uniform(-2, 2)
    sx, sy = rng.uniform(0.5, 2.0, 2)
    p = validate(r * sx, r * sy, sx, sy, rng.uniform(-0.9, 0.9))
    return MeanParams(p, int(rng.choice(n_choices)))


# Ten-point parameter sweep for unit-mass checks, covering rho in
# {-0.9, 0, 0.9}, means in {0, +-1, +-3} and sigma in {0.5, 1, 2}.
NORMALIZATION_SWEEP = (
    (0, 0, 1, 1, 0.0),
    (0, 0, 0.5, 2, 0.9),
    (0, 0, 2, 0.5, -0.9),
    (1, 0, 1, 1, 0.0),
    (-1, 0, 0.5, 1, 0.0),
    (3, 0, 1, 2, 0.0),
    (-3, 0, 2, 1, 0.0),
    (1, 1, 1, 1, 0.0),
    (1, 1, 1, 1, 0.9),
    (-1, -1, 1, 1, 0.9),
)


@pytest.fixture
def rng():
    return np.random.default_rng(20260823)
