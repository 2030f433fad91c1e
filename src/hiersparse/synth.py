"""Synthetic benchmark generators with seeded Gaussian noise, and the benchmark problems.

Function constants follow the standard optimization-test-function forms:
schwefel1d on [-500, 500] and bohachevsky2d on [-100, 100]^2.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .kernel import Dataset

FAMILY_DIMS = {"schwefel1d": 1, "bohachevsky2d": 2}

DEFAULT_RANGES = {
    "schwefel1d": ((-500.0, 500.0),),
    "bohachevsky2d": ((-100.0, 100.0), (-100.0, 100.0)),
}

PROBLEMS = {  # family -> (n, seed of the data and of the fit, bounds)
    "schwefel1d": (600, 31, ((-500.0, 500.0),)),
    # not [-100, 100]^2: the bowl dwarfs the ripples there, and at 5% noise scale 0 wins
    "bohachevsky2d": (800, 41, ((-1.0, 1.0),) * 2),
}


@dataclass(frozen=True)
class SynthSpec:
    """Benchmark family, sample size, noise level, per-dimension bounds, seed."""

    family: str
    n: int
    noise_sigma: float
    bounds: tuple[tuple[float, float], ...] | None = None
    seed: int = 0

    def __post_init__(self):
        if self.family not in FAMILY_DIMS:
            raise ValueError(
                f"unknown family {self.family!r}; choose from {sorted(FAMILY_DIMS)}"
            )
        if self.n < 2:
            raise ValueError("n must be at least 2")
        if not 0 <= self.noise_sigma < np.inf:
            raise ValueError("noise_sigma must be nonnegative and finite")
        bounds = self.bounds if self.bounds is not None else DEFAULT_RANGES[self.family]
        bounds = tuple((float(lo), float(hi)) for lo, hi in bounds)
        if len(bounds) != FAMILY_DIMS[self.family]:
            raise ValueError("one (lo, hi) pair per dimension required")
        for lo, hi in bounds:
            if not (np.isfinite(lo) and np.isfinite(hi) and lo < hi):
                raise ValueError(f"invalid bounds ({lo}, {hi})")
        object.__setattr__(self, "bounds", bounds)


def eval_true(family: str, x):
    """Noise-free benchmark value(s) at x.

    Accepts a single point (scalar or d-vector) or an m x d matrix of points;
    for the 1-d family a flat length-m array means m points.  Returns a float
    for a single point, an array otherwise.
    """
    if family not in FAMILY_DIMS:
        raise ValueError(f"unknown family {family!r}")
    d = FAMILY_DIMS[family]
    X = np.asarray(x, dtype=float)
    single = X.ndim == 0 or (X.ndim == 1 and d > 1)
    if X.ndim == 0:
        X = X.reshape(1, 1)
    elif X.ndim == 1:
        X = X.reshape(1, -1) if d > 1 else X.reshape(-1, 1)
    if X.shape[1] != d:
        raise ValueError(f"{family} expects {d}-dimensional inputs")
    if family == "schwefel1d":
        v = X[:, 0]
        out = 418.9829 - v * np.sin(np.sqrt(np.abs(v)))
    else:
        u, v = X[:, 0], X[:, 1]
        out = (
            u**2
            + 2.0 * v**2
            - 0.3 * np.cos(3.0 * np.pi * u)
            - 0.4 * np.cos(4.0 * np.pi * v)
            + 0.7
        )
    return float(out[0]) if single else out


def sample(spec: SynthSpec) -> Dataset:
    """Uniform coordinates in the bounds plus N(0, sigma^2) noise on the values."""
    rng = np.random.default_rng(spec.seed)
    cols = [rng.uniform(lo, hi, size=spec.n) for lo, hi in spec.bounds]
    X = np.column_stack(cols)
    f = np.asarray(eval_true(spec.family, X), dtype=float).ravel()
    noise = rng.normal(0.0, spec.noise_sigma, size=spec.n) if spec.noise_sigma > 0 else 0.0
    return Dataset(X=X, Y=f + noise)


def mesh(axes) -> np.ndarray:
    """Points of the tensor grid on ``axes``, one row each, last axis fastest."""
    return np.column_stack([m.ravel() for m in np.meshgrid(*axes, indexing="ij")])


def noise_sigma(family: str, bounds, frac: float = 0.05) -> float:
    """``frac`` times the range of ``family`` on 2001 points for d = 1, else 101 per axis."""
    count = 2001 if len(bounds) == 1 else 101
    f = eval_true(family, mesh([np.linspace(lo, hi, count) for lo, hi in bounds]))
    return frac * float(f.max() - f.min())
