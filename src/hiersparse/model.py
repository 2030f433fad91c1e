"""The fitted model's payload, kept apart from the fit so that serving it needs numpy only.

``hierarchy.fit`` builds these records; ``dataio`` saves and loads them, and
``predict`` serves a mean from ``SparseModel`` alone.  A process that only loads a
model and predicts its mean never imports the fitting modules, nor scipy.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass
class ScaleRecord:
    """Per-scale fit summary; ``points`` are the selected coordinates so the
    scale-by-scale selection can be replotted from a saved model alone."""

    s: int
    epsilon_s: float
    l_s: int
    comp_s: float
    cost: float
    lam: np.ndarray | None
    q: tuple[int, ...] | None
    seed: int
    points: np.ndarray


@dataclass
class SparseModel:
    """Convergence-scale payload: sparse representation (X_t, Y_t) plus sparse
    model (epsilon_t, C_t, Lambda_t, Q_t)."""

    t: int
    epsilon_t: float
    X_t: np.ndarray
    Y_t: np.ndarray
    C_t: np.ndarray
    Lambda_t: np.ndarray
    Q_t: tuple[int, ...]
    n_train: int
    history: list[ScaleRecord] = field(default_factory=list)
