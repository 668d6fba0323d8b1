"""Reference interaction models: linear Kelvin-Voigt, Takagi-Sugeno fuzzy
(constant consequents), and type-1 polynomial fuzzy."""
from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .core import Dataset, ShapeError, TrainingError, _check_finite
from .identify import TrainConfig, train


@dataclass(frozen=True)
class LKVModel:
    """Spring-damper contact model: y = K x + C v."""

    K: np.ndarray  # (m, n)
    C: np.ndarray  # (m, n)

    def __post_init__(self):
        K = np.atleast_2d(np.asarray(self.K, dtype=float))
        C = np.atleast_2d(np.asarray(self.C, dtype=float))
        if K.shape != C.shape:
            raise ShapeError("K and C must share shape")
        _check_finite(K, "K")
        _check_finite(C, "C")
        K.setflags(write=False)
        C.setflags(write=False)
        object.__setattr__(self, "K", K)
        object.__setattr__(self, "C", C)

    @property
    def n(self) -> int:
        return self.K.shape[1]

    @property
    def m(self) -> int:
        return self.K.shape[0]

    def predict_batch(self, X, V, VN=None):
        X = np.atleast_2d(np.asarray(X, dtype=float))
        V = np.atleast_2d(np.asarray(V, dtype=float))
        if X.shape[1] != self.n or V.shape != X.shape:
            raise ShapeError("inputs must have shape (N, n)")
        Y = X @ self.K.T + V @ self.C.T
        return Y, np.zeros(X.shape[0], dtype=bool)


def fit_lkv(dataset: Dataset) -> LKVModel:
    """Global unweighted least-squares fit of y = K x + C v."""
    n = dataset.n
    if dataset.n_samples < 2 * n:
        raise TrainingError(f"need at least {2 * n} samples to fit LKV")
    A = np.hstack([dataset.x, dataset.v])
    theta, *_ = np.linalg.lstsq(A, dataset.y, rcond=None)
    return LKVModel(theta[:n].T, theta[n:].T)


def fit_tsfmb(dataset: Dataset, config: TrainConfig, clusters=None):
    """Type-1 T-S model: constant consequents, collapsed intervals."""
    return train(dataset, replace(config, degree=0, delta=0.0), clusters)


def fit_pfmb(dataset: Dataset, config: TrainConfig, clusters=None):
    """Type-1 polynomial fuzzy model: same consequent class, delta = 0."""
    return train(dataset, replace(config, degree=max(config.degree, 1),
                                  delta=0.0), clusters)
