"""Concave, monotone utility functions of the rate vector.

Every utility exposes a value, a subgradient, and a norm bound valid on the
nonnegative orthant box the solver operates in.
"""

from __future__ import annotations

from abc import ABC, abstractmethod

import numpy as np


def _checked_weights(weights) -> np.ndarray:
    w = np.array(weights, dtype=float)
    if w.ndim != 1 or len(w) < 1:
        raise ValueError("weights must be a nonempty vector")
    if not ((w >= 0) & (w < np.inf)).all():
        raise ValueError("weights must be finite and nonnegative")
    w.setflags(write=False)
    return w


def _checked_rates(rates, weights: np.ndarray) -> np.ndarray:
    r = np.asarray(rates, dtype=float)
    if r.shape != weights.shape:
        raise ValueError(f"expected {len(weights)} rates, got shape {r.shape}")
    if not ((r >= 0) & (r < np.inf)).all():
        raise ValueError("rates must be finite and nonnegative")
    return r


class Utility(ABC):
    """Concave, coordinatewise non-decreasing function with bounded subgradients."""

    @abstractmethod
    def value(self, rates) -> float: ...

    @abstractmethod
    def subgradient(self, rates) -> np.ndarray: ...

    @abstractmethod
    def bound(self) -> float:
        """An upper bound on the subgradient norm over the domain."""


class LinearUtility(Utility):
    """Weighted sum of rates, sum_i w_i R_i with w_i >= 0."""

    def __init__(self, weights):
        self.weights = _checked_weights(weights)

    def value(self, rates) -> float:
        return float(self.weights @ _checked_rates(rates, self.weights))

    def subgradient(self, rates) -> np.ndarray:
        _checked_rates(rates, self.weights)
        return self.weights.copy()

    def bound(self) -> float:
        return float(np.linalg.norm(self.weights))


class WeightedLogUtility(Utility):
    """sum_i w_i ln(epsilon + R_i), a proportional-fairness style objective.

    The offset epsilon > 0 keeps subgradients bounded on the closed orthant
    (the pure log has an unbounded derivative at zero rate).
    """

    def __init__(self, weights, epsilon: float = 1e-2):
        if not 0 < epsilon < np.inf:
            raise ValueError(f"epsilon must be finite and positive, got {epsilon}")
        self.weights = _checked_weights(weights)
        self.epsilon = float(epsilon)

    def value(self, rates) -> float:
        r = _checked_rates(rates, self.weights)
        return float(self.weights @ np.log(self.epsilon + r))

    def subgradient(self, rates) -> np.ndarray:
        r = _checked_rates(rates, self.weights)
        return self.weights / (self.epsilon + r)

    def bound(self) -> float:
        return float(np.linalg.norm(self.weights)) / self.epsilon
