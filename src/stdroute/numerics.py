"""Small numerical helpers: log-sum-exp, finite differences, random generators, integer checks."""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from .errors import ValidationError


def logsumexp(values: Sequence[float]) -> float:
    """log(sum(exp(v))) computed with a max shift so tiny scale parameters do not overflow."""
    arr = np.asarray(values, dtype=float)
    m = arr.max()
    if not np.isfinite(m):
        return float(m)
    return float(m + np.log(np.exp(arr - m).sum()))


def softmax(values: Sequence[float]) -> np.ndarray:
    arr = np.asarray(values, dtype=float)
    shifted = np.exp(arr - arr.max())
    return shifted / shifted.sum()


def log_softmax(values: Sequence[float]) -> np.ndarray:
    arr = np.asarray(values, dtype=float)
    return arr - logsumexp(arr)


def finite_difference_gradient(
    f: Callable[[np.ndarray], float], x: np.ndarray, rel_step: float = 1e-6
) -> np.ndarray:
    """Central-difference gradient with a step relative to each coordinate's magnitude."""
    x = np.asarray(x, dtype=float)
    grad = np.empty_like(x)
    for j in range(x.size):
        h = rel_step * max(1.0, abs(x[j]))
        up = x.copy()
        down = x.copy()
        up[j] += h
        down[j] -= h
        grad[j] = (f(up) - f(down)) / (2.0 * h)
    return grad


def as_rng(seed) -> np.random.Generator:
    """A generator from a seed, or the generator itself."""
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def is_integer(value) -> bool:
    """Whether a value is an integer; ``bool`` is an ``int`` subclass but does not count."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def check_sample_size(n) -> None:
    """Reject a number of samples that is not a positive integer."""
    if not is_integer(n) or n < 1:
        raise ValidationError(f"the number of samples must be a positive integer, got {n!r}")
