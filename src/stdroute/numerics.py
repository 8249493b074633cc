"""Small numerical helpers: softmax, random generators, integer checks."""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .errors import ValidationError


def softmax(values: Sequence[float]) -> np.ndarray:
    arr = np.asarray(values, dtype=float)
    shifted = np.exp(arr - arr.max())
    return shifted / shifted.sum()


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
