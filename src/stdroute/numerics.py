"""Small numerical helpers: softmax, segment sums, random generators, integer checks."""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .errors import ValidationError


def softmax(values: Sequence[float]) -> np.ndarray:
    arr = np.asarray(values, dtype=float)
    shifted = np.exp(arr - arr.max())
    return shifted / shifted.sum()


def segment_sums(owner: np.ndarray, weights: np.ndarray, n: int) -> np.ndarray:
    """Sums of ``weights`` over their first axis into ``n`` bins by ``owner``.

    ``np.bincount`` adds in input order, as a plain loop would. Trailing
    batch axes are one bincount over the flat bin ``owner * size + b``,
    so every batch column is summed exactly as it would be alone.
    """
    if weights.ndim == 1:
        return np.bincount(owner, weights, n)
    batch = weights.shape[1:]
    size = math.prod(batch)
    flat = (owner[:, None] * size + np.arange(size)).ravel()
    return np.bincount(flat, weights.ravel(), n * size).reshape(n, *batch)


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
