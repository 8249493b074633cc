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


def segment_bins(owner: np.ndarray, batch: tuple[int, ...]) -> np.ndarray:
    """The bins of :func:`segment_sums` for weights of shape ``(len(owner), *batch)``.

    ``owner`` itself without batch axes; otherwise ``owner * size + b``
    for every batch column b, shape ``(len(owner), size)``. Row k holds
    the bins of weight row k, so a pass over many segments of one owner
    array builds the table once and slices its rows.
    """
    if not batch:
        return owner
    size = math.prod(batch)
    return owner[:, None] * size + np.arange(size)


def segment_sums(bins: np.ndarray, weights: np.ndarray, n: int) -> np.ndarray:
    """Sums of ``weights`` over their first axis into ``n`` bins made by :func:`segment_bins`.

    ``np.bincount`` adds in input order, as a plain loop would. Trailing
    batch axes are one bincount over the flat bin ``owner * size + b``,
    so every batch column is summed exactly as it would be alone.
    """
    if weights.ndim == 1:
        return np.bincount(bins, weights, n)
    return np.bincount(bins.ravel(), weights.ravel(), n * bins.shape[1]).reshape(n, *weights.shape[1:])


def as_rng(seed) -> np.random.Generator:
    """A generator from a seed, or the generator itself; a seed numpy refuses is a ValidationError."""
    try:
        return np.random.default_rng(seed)
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"invalid random seed {seed!r}: {exc}") from None


def is_integer(value) -> bool:
    """Whether a value is an integer; ``bool`` is an ``int`` subclass but does not count."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def python_value(value):
    """A numpy scalar as the Python value it holds, so a message reads ``-2``, not ``np.int64(-2)``."""
    return value.item() if isinstance(value, np.generic) else value


def check_sample_size(n) -> None:
    """Reject a number of samples that is not a positive integer that an int64 count holds."""
    if not is_integer(n) or not 1 <= n <= 2**63 - 1:
        raise ValidationError(
            "the number of samples must be a positive integer of at most 2**63 - 1, "
            f"got {python_value(n)!r}"
        )
