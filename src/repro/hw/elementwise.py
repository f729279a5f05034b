"""Elementwise helpers for cost formulas that take a number or an array.

Each cost formula in :mod:`repro.hw` and in the engines' chunk costs is
written once: it prices one configuration from Python numbers and a whole
sweep grid (``repro.analytic.predict_grid``) from NumPy arrays. Plain
arithmetic already does both. These helpers cover the builtins that do
not, and they keep a Python number a Python number: the simulator adds
these values on its hot path, and a NumPy call on a float costs
microseconds and returns ``np.float64``.
"""

from __future__ import annotations

import numpy as np


def minimum(a, b):
    """``min(a, b)``, elementwise when either is an array."""
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return np.minimum(a, b)
    return min(a, b)


def maximum(a, b):
    """``max(a, b)``, elementwise when either is an array."""
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return np.maximum(a, b)
    return max(a, b)


def where(cond, a, b):
    """``a if cond else b``, elementwise when any argument is an array."""
    if (
        isinstance(cond, np.ndarray)
        or isinstance(a, np.ndarray)
        or isinstance(b, np.ndarray)
    ):
        return np.where(cond, a, b)
    return a if cond else b


def every(mask) -> bool:
    """Whether a condition holds for a number, or at every array element."""
    return bool(mask.all()) if isinstance(mask, np.ndarray) else mask


def trunc(x):
    """Integer part of a non-negative number (``int``) or array (``int64``)."""
    return x.astype(np.int64) if isinstance(x, np.ndarray) else int(x)
