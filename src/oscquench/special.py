"""Stable evaluation helpers for Hermite polynomials."""

from __future__ import annotations

import numpy as np


def hermite_all(n_max: int, z):
    """H_0(z) .. H_n_max(z) by the three-term recurrence.

    Returns an array of shape (n_max + 1,) + shape(z).
    """
    z = np.asarray(z, dtype=float)
    out = np.empty((n_max + 1,) + z.shape)
    out[0] = 1.0
    if n_max >= 1:
        out[1] = 2.0 * z
    for n in range(1, n_max):
        out[n + 1] = 2.0 * z * out[n] - 2.0 * n * out[n - 1]
    return out


def hermite_n(n: int, z):
    """Single Hermite polynomial H_n(z)."""
    return hermite_all(n, z)[n]

