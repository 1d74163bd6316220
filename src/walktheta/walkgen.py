"""Interval minima of walk-generating functions W_A(x) = <1, (I - xA)^-1 1>.

The function itself is `reciprocal.ReciprocalSum.from_spectral(data)`, and
the minimiser is `ReciprocalSum.minimize`. This module handles what is
particular to a matrix: the zero matrix, the clip to the spectral interval
[1/lam_min, 1/lam_max] and the constant sum. It also samples the function
for plotting.
"""

from __future__ import annotations

import math

import numpy as np

from . import spectral
from .reciprocal import POLE_TOL, IntervalMin, ReciprocalSum

__all__ = [
    "IntervalMin",
    "minimize",
    "sample",
]

# A matrix with Frobenius norm at or below this is treated as zero, which by
# convention makes the interval minimum equal n with an infinite sentinel x.
ZERO_NORM = 1e-12


def minimize(data: spectral.SpectralData, lo: float = -math.inf, hi: float = math.inf) -> IntervalMin:
    """Minimum of the walk-generating function of `data` on [lo, hi], clipped to the spectral interval.

    The spectral interval is [1/lam_min, 1/lam_max]; the function is convex
    there, and endpoints sitting on poles are +inf walls.
    A numerically zero matrix yields value n at the infinite sentinel x.
    """
    if data.norm <= ZERO_NORM:
        return IntervalMin(math.inf, float(data.n), False, 0.0)
    lo = max(lo, 1.0 / data.lam_min)
    hi = min(hi, 1.0 / data.lam_max)
    if lo > hi:
        raise ValueError(f"empty interval [{lo}, {hi}]")
    fn = ReciprocalSum.from_spectral(data)
    if all(b == 0.0 for b in fn.rates):
        x0 = min(max(0.0, lo), hi)
        return IntervalMin(x0, fn.n_total, False, 0.0)
    return fn.minimize(lo, hi)


def sample(fn: ReciprocalSum, lo: float, hi: float, k: int) -> list:
    """k evenly spaced (x, value) pairs on [lo, hi]; points at poles carry None."""
    if k < 2:
        raise ValueError("need at least 2 sample points")
    out = []
    for x in np.linspace(lo, hi, k):
        x = float(x)
        out.append((x, None if fn.near_pole(x, POLE_TOL) else fn.value(x)))
    return out
