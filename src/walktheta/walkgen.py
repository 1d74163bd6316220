"""Interval minima of walk-generating functions W_A(x) = <1, (I - xA)^-1 1>.

The function itself is `reciprocal.ReciprocalSum.from_spectral(data)`; this
module minimizes it over the spectral interval [1/lam_min, 1/lam_max] or a
part of it, and samples it for plotting.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import spectral
from .reciprocal import POLE_TOL, ReciprocalSum

__all__ = [
    "IntervalMin",
    "minimize",
    "minimize_on_spectral_interval",
    "minimize_on_subinterval",
    "sample",
]

# A matrix with Frobenius norm at or below this is treated as zero, which by
# convention makes the interval minimum equal n with an infinite sentinel x.
ZERO_NORM = 1e-12

WALL_TOL = 1e-6       # endpoint counts as a pole wall within this relative distance
X_TOL = 1e-12         # relative bisection tolerance on x
DERIV_TOL = 1e-10     # relative bisection tolerance on the derivative


@dataclass(frozen=True)
class IntervalMin:
    """Location and value of the minimum of a walk-generating function on an interval.

    x_star is math.inf when the matrix was zero and every x is minimizing.
    """

    x_star: float
    value: float
    at_endpoint: bool
    derivative_at_x: float


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
    if not fn.rates or all(b == 0.0 for b in fn.rates):
        x0 = min(max(0.0, lo), hi)
        return IntervalMin(x0, fn.n_total, False, 0.0)
    if hi - lo <= X_TOL * max(1.0, abs(lo), abs(hi)):
        x0 = 0.5 * (lo + hi)
        return IntervalMin(x0, fn.value(x0), True, fn.derivative(x0))
    d_lo = -math.inf if fn.near_pole(lo, WALL_TOL) else fn.derivative(lo)
    d_hi = math.inf if fn.near_pole(hi, WALL_TOL) else fn.derivative(hi)
    if d_lo >= 0.0:
        return IntervalMin(lo, fn.value(lo), True, d_lo)
    if d_hi <= 0.0:
        return IntervalMin(hi, fn.value(hi), True, d_hi)
    x_tol = X_TOL * max(1.0, abs(lo), abs(hi))
    d_tol = DERIV_TOL * max(1.0, fn.derivative_scale())
    a, b = lo, hi
    mid = 0.5 * (a + b)
    for _ in range(200):
        mid = 0.5 * (a + b)
        d = fn.derivative(mid)
        if abs(d) <= d_tol or b - a <= x_tol:
            break
        if d < 0.0:
            a = mid
        else:
            b = mid
    return IntervalMin(mid, fn.value(mid), False, fn.derivative(mid))


def minimize_on_spectral_interval(a: np.ndarray) -> IntervalMin:
    """Global minimum of the walk-generating function on [1/lam_min, 1/lam_max]."""
    return minimize(spectral.eig_sym(a))


def minimize_on_subinterval(a: np.ndarray, lo: float, hi: float) -> IntervalMin:
    """Minimum over [lo, hi], which must sit inside the spectral interval."""
    data = spectral.eig_sym(a)
    if data.norm > ZERO_NORM:
        full_lo, full_hi = 1.0 / data.lam_min, 1.0 / data.lam_max
        slack_lo = WALL_TOL * (1.0 + abs(full_lo))
        slack_hi = WALL_TOL * (1.0 + abs(full_hi))
        if lo < full_lo - slack_lo or hi > full_hi + slack_hi:
            raise ValueError(
                f"interval [{lo}, {hi}] exceeds the spectral interval [{full_lo}, {full_hi}]"
            )
    return minimize(data, lo, hi)


def sample(fn: ReciprocalSum, lo: float, hi: float, k: int) -> list:
    """k evenly spaced (x, value) pairs on [lo, hi]; points at poles carry None."""
    if k < 2:
        raise ValueError("need at least 2 sample points")
    out = []
    for x in np.linspace(lo, hi, k):
        x = float(x)
        out.append((x, None if fn.near_pole(x, POLE_TOL) else fn.value(x)))
    return out
