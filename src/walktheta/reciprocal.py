"""Positive-weight sums of linear reciprocals and their critical points.

`ReciprocalSum` is f(x) = sum(w_i / (1 - b_i x)) with w_i > 0. Built from a
symmetric matrix's eigenvalue clusters (`spectral.SpectralData.walk`) it is
the walk-generating function <1, (I - xA)^-1 1>. Such sums have at most
2(N - 1) critical points; when the pole rates carry both signs, the critical
point with the largest f-value is the unique minimum of f on the central
strip between the extreme reciprocal poles.

`ReciprocalSum.minimize(lo, hi)` is the interval minimiser for the walk
minima (via `spectral.walk_minimum`; `bounds` and the product check bisect
stacks of walks in `spectral.walk_minima` instead) and the duality strip. It and
the critical-point enumerator, which brackets each root of f' by
certified interval halving, share one root search on the derivative,
`_root`: safeguarded Newton steps inside a sign bracket.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass, field
from itertools import repeat
from operator import ge, le, lt, mul

import numpy as np

__all__ = [
    "IntervalMin",
    "ReciprocalSum",
    "PoleProximityError",
    "CriticalReport",
    "has_critical_points",
    "central_strip",
    "enumerate_critical_points",
    "verify_duality",
]

POLE_TOL = 1e-9           # relative half-width of the excluded zone around each pole
X_TOL = 1e-12             # relative root tolerance on x
DERIV_TOL = 1e-10         # relative root tolerance on the derivative
WALL_TOL = 1e-6           # an interval endpoint counts as a pole wall within this relative distance
EQ_TOL = 1e-8             # relative tolerance for the duality value comparison


class PoleProximityError(ValueError):
    """Evaluation point is too close to a reciprocal pole."""

    def __init__(self, x: float, pole: float):
        super().__init__(f"x = {x} is within tolerance of the pole at {pole}")
        self.x = x
        self.pole = pole


@dataclass(frozen=True)
class IntervalMin:
    """Minimum of a reciprocal sum on an interval: the point, the value there, and f' there."""

    x_star: float
    value: float
    at_endpoint: bool
    derivative_at_x: float


@dataclass(frozen=True)
class ReciprocalSum:
    """Sum of weight / (1 - rate * x) terms; weights positive, rates distinct.

    Terms are stored in ascending rate order whatever order they are given
    in. `poles` holds the finite poles 1 / rate, ascending.
    """

    weights: tuple
    rates: tuple
    poles: tuple = field(init=False, repr=False, compare=False)
    _slopes: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        weights = tuple(map(float, self.weights))
        rates = tuple(map(float, self.rates))
        if len(weights) != len(rates):
            raise ValueError("weights and rates must have equal length")
        if any(map(le, weights, repeat(0.0))):
            raise ValueError("all weights must be strictly positive")
        if not all(map(lt, rates, rates[1:])):     # spectral clusters arrive ascending
            order = sorted(range(len(rates)), key=rates.__getitem__)
            rates, weights = tuple(rates[i] for i in order), tuple(weights[i] for i in order)
            if any(map(ge, rates, rates[1:])):
                raise ValueError("pole rates must be distinct")
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "rates", rates)
        object.__setattr__(self, "poles", tuple(sorted([1.0 / b for b in rates if b])))
        object.__setattr__(self, "_slopes", tuple(map(mul, weights, rates)))

    def near_pole(self, x: float, tol: float = POLE_TOL) -> bool:
        """True when x lies within tol * (1 + |x|) of a pole."""
        poles = self.poles
        i = bisect_left(poles, x)
        reach = tol * (1.0 + abs(x))
        return (i < len(poles) and poles[i] - x <= reach) or (i > 0 and x - poles[i - 1] <= reach)

    def _pole_error(self, x: float) -> PoleProximityError:
        return PoleProximityError(x, min(self.poles, key=lambda p: abs(x - p)))

    def value(self, x: float) -> float:
        if self.near_pole(x):
            raise self._pole_error(x)
        return sum((a / (1.0 - b * x) for a, b in zip(self.weights, self.rates)), 0.0)

    def derivative(self, x: float) -> float:
        if self.near_pole(x):
            raise self._pole_error(x)
        return sum((c / (q * q) for c, q in zip(self._slopes, [1.0 - b * x for b in self.rates])), 0.0)

    def second_derivative(self, x: float) -> float:
        return float(sum(2.0 * a * b * b / (1.0 - b * x) ** 3 for a, b in zip(self.weights, self.rates)))

    def minimize(self, lo: float, hi: float) -> IntervalMin:
        """Minimum on [lo, hi], where every 1 - rate * x > 0 inside, so the sum is convex.

        An endpoint within WALL_TOL of a pole is a +inf wall. Otherwise a
        nonnegative slope at lo (nonpositive at hi) puts the minimum there;
        else `_root` finds the derivative's zero to DERIV_TOL of its scale.
        """
        x_tol = X_TOL * max(1.0, abs(lo), abs(hi))
        if hi - lo <= x_tol:
            x0 = 0.5 * (lo + hi)
            return IntervalMin(x0, self.value(x0), True, self.derivative(x0))
        d_lo = -math.inf if self.near_pole(lo, WALL_TOL) else self.derivative(lo)
        d_hi = math.inf if self.near_pole(hi, WALL_TOL) else self.derivative(hi)
        if d_lo >= 0.0:
            return IntervalMin(lo, self.value(lo), True, d_lo)
        if d_hi <= 0.0:
            return IntervalMin(hi, self.value(hi), True, d_hi)
        d_tol = DERIV_TOL * max(1.0, sum(abs(c) for c in self._slopes))
        x = _root(self, lo, hi, d_lo, x_tol, d_tol)
        return IntervalMin(x, self.value(x), False, self.derivative(x))


def _root(f: ReciprocalSum, a: float, b: float, da: float, x_tol: float, d_tol: float) -> float:
    """Root of f' on [a, b] (f'(a) = da, f'(b) of the other sign) to d_tol or x_tol.

    Newton steps on f' from the midpoint, f' and f'' in one pass; a step that
    leaves the shrinking bracket, or meets f'' = 0, goes to its midpoint.
    """
    x = 0.5 * (a + b)
    for _ in range(200):
        if f.near_pole(x):
            raise f._pole_error(x)
        d = h = 0.0     # f'(x) and f''(x) / 2
        for c, r in zip(f._slopes, f.rates):
            q = 1.0 - r * x
            t = c / (q * q)
            d += t
            h += t * r / q
        if abs(d) <= d_tol or b - a <= x_tol:
            return x
        a, b = (x, b) if (d < 0.0) == (da < 0.0) else (a, x)
        newton = x - 0.5 * d / h if h != 0.0 else math.nan
        x, last = (newton if a < newton < b else 0.5 * (a + b)), x
        if abs(x - last) <= x_tol:
            return x
    return x


@dataclass(frozen=True)
class CriticalReport:
    """Outcome of checking the maximal-critical-point/strip-minimum duality."""

    critical_points: tuple          # (x, f(x), sign of f'' at x)
    maximal: tuple = None           # (x, f(x)) with the largest critical value
    strip: tuple = None             # (1/beta_min, 1/beta_max) when rates mix signs
    strip_min: tuple = None         # (x, f(x)) minimizing f on the strip
    duality_holds: bool = True
    unresolved: int = 0             # isolation intervals left undecided


def has_critical_points(f: ReciprocalSum) -> bool:
    """True iff the rates carry both signs, or the function is constant."""
    return central_strip(f) is not None or set(f.rates) == {0.0}


def central_strip(f: ReciprocalSum):
    """Open interval between the extreme reciprocal poles, when both signs occur."""
    if f.rates and f.rates[0] < 0.0 < f.rates[-1]:
        return (1.0 / f.rates[0], 1.0 / f.rates[-1])
    return None


def _isolate(f: ReciprocalSum, cuts: list) -> tuple:
    """Brackets (a, b, f'(a)) of the roots of f' between cuts, halving points where f' is 0,
    and the count of intervals still undecided at width X_TOL.

    With d = w / b and p = 1 / b, each term d / (x - p)^2 of f' and -2d / (x - p)^3 of f''
    is monotone between poles, which lie only on cuts: summed endpoint minima and maxima
    enclose f' and f'' (Moore's natural interval extension). An interval is dropped if the
    f' enclosure excludes 0; if the f'' one does, it is a bracket when f' changes sign
    between finite end values, else dropped; any other interval is halved, left halves
    first. Plain float loops: sums run in term order from 0.0, as numpy's do below 8 terms.
    """
    terms = [(1.0 / b, w / b) for w, b in zip(f.weights, f.rates) if b]
    spans = [(_ends(a, terms, False), _ends(b, terms, True)) for a, b in zip(cuts, cuts[1:])]
    brackets, zeros, unresolved = [], [], 0
    while spans:
        halved = []
        for lo, hi in spans:
            low, high = _hull(lo[1], hi[1])
            if not low <= 0.0 <= high:
                continue
            low, high = _hull(lo[2], hi[2])
            monotone = low > 0.0 or high < 0.0
            (a, _, _, da), (b, _, _, db) = lo, hi
            crossing = da < 0.0 < db or db < 0.0 < da       # a NaN end never crosses
            if monotone and crossing and abs(da) < math.inf and abs(db) < math.inf:
                brackets.append((a, b, da))
            elif not monotone or crossing:     # undecided: halve, down to X_TOL
                if b - a <= X_TOL * max(1.0, abs(a), abs(b)):
                    unresolved += 1
                else:
                    halved.append((lo, _ends(0.5 * (a + b), terms, False), hi))
        zeros += [mid[0] for _, mid, _ in halved if mid[3] == 0.0]
        spans = [(lo, mid) for lo, mid, _ in halved] + [(mid, hi) for _, mid, hi in halved]
    return brackets, zeros, unresolved


def _ends(x: float, terms: list, right: bool) -> tuple:
    """(x, terms d / q^2 of f', d / q^3 of f'' over -2, f'(x)) for q = x - p; at q = 0 IEEE's +-inf."""
    ts, ss = [], []
    for p, d in terms:
        q = (x - p) or (-0.0 if right else 0.0)     # a right end nears its pole from below
        qq = q * q
        t = d / qq if qq else math.copysign(math.inf, d)
        ts.append(t)
        ss.append(t / q if q else t * math.copysign(1.0, q))
    return x, ts, ss, sum(ts, 0.0)


def _hull(u: list, v: list) -> tuple:
    """(sum of min(u_i, v_i), sum of max(u_i, v_i)); NaN propagates, as in numpy."""
    low = high = 0.0
    for x, y in zip(u, v):
        if not x <= y:
            x, y = (y, x) if y < x else (math.nan, math.nan)
        low, high = low + x, high + y
    return low, high


def enumerate_critical_points(f: ReciprocalSum) -> tuple:
    """All critical points, each root of f' bracketed by `_isolate` and found by `_root`.

    Returns (points, unresolved): (x, f(x), sign of f'' at x) per point, ascending, and the
    count of isolation intervals left undecided. The cuts are the poles and +-reach, a power
    of two, so 1 / reach is exact. Beyond them u = 1 / x gives f'(x) = u^2 F'(u) for the sum
    F with rates 1 / b, convex where |u| <= 1 / reach < 1 / (2 max|pole|): the tails hold at
    most one root, on the side away from the sign of F'(0).
    """
    if set(f.rates) <= {0.0}:
        return [], 0
    reach = 2.0 ** math.ceil(math.log2(2.0 * max(map(abs, f.poles)) + 1.0))
    brackets, found, unresolved = _isolate(f, [-reach, *f.poles, reach])
    found += [_root(f, a, b, da, X_TOL * max(1.0, abs(a), abs(b)), 0.0) for a, b, da in brackets]
    tail = ReciprocalSum(*zip(*((w, 1.0 / b) for w, b in zip(f.weights, f.rates) if b)))
    a, b = sorted((math.copysign(1.0 / reach, -tail.derivative(0.0)), 0.0))
    if tail.derivative(a) * tail.derivative(b) < 0.0:
        found.append(1.0 / _root(tail, a, b, tail.derivative(a), X_TOL / reach, 0.0))
    return [(x, f.value(x), int(np.sign(f.second_derivative(x)))) for x in sorted(found)], unresolved


def verify_duality(f: ReciprocalSum) -> CriticalReport:
    """Check that the largest critical value is the central-strip minimum."""
    found, unresolved = enumerate_critical_points(f)
    cps, strip = tuple(found), central_strip(f)
    if not cps:
        return CriticalReport(cps, None, strip, None, unresolved == 0, unresolved)
    maximal = max(((x, v) for x, v, _ in cps), key=lambda t: t[1])
    if strip is None:
        return CriticalReport(cps, maximal, None, None, False, unresolved)
    m = f.minimize(*strip)
    strip_min = (m.x_star, m.value)
    inside = tuple(p for p in cps if strip[0] < p[0] < strip[1])
    ok = (
        abs(maximal[1] - strip_min[1]) <= EQ_TOL * (1.0 + abs(strip_min[1]))
        and strip[0] < maximal[0] < strip[1]
        and len(inside) == 1
        and inside[0][2] >= 0
        and unresolved == 0
    )
    return CriticalReport(cps, maximal, strip, strip_min, ok, unresolved)
