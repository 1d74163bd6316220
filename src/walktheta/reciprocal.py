"""Positive-weight sums of linear reciprocals and their critical points.

`ReciprocalSum` is f(x) = sum(w_i / (1 - b_i x)) with w_i > 0. Built from a
symmetric matrix's eigenvalue clusters it is the walk-generating function
<1, (I - xA)^-1 1>. Such sums have at most 2(N - 1) critical points; when
the pole rates carry both signs, the critical point with the largest
f-value is the unique minimum of f on the central strip between the extreme
reciprocal poles. Two independent root finders are provided: a
dense-scan-plus-bisection enumerator and a companion-matrix polynomial
solver, so tests can cross-check them.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "ReciprocalSum",
    "PoleProximityError",
    "CriticalReport",
    "has_critical_points",
    "central_strip",
    "enumerate_critical_points",
    "polynomial_critical_points",
    "verify_duality",
    "random_instance",
]

POLE_TOL = 1e-9           # relative half-width of the excluded zone around each pole
SCAN_SAMPLES = 10_001     # grid points per pole-free interval
TAIL_SAMPLES = 10_001
TAIL_REACH = 1e6          # outer tails extend this factor beyond the pole hull
X_TOL = 1e-12
EQ_TOL = 1e-8             # relative tolerance for the duality value comparison
POLE_MARGIN = 1e-7


class PoleProximityError(ValueError):
    """Evaluation point is too close to a reciprocal pole."""

    def __init__(self, x: float, pole: float):
        super().__init__(f"x = {x} is within tolerance of the pole at {pole}")
        self.x = x
        self.pole = pole


@dataclass(frozen=True)
class ReciprocalSum:
    """Sum of weight / (1 - rate * x) terms; weights positive, rates distinct.

    Terms are stored in ascending rate order whatever order they are given
    in. `poles` holds the finite poles 1 / rate, ascending. n_total is the
    dimension of the matrix the sum came from (its value when constant);
    it is None for a sum given by its terms.
    """

    weights: tuple
    rates: tuple
    n_total: float = None
    poles: tuple = field(init=False, repr=False, compare=False)
    _slopes: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        weights = tuple(float(a) for a in self.weights)
        rates = tuple(float(b) for b in self.rates)
        if len(weights) != len(rates):
            raise ValueError("weights and rates must have equal length")
        if any(a <= 0 for a in weights):
            raise ValueError("all weights must be strictly positive")
        order = sorted(range(len(rates)), key=rates.__getitem__)
        rates = tuple(rates[i] for i in order)
        if any(b >= c for b, c in zip(rates, rates[1:])):
            raise ValueError("pole rates must be distinct")
        weights = tuple(weights[i] for i in order)
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "rates", rates)
        object.__setattr__(self, "poles", tuple(sorted(1.0 / b for b in rates if b != 0.0)))
        object.__setattr__(self, "_slopes", tuple(a * b for a, b in zip(weights, rates)))

    @classmethod
    def from_spectral(cls, data) -> "ReciprocalSum":
        """Walk-generating function of a decomposed symmetric matrix (`spectral.SpectralData`)."""
        return cls(tuple(w for _, w in data.clusters), tuple(r for r, _ in data.clusters),
                   float(data.n))

    @classmethod
    def from_terms(cls, weights, rates) -> "ReciprocalSum":
        """Normalize arbitrary terms: drop zero weights, merge equal rates."""
        merged = {}
        for a, b in zip(weights, rates):
            if a < 0:
                raise ValueError("weights must be nonnegative")
            if a > 0:
                merged[float(b)] = merged.get(float(b), 0.0) + float(a)
        return cls(tuple(merged.values()), tuple(merged.keys()))

    @property
    def order(self) -> int:
        return len(self.weights)

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
        return sum((c / (1.0 - b * x) ** 2 for c, b in zip(self._slopes, self.rates)), 0.0)

    def second_derivative(self, x: float) -> float:
        return float(sum(2.0 * a * b * b / (1.0 - b * x) ** 3 for a, b in zip(self.weights, self.rates)))

    def derivative_scale(self) -> float:
        return float(sum(abs(c) for c in self._slopes))

    def derivative_grid(self, xs: np.ndarray) -> np.ndarray:
        d = np.multiply.outer(self.rates, xs)
        np.subtract(1.0, d, out=d)
        np.square(d, out=d)
        np.divide(np.asarray(self._slopes)[:, None], d, out=d)
        return d.sum(axis=0)


@dataclass(frozen=True)
class CriticalReport:
    """Outcome of checking the maximal-critical-point/strip-minimum duality."""

    critical_points: tuple          # (x, f(x), sign of f'' at x)
    maximal: tuple = None           # (x, f(x)) with the largest critical value
    strip: tuple = None             # (1/beta_min, 1/beta_max) when rates mix signs
    strip_min: tuple = None         # (x, f(x)) minimizing f on the strip
    duality_holds: bool = True


def has_critical_points(f: ReciprocalSum) -> bool:
    """True iff the rates carry both signs, or the function is constant."""
    if f.rates and f.rates[0] < 0.0 < f.rates[-1]:
        return True
    return set(f.rates) == {0.0}


def central_strip(f: ReciprocalSum):
    """Open interval between the extreme reciprocal poles, when both signs occur."""
    b_min, b_max = f.rates[0], f.rates[-1]
    if b_min < 0.0 < b_max:
        return (1.0 / b_min, 1.0 / b_max)
    return None


def _refine_sign_change(f: ReciprocalSum, a: float, b: float, da: float) -> float:
    for _ in range(200):
        mid = 0.5 * (a + b)
        if b - a <= X_TOL * (1.0 + abs(mid)):
            return mid
        dm = f.derivative(mid)
        if dm == 0.0:
            return mid
        if (dm < 0.0) == (da < 0.0):
            a = mid
        else:
            b = mid
    return 0.5 * (a + b)


def _scan_segment(f: ReciprocalSum, xs: np.ndarray, found: list) -> None:
    if len(xs) < 2:
        return
    ds = f.derivative_grid(xs)
    signs = np.sign(ds)
    for k in np.nonzero(signs[:-1] * signs[1:] < 0)[0]:
        found.append(_refine_sign_change(f, float(xs[k]), float(xs[k + 1]), float(ds[k])))
    for k in np.nonzero(signs == 0)[0]:
        found.append(float(xs[k]))


def enumerate_critical_points(f: ReciprocalSum) -> list:
    """All critical points found by dense scan + bisection, as (x, f(x), f'' sign).

    The scan covers every pole-free interval of the pole hull with margin,
    plus geometric outer tails.
    """
    if set(f.rates) <= {0.0}:
        return []
    poles = list(f.poles)
    span = poles[-1] - poles[0] + 1.0
    lo = poles[0] - 0.5 * span - 1.0
    hi = poles[-1] + 0.5 * span + 1.0
    found = []
    cuts = [lo] + poles + [hi]
    for a, b in zip(cuts[:-1], cuts[1:]):
        ma = POLE_MARGIN * (1.0 + abs(a))
        mb = POLE_MARGIN * (1.0 + abs(b))
        if b - a > ma + mb:
            _scan_segment(f, np.linspace(a + ma, b - mb, SCAN_SAMPLES), found)
    reach = TAIL_REACH * span
    left = poles[0] - np.geomspace(POLE_MARGIN * (1.0 + abs(poles[0])), reach, TAIL_SAMPLES)
    _scan_segment(f, left[::-1], found)
    right = poles[-1] + np.geomspace(POLE_MARGIN * (1.0 + abs(poles[-1])), reach, TAIL_SAMPLES)
    _scan_segment(f, right, found)
    found.sort()
    out = []
    for x in found:
        if out and abs(x - out[-1][0]) <= 1e-9 * (1.0 + abs(x)):
            continue
        out.append((x, f.value(x), int(np.sign(f.second_derivative(x)))))
    return out


def polynomial_critical_points(f: ReciprocalSum) -> list:
    """Real roots of the cleared-denominator derivative polynomial (companion matrix).

    Independent of the scanning enumerator; returns bare x locations.
    """
    coeffs = np.zeros(1)
    for i, (a, b) in enumerate(zip(f.weights, f.rates)):
        term = np.array([a * b])
        for j, c in enumerate(f.rates):
            if j != i:
                factor = np.array([1.0, -c])
                term = np.polynomial.polynomial.polymul(
                    term, np.polynomial.polynomial.polymul(factor, factor)
                )
        n = max(len(coeffs), len(term))
        coeffs = np.pad(coeffs, (0, n - len(coeffs))) + np.pad(term, (0, n - len(term)))
    while len(coeffs) > 1 and coeffs[-1] == 0.0:
        coeffs = coeffs[:-1]
    if len(coeffs) <= 1:
        return []
    roots = np.polynomial.polynomial.polyroots(coeffs)
    out = []
    for r in roots:
        if abs(r.imag) > 1e-8 * (1.0 + abs(r.real)):
            continue
        x = float(r.real)
        if any(abs(x - p) <= POLE_MARGIN * (1.0 + abs(p)) for p in f.poles):
            continue
        out.append(x)
    return sorted(out)


def _strip_minimum(f: ReciprocalSum, strip: tuple) -> tuple:
    """Interior minimum of f on the strip (both endpoints are +inf walls)."""
    a, b = strip
    # step inside the walls before bisecting the derivative
    for _ in range(80):
        width = b - a
        am = a + 1e-3 * width
        bm = b - 1e-3 * width
        da, db = f.derivative(am), f.derivative(bm)
        if da < 0.0 <= db:
            x = _refine_sign_change(f, am, bm, da)
            return (x, f.value(x))
        if da >= 0.0:
            b = am
        else:
            a = bm
    x = 0.5 * (a + b)
    return (x, f.value(x))


def verify_duality(f: ReciprocalSum) -> CriticalReport:
    """Check that the largest critical value is the central-strip minimum."""
    cps = tuple(enumerate_critical_points(f))
    strip = central_strip(f)
    if not cps:
        return CriticalReport(cps, None, strip, None, True)
    maximal = max(((x, v) for x, v, _ in cps), key=lambda t: t[1])
    if strip is None:
        return CriticalReport(cps, maximal, None, None, False)
    strip_min = _strip_minimum(f, strip)
    inside = tuple(p for p in cps if strip[0] < p[0] < strip[1])
    ok = (
        abs(maximal[1] - strip_min[1]) <= EQ_TOL * (1.0 + abs(strip_min[1]))
        and strip[0] < maximal[0] < strip[1]
        and len(inside) == 1
        and inside[0][2] >= 0
    )
    return CriticalReport(cps, maximal, strip, strip_min, ok)


def random_instance(rng: np.random.Generator) -> ReciprocalSum:
    """Random sum with 2..6 terms; half the draws force mixed-sign rates."""
    n = int(rng.integers(2, 7))
    mixed = rng.random() < 0.5
    while True:
        rates = rng.uniform(-5.0, 5.0, size=n)
        if mixed:
            # both signs present: the duality branch of the theorem applies
            rates[0] = rng.uniform(0.2, 5.0)
            rates[-1] = -rng.uniform(0.2, 5.0)
        else:
            sign = 1.0 if rng.random() < 0.5 else -1.0
            rates = sign * np.abs(rates)
        b = np.sort(rates)
        if np.min(np.abs(b)) > 1e-2 and (n == 1 or np.min(np.diff(b)) > 1e-3):
            break
    weights = rng.uniform(0.1, 10.0, size=n)
    return ReciprocalSum(tuple(weights), tuple(rates))
