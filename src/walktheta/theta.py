"""Theta by the Lovasz semidefinite program, and the walk-function scaling tools.

`minimize_theta` brackets theta by dual ADMM, both ends certified. For a
fixed A, min_t lambda_max(J - tA) equals the interval minimum of the
walk-generating function (`optimal_scaling`); `extract_optimizer` turns that
minimum into a certified point on the sphere <1, v> = |v|^2 with <v, A v> = 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from . import spectral
from .graphs import Graph, adjacency

__all__ = [
    "ThetaEstimate",
    "OptimizerVector",
    "minimize_theta",
    "optimal_scaling",
    "extract_optimizer",
    "submultiplicativity_check",
]

RESIDUAL_TOL = 1e-7
# The product check: grid size per factor, random identity samples, and the
# identity's relative tolerance.
GRID = 8
N_RANDOM = 50
IDENTITY_TOL = 1e-8
# The theta ADMM: penalty, iterations between certified brackets, and the
# relative gap (upper - certified_lower) / upper at which it stops.
MU = 30.0
CHECK_EVERY = 10
GAP_TOL = 1e-9


@dataclass(frozen=True)
class ThetaEstimate:
    upper: float            # certified: theta <= upper
    certified_lower: float  # certified: certified_lower <= theta
    lower: float            # the known independence number, when supplied
    iterations: int
    converged: bool         # the relative gap closed to GAP_TOL
    weights: tuple          # edge weights w with lambda_max(J - A(w)) <= upper

    def to_json_dict(self) -> dict:
        return dict(vars(self))     # field order is the JSON key order


@dataclass(frozen=True)
class OptimizerVector:
    """Vector certifying the interval minimum: |v|^2 = <1, v> and <v, A v> = 0."""

    v: np.ndarray
    norm_sq: float
    residual_orth: float
    residual_sphere: float
    walk_min: float         # the interval minimum W(x*); n for a zero matrix


def _certified_lower(g: Graph, x: np.ndarray) -> float:
    """A float <= <J, Y> for the feasible Y = (X~ + sI) / tr(X~ + sI), X~ = x symmetrised and zeroed on the edges.

    s = max(0, `spectral.lambda_max_upper(-X~)`) makes Y semidefinite. Both
    `math.fsum` sums are rounded outward one ulp, and their quotient down.
    """
    x = 0.5 * (x + x.T)
    x[g.rows, g.cols] = x[g.cols, g.rows] = 0.0
    s = max(0.0, spectral.lambda_max_upper(-x))
    num = math.fsum(x.ravel().tolist() + [s] * g.n)
    den = math.fsum(np.diag(x).tolist() + [s] * g.n)
    return math.nextafter(math.nextafter(num, -math.inf) / math.nextafter(den, math.inf), -math.inf)


def minimize_theta(g: Graph, max_iter: int = 5000, known_alpha: int = None) -> ThetaEstimate:
    """Theta = max <J, X> over X >= 0, tr X = 1, X zero on the edges (Lovasz 1979), with a certified bracket.

    Dual ADMM (Wen, Goldfarb & Yin, Math. Prog. Comp. 2:203, 2010): with tr X = 1 and sqrt(2) X_ij = 0 on
    the edges, AA* = diag(n, 1, ..., 1), so the multiplier step is a division that gives the dual edge
    weights w = 1 + MU X_ij + S_ij, and the cone projection is one residual-checked `eigh`. Every
    CHECK_EVERY iterations and at max_iter, the least `upper` = `spectral.lambda_max_upper(J - A(w))`
    (with its w) and the greatest `_certified_lower` are kept, from [1, n] at w = 0 ([n, n] without
    edges), until their gap is <= GAP_TOL * upper. ValueError if `upper` is below a given `known_alpha`.
    """
    n, rows, cols = g.n, g.rows, g.cols
    upper, weights, certified_lower = float(n), np.zeros(g.num_edges), float(n if g.num_edges == 0 else 1)
    ones, x, s, iterations = np.ones((n, n)), np.zeros((n, n)), np.zeros((n, n)), 0
    while iterations < max_iter and upper - certified_lower > GAP_TOL * upper:
        iterations += 1
        w = 1.0 + MU * x[rows, cols] + s[rows, cols]
        y0 = -(MU * (np.trace(x) - 1.0) + np.trace(s) + n) / n
        v = adjacency(g, w) - ones - MU * x - y0 * np.eye(n)
        v = 0.5 * (v + v.T)
        vals, vecs = spectral.eigh_checked(v)
        s = (vecs * np.maximum(vals, 0.0)) @ vecs.T
        x = (s - v) / MU
        if iterations % CHECK_EVERY == 0 or iterations == max_iter:
            bound = spectral.lambda_max_upper(ones - adjacency(g, w))
            if bound < upper:
                upper, weights = bound, w
            certified_lower = max(certified_lower, _certified_lower(g, x))
    if known_alpha is not None and upper < known_alpha:
        raise ValueError(f"theta upper bound {upper} fell below the known independence number {known_alpha}")
    return ThetaEstimate(upper, certified_lower, None if known_alpha is None else float(known_alpha),
                         iterations, upper - certified_lower <= GAP_TOL * upper, tuple(weights.tolist()))


def optimal_scaling(a: np.ndarray) -> tuple:
    """Minimize the convex map t -> lambda_max(J - t*a) by reading off the walk-function minimum.

    At the interval minimum x* of W_a, t = -x* W(x*) and the minimum value is W(x*).
    Returns (t, W(x*)), from one `spectral.eig_sym`; a zero matrix gives t = 0, W = n.
    """
    data = spectral.eig_sym(np.asarray(a, dtype=float))
    opt = spectral.walk_minimum(data)
    return float(-opt.x_star * opt.value), float(opt.value)


def extract_optimizer(a: np.ndarray) -> OptimizerVector:
    """Construct the vector realizing the interval minimum of the walk sum.

    Interior minima solve (I - y*A) v = 1 directly; a minimum at an interval
    endpoint (possible only when that endpoint's weight vanished) adds a
    component of prescribed length along the endpoint eigenspace.
    """
    a = np.asarray(a, dtype=float)
    n = a.shape[0]
    data = spectral.eig_sym(a)
    opt = spectral.walk_minimum(data)
    y = opt.x_star
    if not opt.at_endpoint:
        v = np.linalg.solve(np.eye(n) - y * a, np.ones(n))
        return _certify(v, a, opt.value)
    vals, vecs = data.eigenvalues, data.eigenvectors
    cluster = spectral.extreme_eigenspace(vals, top=y > 0)
    denom = 1.0 - vals * y
    denom[cluster] = 1.0
    coeff = (np.ones(n) @ vecs) / denom
    coeff[cluster] = 0.0
    v = vecs @ coeff
    # at an endpoint minimum derivative_at_x is W'(y), evaluated at y itself
    kick = math.sqrt(max(0.0, -y * opt.derivative_at_x))
    v = v + kick * vecs[:, cluster.start]
    return _certify(v, a, opt.value)


def _certify(v: np.ndarray, a: np.ndarray, walk_min: float) -> OptimizerVector:
    norm_sq = float(v @ v)
    residual_orth = abs(float(v @ a @ v))
    residual_sphere = abs(norm_sq - float(np.sum(v)))
    return OptimizerVector(v, norm_sq, residual_orth, residual_sphere, float(walk_min))


def _check_shift(name: str, data: spectral.SpectralData, gamma: float) -> None:
    # valid gammas make A + gamma*I semidefinite: outside (-lam_max, -lam_min)
    band_lo, band_hi = -data.lam_max, -data.lam_min
    slack = 1e-9 * (1.0 + abs(band_lo) + abs(band_hi))
    if band_lo + slack < gamma < band_hi - slack:
        raise ValueError(f"{name} = {gamma} lies in the forbidden band ({band_lo}, {band_hi})")


def _shifted_product(a_g, data_g, gamma_g, a_h, data_h, gamma_h) -> np.ndarray:
    """Strong-product matrix S_g (x) S_h - gamma_g*gamma_h*I, S = A + gamma*I, by broadcasting.

    It vanishes off the product's edges; its eigenvalues are (mu + gamma_g)(nu + gamma_h)
    - gamma_g*gamma_h. Each gamma must avoid the band where its shifted factor is indefinite.
    Equal-length arrays of gammas give the stack of their products.
    """
    gamma_g, gamma_h = np.asarray(gamma_g, dtype=float), np.asarray(gamma_h, dtype=float)
    for gg, gh in zip(gamma_g.ravel().tolist(), gamma_h.ravel().tolist()):
        _check_shift("gamma_g", data_g, gg)
        _check_shift("gamma_h", data_h, gh)
    s_g = a_g + gamma_g[..., None, None] * np.eye(len(a_g))
    s_h = a_h + gamma_h[..., None, None] * np.eye(len(a_h))
    n = len(a_g) * len(a_h)
    m = (s_g[..., :, None, :, None] * s_h[..., None, :, None, :]).reshape(gamma_g.shape + (n, n))
    # the diagonal becomes exactly 0; off the support one factor is an exact zero
    m[..., range(n), range(n)] -= (gamma_g * gamma_h)[..., None]
    return m + 0.0                          # -0.0 -> +0.0, as on a zero matrix filled on the edges


def _product_walk(data_g, gamma_g, data_h, gamma_h) -> SimpleNamespace:
    """Walk function of `_shifted_product`'s matrix from the factors' walk terms, no eigenvectors.

    The all-ones vector is 1 (x) 1, so the terms pair the factors' terms: rates
    (mu + gamma_g)(nu + gamma_h) - gamma_g*gamma_h, weights w_g*w_h, merged by
    `spectral.merge_terms` at the scale of the full product spectrum. The extreme
    eigenvalues are corner products of the factors' extremes, exactly: rounding is monotone.
    Returns what `spectral.walk_minimum` reads: walk, n, lam_min and lam_max.
    """
    _check_shift("gamma_g", data_g, gamma_g)
    _check_shift("gamma_h", data_h, gamma_h)
    shift = gamma_g * gamma_h
    f_g, f_h = data_g.walk, data_h.walk
    terms = sorted(((mu + gamma_g) * (nu + gamma_h) - shift, w_g * w_h)
                   for mu, w_g in zip(f_g.rates, f_g.weights) for nu, w_h in zip(f_h.rates, f_h.weights))
    corners = [(mu + gamma_g) * (nu + gamma_h) - shift
               for mu in (data_g.lam_min, data_g.lam_max) for nu in (data_h.lam_min, data_h.lam_max)]
    norm = float(np.linalg.norm(np.outer(data_g.eigenvalues + gamma_g, data_h.eigenvalues + gamma_h) - shift))
    n = data_g.n * data_h.n
    walk = spectral.merge_terms([r for r, _ in terms], [w for _, w in terms], n, max(1.0, norm))
    return SimpleNamespace(walk=walk, n=n, lam_min=min(corners), lam_max=max(corners))


def _product_spectrum(data_g, gamma_g, data_h, gamma_h) -> tuple:
    """Eigenvalues (mu + gamma_g)(nu + gamma_h) - gamma_g*gamma_h and eigenvectors u (x) v of `_shifted_product`."""
    vals = (np.outer(data_g.eigenvalues + gamma_g, data_h.eigenvalues + gamma_h) - gamma_g * gamma_h).ravel()
    u, v, n = data_g.eigenvectors, data_h.eigenvectors, len(vals)
    return vals, (u[:, None, :, None] * v[None, :, None, :]).reshape(n, n)


def _walk_value(m: np.ndarray, x):
    """W_m(x) = 1^T (I - x m)^-1 1 by its definition: one solve, no eigendecomposition; stackable."""
    x, n = np.asarray(x, dtype=float), m.shape[-1]
    return np.sum(np.linalg.solve(np.eye(n) - x[..., None, None] * m, np.ones(n)), axis=-1)


def _valid_gamma_samples(data: spectral.SpectralData, k: int, rng: np.random.Generator = None):
    """Gammas of the form -1/x for x inside the spectral interval (always valid)."""
    if not any(data.walk.rates):
        if rng is None:
            return [1.0, -1.0] + list(np.linspace(0.5, 2.0, k - 2))
        return list(rng.uniform(0.5, 2.0, size=k))
    lo, hi = 1.0 / data.lam_min, 1.0 / data.lam_max
    width = hi - lo
    xs = []
    if rng is None:
        grid = np.concatenate([
            np.linspace(lo, -1e-3 * width, k // 2 + 1),
            np.linspace(1e-3 * width, hi, k - k // 2),
        ])
        xs = [float(x) for x in grid]
        x_star = spectral.walk_minimum(data).x_star
        if abs(x_star) > 1e-6 * width:
            xs.append(x_star)
    else:
        while len(xs) < k:
            x = float(rng.uniform(lo + 1e-3 * width, hi - 1e-3 * width))
            if abs(x) > 1e-3 * width:
                xs.append(x)
    return [-1.0 / x for x in xs]


def submultiplicativity_check(g: Graph, h: Graph, seed: int = 0) -> tuple:
    """Compare the product graph's family bound against the factor bounds.

    lhs: the walk-sum interval minimum of the product adjacency, minimized
    over a grid of valid shift pairs, at least GRID per factor. rhs: product
    of the factors' interval minima. Also checks the factorization identity
    W_product(-1/(gamma_g*gamma_h)) = W_g(-1/gamma_g) * W_h(-1/gamma_h)
    at N_RANDOM random valid shift pairs, the left sides by one batched
    solve of its definition. Only the factors are decomposed: each grid
    product's walk function pairs the factors' walk terms, and the product
    eigenpairs u (x) v must pass the residual check against the product
    matrix at the grid point that sets lhs (LinAlgError otherwise).
    """
    a_g, a_h = adjacency(g), adjacency(h)
    data_g, data_h = spectral.eig_sym(a_g), spectral.eig_sym(a_h)

    def product(gg, gh) -> np.ndarray:
        return _shifted_product(a_g, data_g, gg, a_h, data_h, gh)

    rhs = spectral.walk_minimum(data_g).value * spectral.walk_minimum(data_h).value
    grid_h = _valid_gamma_samples(data_h, GRID)
    points = [(gg, gh) for gg in _valid_gamma_samples(data_g, GRID) for gh in grid_h]
    values = [spectral.walk_minimum(_product_walk(data_g, gg, data_h, gh)).value for gg, gh in points]
    lhs = min(values)
    gg, gh = points[values.index(lhs)]
    spectral.check_eigenpairs(product(gg, gh), *_product_spectrum(data_g, gg, data_h, gh))
    rng = np.random.default_rng(seed)
    samples_g = _valid_gamma_samples(data_g, N_RANDOM, rng)
    samples_h = _valid_gamma_samples(data_h, N_RANDOM, rng)
    xs = [-1.0 / (gg * gh) for gg, gh in zip(samples_g, samples_h)]
    lefts = _walk_value(product(samples_g, samples_h), xs).tolist()
    for gg, gh, left in zip(samples_g, samples_h, lefts):
        right = data_g.walk.value(-1.0 / gg) * data_h.walk.value(-1.0 / gh)
        if abs(left - right) > IDENTITY_TOL * (1.0 + abs(right)):
            raise AssertionError(f"factorization identity failed at gammas ({gg}, {gh}): "
                                 f"{left} vs {right}")
    ok = lhs <= rhs + 1e-6
    return float(lhs), float(rhs), bool(ok)
