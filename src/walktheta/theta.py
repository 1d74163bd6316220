"""Theta-number estimation via eigenvalue minimization over weighted adjacencies.

The estimate minimizes lambda_max(J - A) over symmetric matrices A supported
on the edges, which upper-bounds the independence number for every feasible
A. A one-dimensional scaling search realizes the same value as the interval
minimum of the walk-generating function for a fixed A; the optimizer vector
extraction turns that minimum into a certified point on the sphere
<1, v> = |v|^2 with <v, A v> = 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import spectral, walkgen
from .graphs import Graph, adjacency, strong_product
from .independent_set import independence_number
from .reciprocal import ReciprocalSum

__all__ = [
    "WeightedAdjacency",
    "ThetaEstimate",
    "OptimizerVector",
    "lambda_max_penalized",
    "minimize_theta",
    "optimal_scaling",
    "extract_optimizer",
    "product_adjacency",
    "submultiplicativity_check",
]

RESIDUAL_TOL = 1e-7
# Subgradient descent stops once the best value improved by less than the
# stall tolerance over this many iterations.
STALL_WINDOW = 200


def _weight_matrix(g: Graph, weights) -> np.ndarray:
    """Symmetric zero-diagonal matrix with `weights` on g's edges, in edge-index order."""
    a = np.zeros((g.n, g.n))
    a[g.rows, g.cols] = weights
    a[g.cols, g.rows] = weights
    return a


@dataclass(frozen=True)
class WeightedAdjacency:
    """Edge weights over a fixed graph; induces a symmetric zero-diagonal matrix.

    `weights` follow the graph's edge index (`graph.rows`, `graph.cols`).
    """

    graph: Graph
    weights: tuple

    def __post_init__(self):
        if len(self.weights) != self.graph.num_edges:
            raise ValueError(f"need {self.graph.num_edges} weights, got {len(self.weights)}")
        object.__setattr__(self, "weights", tuple(float(w) for w in self.weights))

    def matrix(self) -> np.ndarray:
        return _weight_matrix(self.graph, self.weights)

    @classmethod
    def unweighted(cls, g: Graph) -> "WeightedAdjacency":
        return cls(g, (1.0,) * len(g.edges))


@dataclass(frozen=True)
class ThetaEstimate:
    upper: float
    lower: float            # brute-force independence number when requested
    weights: tuple          # edge weights achieving `upper`
    iterations: int
    converged: bool
    history: tuple = ()     # best-so-far values, non-increasing

    def to_json_dict(self) -> dict:
        return {
            "upper": self.upper,
            "lower": self.lower,
            "iterations": self.iterations,
            "converged": self.converged,
            "weights": list(self.weights),
        }


@dataclass(frozen=True)
class OptimizerVector:
    """Vector certifying the interval minimum: |v|^2 = <1, v> and <v, A v> = 0."""

    v: np.ndarray
    norm_sq: float
    residual_orth: float
    residual_sphere: float


def _top_cluster(b: np.ndarray):
    vals, vecs = spectral.eigh_checked(b)
    top = vals[-1]
    tol = spectral.TOL_CLUSTER * max(1.0, float(np.linalg.norm(vals)))
    k = int(np.searchsorted(vals, top - tol))
    return float(top), vecs[:, k:]


def lambda_max_penalized(g: Graph, weights) -> tuple:
    """lambda_max(J - A(weights)) with one top eigenvector and its multiplicity."""
    wa = WeightedAdjacency(g, tuple(weights))
    b = np.ones((g.n, g.n)) - wa.matrix()
    value, basis = _top_cluster(b)
    return value, basis[:, 0], basis.shape[1]


def _subgradient(rows: np.ndarray, cols: np.ndarray, b: np.ndarray):
    """lambda_max(b) and the gradient over the edges (rows, cols) of the averaged top eigenspace."""
    value, basis = _top_cluster(b)
    return value, -2.0 * np.mean(basis[rows] * basis[cols], axis=1)


def minimize_theta(
    g: Graph,
    max_iter: int = 5000,
    stall_tol: float = 1e-6,
    init_weights=None,
    alpha_oracle: bool = False,
) -> ThetaEstimate:
    """Subgradient descent on lambda_max(J - A) over edge weights.

    Diminishing steps c / sqrt(k) with c = n / |g_1|; the best value seen is
    kept, so the reported upper bound is sound for any iterate. A final line
    search along the scaling ray t * A_best (exact for the 1-D convex
    restriction) polishes the result.
    """
    m = g.num_edges
    n = g.n
    lower = float(independence_number(g)) if alpha_oracle else None
    if m == 0:
        upper = float(n)
        return ThetaEstimate(upper, lower if lower is not None else None,
                             (), 0, True, (upper,))
    w = np.ones(m) if init_weights is None else np.asarray(init_weights, dtype=float).copy()
    ones = np.ones((n, n))
    best_val = math.inf
    best_w = w.copy()
    history = []
    step_c = None
    converged = False
    iterations = 0
    for k in range(1, max_iter + 1):
        iterations = k
        value, grad = _subgradient(g.rows, g.cols, ones - _weight_matrix(g, w))
        if value < best_val:
            best_val = value
            best_w = w.copy()
        history.append(best_val)
        gnorm = float(np.linalg.norm(grad))
        if gnorm <= 1e-14 * max(1.0, abs(value)):
            converged = True   # zero is a subgradient: w is optimal
            break
        if step_c is None:
            step_c = n / gnorm
        w = w - (step_c / math.sqrt(k)) * grad
        if k >= STALL_WINDOW and history[-STALL_WINDOW] - best_val < stall_tol:
            converged = True
            break
    w_init = np.ones(m) if init_weights is None else np.asarray(init_weights, dtype=float)
    rays = [best_w] if np.allclose(w_init, best_w) else [best_w, w_init]
    for ray in rays:
        if np.linalg.norm(ray) <= walkgen.ZERO_NORM:
            continue
        t, value = optimal_scaling(_weight_matrix(g, ray))
        if value < best_val:
            best_val = value
            best_w = t * ray
            history.append(best_val)
    return ThetaEstimate(
        upper=float(best_val),
        lower=lower,
        weights=tuple(float(x) for x in best_w),
        iterations=iterations,
        converged=converged,
        history=tuple(history),
    )


def optimal_scaling(a: np.ndarray) -> tuple:
    """Minimize the convex map t -> lambda_max(J - t*a) by golden section + bisection."""
    a = np.asarray(a, dtype=float)
    n = a.shape[0]
    norm = float(np.linalg.norm(a))
    if norm <= walkgen.ZERO_NORM:
        raise ValueError("optimal scaling needs a nonzero matrix")
    ones = np.ones((n, n))

    def f(t: float) -> float:
        return float(np.linalg.eigvalsh(ones - t * a)[-1])

    sing = np.abs(np.linalg.eigvalsh(a))
    sigma_min = float(np.min(sing[sing > 1e-12 * norm]))
    reach = 4.0 * n / sigma_min
    lo, hi = -reach, reach
    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
    x1 = hi - inv_phi * (hi - lo)
    x2 = lo + inv_phi * (hi - lo)
    f1, f2 = f(x1), f(x2)
    for _ in range(140):
        if f1 <= f2:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - inv_phi * (hi - lo)
            f1 = f(x1)
        else:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + inv_phi * (hi - lo)
            f2 = f(x2)
    t = x1 if f1 <= f2 else x2
    # refine on the sign of the symmetric slope, robust at eigenvalue crossings
    h = 1e-9 * (1.0 + abs(t))
    lo2, hi2 = t - 1e4 * h, t + 1e4 * h
    for _ in range(60):
        mid = 0.5 * (lo2 + hi2)
        if f(mid + h) - f(mid - h) > 0.0:
            hi2 = mid
        else:
            lo2 = mid
    t_ref = 0.5 * (lo2 + hi2)
    candidates = [(f(t), t), (f(t_ref), t_ref)]
    value, t_star = min(candidates)
    return float(t_star), float(value)


def extract_optimizer(a: np.ndarray) -> OptimizerVector:
    """Construct the vector realizing the interval minimum of the walk sum.

    Interior minima solve (I - y*A) v = 1 directly; a minimum at an interval
    endpoint (possible only when that endpoint's weight vanished) adds a
    component of prescribed length along the endpoint eigenspace.
    """
    a = np.asarray(a, dtype=float)
    n = a.shape[0]
    if float(np.linalg.norm(a)) <= walkgen.ZERO_NORM:
        v = np.ones(n)
        return _certify(v, a)
    data = spectral.eig_sym(a)
    opt = walkgen.minimize(data)
    y = opt.x_star
    if not opt.at_endpoint:
        v = np.linalg.solve(np.eye(n) - y * a, np.ones(n))
        return _certify(v, a)
    vals, vecs = data.eigenvalues, data.eigenvectors
    lam_end = data.lam_min if y < 0 else data.lam_max
    tol = spectral.TOL_CLUSTER * max(1.0, float(np.linalg.norm(vals)))
    in_cluster = np.abs(vals - lam_end) <= tol
    overlaps = np.ones(n) @ vecs
    denom = np.where(in_cluster, 1.0, 1.0 - vals * y)
    coeff = np.where(in_cluster, 0.0, overlaps / denom)
    v = vecs @ coeff
    # at an endpoint minimum derivative_at_x is W'(y), evaluated at y itself
    kick = math.sqrt(max(0.0, -y * opt.derivative_at_x))
    v = v + kick * vecs[:, int(np.argmax(in_cluster))]
    return _certify(v, a)


def _certify(v: np.ndarray, a: np.ndarray) -> OptimizerVector:
    norm_sq = float(v @ v)
    residual_orth = abs(float(v @ a @ v))
    residual_sphere = abs(norm_sq - float(np.sum(v)))
    return OptimizerVector(v, norm_sq, residual_orth, residual_sphere)


def _check_shift(name: str, data: spectral.SpectralData, gamma: float) -> None:
    # valid gammas make A + gamma*I semidefinite: outside (-lam_max, -lam_min)
    band_lo, band_hi = -data.lam_max, -data.lam_min
    slack = 1e-9 * (1.0 + abs(band_lo) + abs(band_hi))
    if band_lo + slack < gamma < band_hi - slack:
        raise ValueError(f"{name} = {gamma} lies in the forbidden band ({band_lo}, {band_hi})")


def product_adjacency(
    wa_g: WeightedAdjacency,
    wa_h: WeightedAdjacency,
    gamma_g: float,
    gamma_h: float,
) -> WeightedAdjacency:
    """Weighted adjacency for the strong product built from shifted factors.

    Eigenvalues are (mu + gamma_g)(nu + gamma_h) - gamma_g*gamma_h over factor
    eigenvalue pairs. Each gamma must avoid the open band where the shifted
    factor is indefinite.
    """
    a_g, a_h = wa_g.matrix(), wa_h.matrix()
    data_g, data_h = spectral.eig_sym(a_g), spectral.eig_sym(a_h)
    product = strong_product(wa_g.graph, wa_h.graph)
    m = _shifted_product(a_g, data_g, gamma_g, a_h, data_h, gamma_h, product)
    return WeightedAdjacency(product, m[product.rows, product.cols])


def _shifted_product(a_g, data_g, gamma_g, a_h, data_h, gamma_h, product: Graph) -> np.ndarray:
    """product_adjacency's matrix, for decomposed factor matrices and their strong product."""
    _check_shift("gamma_g", data_g, gamma_g)
    _check_shift("gamma_h", data_h, gamma_h)
    ng, nh = len(a_g), len(a_h)
    m = np.kron(a_g + gamma_g * np.eye(ng), a_h + gamma_h * np.eye(nh))
    m -= gamma_g * gamma_h * np.eye(ng * nh)
    return _weight_matrix(product, m[product.rows, product.cols])


def _valid_gamma_samples(data: spectral.SpectralData, k: int, rng: np.random.Generator = None):
    """Gammas of the form -1/x for x inside the spectral interval (always valid)."""
    if data.norm <= walkgen.ZERO_NORM:
        if rng is None:
            return [1.0, -1.0][: max(1, k)] if k <= 2 else [1.0, -1.0] + list(np.linspace(0.5, 2.0, k - 2))
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
        x_star = walkgen.minimize(data).x_star
        if math.isfinite(x_star) and abs(x_star) > 1e-6 * width:
            xs.append(x_star)
    else:
        while len(xs) < k:
            x = float(rng.uniform(lo + 1e-3 * width, hi - 1e-3 * width))
            if abs(x) > 1e-3 * width:
                xs.append(x)
    return [-1.0 / x for x in xs]


def submultiplicativity_check(
    g: Graph,
    h: Graph,
    grid: int = 8,
    n_random: int = 50,
    identity_tol: float = 1e-8,
    seed: int = 0,
) -> tuple:
    """Compare the product graph's family bound against the factor bounds.

    lhs: the walk-sum interval minimum of the product adjacency, minimized
    over a grid of valid shift pairs. rhs: product of the factors' interval
    minima. Also spot-checks the factorization identity
    W_product(-1/(gamma_g*gamma_h)) = W_g(-1/gamma_g) * W_h(-1/gamma_h)
    at `n_random` random valid shift pairs. Each factor is decomposed once.
    """
    a_g, a_h = adjacency(g), adjacency(h)
    data_g, data_h = spectral.eig_sym(a_g), spectral.eig_sym(a_h)
    product_graph = strong_product(g, h)

    def product(gg: float, gh: float) -> np.ndarray:
        return _shifted_product(a_g, data_g, gg, a_h, data_h, gh, product_graph)

    rhs = walkgen.minimize(data_g).value * walkgen.minimize(data_h).value
    lhs = math.inf
    grid_h = _valid_gamma_samples(data_h, grid)
    for gg in _valid_gamma_samples(data_g, grid):
        for gh in grid_h:
            if abs(gg * gh) < 1e-12:
                continue
            lhs = min(lhs, walkgen.minimize_on_spectral_interval(product(gg, gh)).value)
    rng = np.random.default_rng(seed)
    w_g, w_h = ReciprocalSum.from_spectral(data_g), ReciprocalSum.from_spectral(data_h)
    for gg, gh in zip(
        _valid_gamma_samples(data_g, n_random, rng),
        _valid_gamma_samples(data_h, n_random, rng),
    ):
        x_p = -1.0 / (gg * gh)
        left = ReciprocalSum.from_spectral(spectral.eig_sym(product(gg, gh))).value(x_p)
        right = w_g.value(-1.0 / gg) * w_h.value(-1.0 / gh)
        if abs(left - right) > identity_tol * (1.0 + abs(right)):
            raise AssertionError(
                f"factorization identity failed at gammas ({gg}, {gh}): {left} vs {right}"
            )
    ok = lhs <= rhs + 1e-6
    return float(lhs), float(rhs), bool(ok)
