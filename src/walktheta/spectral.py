"""Dense symmetric eigendecomposition and the walk-generating function W_A(x) = <1, (I - xA)^-1 1>."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .reciprocal import IntervalMin, ReciprocalSum

__all__ = [
    "SpectralData", "eigh_checked", "check_eigenpairs", "lambda_max_upper", "lambda_max_bracketed", "eig_sym",
    "cluster_weights", "merge_terms", "extreme_eigenspace", "walk_minimum",
]

# Relative tolerances: eigensolver residual, eigenvalue clustering, the
# threshold below which a cluster's all-ones weight counts as exactly zero,
# and, per dimension, the one below which its eigenvalue does (eigh's rounding).
TOL_EIG = 1e-10
TOL_CLUSTER = 1e-7
TOL_WEIGHT = 1e-9
TOL_ZERO = float(np.finfo(float).eps)


@dataclass(frozen=True)
class SpectralData:
    """Eigenvalues (ascending), orthonormal eigenvector columns, norm and walk-generating function.

    `walk`, computed on construction by `cluster_weights`, has one term per
    eigenvalue cluster: its rate is the cluster's representative eigenvalue,
    its weight the summed squared overlap of the all-ones vector with the
    cluster's eigenvectors. Clusters whose weight vanishes numerically are
    dropped, so the surviving weights are strictly positive and sum to n up
    to roundoff. `norm` is the Frobenius norm of the decomposed matrix.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    norm: float
    walk: ReciprocalSum = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "walk", cluster_weights(self))

    @property
    def n(self) -> int:
        return len(self.eigenvalues)

    @property
    def lam_min(self) -> float:
        return float(self.eigenvalues[0]) if self.n else 0.0

    @property
    def lam_max(self) -> float:
        return float(self.eigenvalues[-1]) if self.n else 0.0


def eigh_checked(m: np.ndarray) -> tuple:
    """Eigenvalues (ascending), eigenvector columns and Frobenius norm of an exactly symmetric matrix.

    The norm is the scale of the residual check. Raises ValueError for a
    non-square or non-symmetric input and LinAlgError when the eigenpairs
    fail the residual check.
    """
    m = _symmetric(m)
    vals, vecs = np.linalg.eigh(m)
    return vals, vecs, check_eigenpairs(m, vals, vecs)


def check_eigenpairs(m: np.ndarray, vals: np.ndarray, vecs: np.ndarray) -> float:
    """Frobenius norm of m; LinAlgError unless max|m vecs - vecs diag(vals)| <= 100 TOL_EIG norm n."""
    scale = float(np.linalg.norm(m))
    resid = float(np.max(np.abs(m @ vecs - vecs * vals), initial=0.0))
    if scale > 0 and resid > _eig_tol(scale, len(m)):
        raise np.linalg.LinAlgError(
            f"eigendecomposition residual {resid:.3e} exceeds tolerance at scale {scale:.3e}"
        )
    return scale


def _eig_tol(scale: float, n: int) -> float:
    """Absolute eigensolver tolerance for an n x n matrix of Frobenius norm `scale`."""
    return 100 * TOL_EIG * scale * n


def _symmetric(m) -> np.ndarray:
    """m as a float array; ValueError unless it is square and equals its transpose exactly."""
    m = np.asarray(m, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    if not np.array_equal(m, m.T):
        raise ValueError("matrix is not exactly symmetric")
    return m


def _factors_above(m: np.ndarray, s: float) -> bool:
    """Whether the floating Cholesky of sI - m succeeds after Rump's shift; success proves s > lambda_max(m).

    The shift is c = 2 gamma_{n+1}/(1 - gamma_{n+1}) tr(sI - m), gamma_k = k eps/(1 - k eps): Rump's
    sufficient shift (BIT 46:433, 2006), doubled to cover the rounding of the diagonal, with eps
    (TOL_ZERO) twice the unit roundoff.
    """
    n, shifted = len(m), -m
    gamma = (n + 1) * TOL_ZERO / (1.0 - (n + 1) * TOL_ZERO)
    diag = s - m.diagonal()
    shifted.flat[::n + 1] = diag - 2.0 * gamma / (1.0 - gamma) * math.fsum(diag.tolist())
    try:
        np.linalg.cholesky(shifted)
    except np.linalg.LinAlgError:
        return False
    return True


def lambda_max_upper(m: np.ndarray) -> float:
    """A float u >= lambda_max(m) of an exactly symmetric m, proved by a floating Cholesky of uI - m.

    u is eigvalsh's lambda_max plus delta = 8 n eps max(1, |lambda_max|), doubled until `_factors_above`
    proves it. Raises LinAlgError when 64 tries certify no u.
    """
    m = _symmetric(m)
    n, lam = len(m), float(np.linalg.eigvalsh(m)[-1])
    delta = 8 * n * TOL_ZERO * max(1.0, abs(lam))
    for _ in range(64):
        u, delta = lam + delta, 2.0 * delta
        if _factors_above(m, u):
            return u
    raise np.linalg.LinAlgError(f"no certified upper bound on lambda_max near {lam!r}")


def lambda_max_bracketed(m: np.ndarray) -> float:
    """eigvalsh's lambda_max of a nonzero, exactly symmetric m, checked by two Rump-shifted Cholesky tries.

    With tol = 100 TOL_EIG ||m||_F n, the tolerance of `check_eigenpairs`, (lam + tol)I - m must factor,
    which proves lambda_max < lam + tol, and (lam - tol)I - m must not, as factoring would prove lam
    too high. Raises LinAlgError naming the failed end of the bracket.
    """
    m = _symmetric(m)
    lam = float(np.linalg.eigvalsh(m)[-1])
    tol = _eig_tol(float(np.linalg.norm(m)), len(m))
    if not _factors_above(m, lam + tol):
        raise np.linalg.LinAlgError(
            f"eigvalsh's lambda_max {lam!r} fails its bracket's upper end: ({lam!r} + {tol:.3e})I - m does not factor"
        )
    if _factors_above(m, lam - tol):
        raise np.linalg.LinAlgError(
            f"eigvalsh's lambda_max {lam!r} fails its bracket's lower end: ({lam!r} - {tol:.3e})I - m factors"
        )
    return lam


def eig_sym(m: np.ndarray) -> SpectralData:
    """Full eigendecomposition of a symmetric matrix, with its walk-generating function attached."""
    return SpectralData(*eigh_checked(m))


def cluster_weights(data: SpectralData) -> ReciprocalSum:
    """Walk-generating function of a decomposition: its eigenvalues, weighted by the all-ones overlaps."""
    vals = data.eigenvalues
    overlaps = (np.ones(len(vals)) @ data.eigenvectors) ** 2
    return merge_terms(vals.tolist(), overlaps.tolist(), len(vals), max(1.0, float(np.linalg.norm(vals))))


def merge_terms(rates: list, weights: list, n: int, scale: float) -> ReciprocalSum:
    """Walk-generating function of an n x n matrix from its terms, rates ascending.

    Rates within TOL_CLUSTER * scale of their neighbour merge into one term
    (mean rate, summed weight); scale is max(1, the matrix's Frobenius norm).
    Terms of weight at most TOL_WEIGHT * n are dropped: their poles are
    removable and must not appear downstream. A rate within TOL_ZERO * n *
    scale of 0, `eigh`'s rounding error, is 0.0 exactly: float noise must not
    put a pole near 1e16.
    """
    tol_cluster = TOL_CLUSTER * scale
    tol_zero = TOL_ZERO * n * scale
    tol_weight = TOL_WEIGHT * n
    starts = [i for i in range(len(rates)) if i == 0 or rates[i] - rates[i - 1] > tol_cluster]
    merged_rates, merged_weights = [], []
    for start, stop in zip(starts, [*starts[1:], len(rates)]):
        if stop - start == 1:
            # equal to np.mean/np.sum of the slice; longer clusters keep those
            # calls, since np.add.reduceat rounds differently in the last ulp
            rep, weight = rates[start], weights[start]
        else:
            weight = float(np.sum(weights[start:stop]))
            rep = float(np.mean(rates[start:stop]))
        if weight > tol_weight:
            merged_rates.append(0.0 if abs(rep) <= tol_zero else rep)
            merged_weights.append(weight)
    return ReciprocalSum(merged_weights, merged_rates)


def extreme_eigenspace(vals: np.ndarray, top: bool) -> slice:
    """Columns of ascending `vals` within TOL_CLUSTER * max(1, |vals|) of the largest (top) or the smallest."""
    tol = TOL_CLUSTER * max(1.0, float(np.linalg.norm(vals)))
    if top:
        return slice(int(np.searchsorted(vals, vals[-1] - tol)), len(vals))
    return slice(0, int(np.searchsorted(vals, vals[0] + tol, side="right")))


def walk_minimum(data: SpectralData, hi: float = math.inf) -> IntervalMin:
    """Minimum of `data.walk` on the spectral interval [1/lam_min, 1/lam_max], cut off above at hi.

    The function is convex there, and endpoints sitting on poles are +inf
    walls. A walk with no nonzero rate (A = 0, or A 1 = 0) is the constant n,
    minimal at x = 0. Any other walk needs a spectrum of both signs: with one
    sign the interval is a pole or empty, and ValueError is raised. `data`
    needs only `walk`, `n`, `lam_min` and `lam_max`.
    """
    if not any(data.walk.rates):
        return IntervalMin(0.0, float(data.n), False, 0.0)
    if data.lam_min >= 0.0 or data.lam_max <= 0.0:
        raise ValueError(
            f"spectrum [{data.lam_min!r}, {data.lam_max!r}] has one sign: W has no interval minimum"
        )
    lo = 1.0 / data.lam_min
    hi = min(hi, 1.0 / data.lam_max)
    if lo > hi:
        raise ValueError(f"empty interval [{lo}, {hi}]")
    return data.walk.minimize(lo, hi)
