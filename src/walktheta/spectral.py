"""Dense symmetric eigendecomposition and the walk-generating function W_A(x) = <1, (I - xA)^-1 1>."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .reciprocal import IntervalMin, ReciprocalSum

__all__ = [
    "SpectralData", "eigh_checked", "check_eigenpairs", "lambda_max_upper", "lambda_max_bracketed", "eig_sym",
    "cluster_weights", "merge_terms", "extreme_eigenspace", "walk_minimum", "walk_minima",
]

# Relative tolerances: eigensolver residual, eigenvalue clustering, the
# threshold below which a cluster's all-ones weight counts as exactly zero,
# and, per dimension, the one below which its eigenvalue does (eigh's rounding).
TOL_EIG = 1e-10
TOL_CLUSTER = 1e-7
TOL_WEIGHT = 1e-9
TOL_ZERO = float(np.finfo(float).eps)
# walk_minima's halvings: a graph with edges has lam_min <= -1, so [1/lam_min, 0] is at most 1 wide, and
# 64 halvings leave it at most 2^-64 wide, below the spacing of doubles at any |x| >= 2^-11
HALVINGS = 64


@dataclass(frozen=True)
class SpectralData:
    """Eigenvalues (ascending), orthonormal eigenvector columns and walk-generating function.

    `walk`, computed on construction by `cluster_weights`, has one term per
    eigenvalue cluster: its rate is the cluster's representative eigenvalue,
    its weight the summed squared overlap of the all-ones vector with the
    cluster's eigenvectors. Clusters whose weight vanishes numerically are
    dropped, so the surviving weights are strictly positive and sum to n up
    to roundoff.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
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
    """Eigenvalues (ascending) and eigenvector columns of an exactly symmetric matrix, or of a stack of them.

    m has shape (..., n, n); one `np.linalg.eigh` call decomposes every
    matrix of a stack, as it would each one alone. Raises ValueError for a
    non-square or non-symmetric input and LinAlgError when the eigenpairs fail
    `check_eigenpairs`.
    """
    m = _symmetric(m)
    vals, vecs = np.linalg.eigh(m)
    check_eigenpairs(m, vals, vecs)
    return vals, vecs


def check_eigenpairs(m: np.ndarray, vals: np.ndarray, vecs: np.ndarray) -> None:
    """LinAlgError unless max|m vecs - vecs diag(vals)| <= 100 TOL_EIG ||m||_F n, for each matrix of a stack."""
    scale = _frobenius(m)
    resid = m @ vecs
    resid -= vecs * vals[..., None, :]
    resid = np.abs(resid, out=resid).max(axis=(-2, -1), initial=0.0)
    failed = (scale > 0) & (resid > _eig_tol(scale, m.shape[-1]))
    if failed.any():
        k = failed.argmax()
        raise np.linalg.LinAlgError(
            f"eigendecomposition residual {resid.flat[k]:.3e} exceeds tolerance at scale {scale.flat[k]:.3e}"
        )


def _frobenius(m: np.ndarray):
    """||m||_F of each matrix of a stack m (..., n, n)."""
    return np.sqrt(np.einsum("...ij,...ij->...", m, m))


def _eig_tol(scale, n: int):
    """Absolute eigensolver tolerance for an n x n matrix of Frobenius norm `scale` (a float or an array)."""
    return 100 * TOL_EIG * scale * n


def _symmetric(m) -> np.ndarray:
    """m as a float array of shape (..., n, n); ValueError unless each matrix equals its transpose exactly."""
    m = np.asarray(m, dtype=float)
    if m.ndim < 2 or m.shape[-1] != m.shape[-2]:
        raise ValueError(f"expected a square matrix or a stack of them, got shape {m.shape}")
    if not np.array_equal(m, m.swapaxes(-1, -2)):
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


def lambda_max_bracketed(m: np.ndarray):
    """eigvalsh's lambda_max of a nonzero, exactly symmetric m, checked by two Rump-shifted Cholesky tries.

    With tol = 100 TOL_EIG ||m||_F n, the tolerance of `check_eigenpairs`, (lam + tol)I - m must factor,
    which proves lambda_max < lam + tol, and (lam - tol)I - m must not, as factoring would prove lam
    too high. Raises LinAlgError naming the failed end of the bracket. A stack of shape (..., n, n) is
    read by one `np.linalg.eigvalsh` call and bracketed matrix by matrix; it gives an array of shape
    (...), a single matrix a float.
    """
    m = _symmetric(m)
    lam = np.linalg.eigvalsh(m)[..., -1]
    tol = _eig_tol(_frobenius(m), m.shape[-1])
    for mk, lk, tk in zip(m.reshape(-1, *m.shape[-2:]), lam.ravel().tolist(), tol.ravel().tolist()):
        if not _factors_above(mk, lk + tk):
            raise np.linalg.LinAlgError(
                f"eigvalsh's lambda_max {lk!r} fails its bracket's upper end: ({lk!r} + {tk:.3e})I - m does not factor"
            )
        if _factors_above(mk, lk - tk):
            raise np.linalg.LinAlgError(
                f"eigvalsh's lambda_max {lk!r} fails its bracket's lower end: ({lk!r} - {tk:.3e})I - m factors"
            )
    return lam if m.ndim > 2 else float(lam)


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


def walk_minima(vals: np.ndarray, overlaps: np.ndarray, sizes) -> tuple:
    """Each walk's minimum on [1/lam_min, 0] and its top term, for k graph adjacencies with edges.

    Row i of the (k, N) stacks holds ascending eigenvalues (`vals`) and squared all-ones overlaps in its first
    sizes[i] columns (an int array) and zeros after; ValueError names the first row whose spectrum is not of
    both signs. Each walk, of `_walk_terms`' terms, is convex there, and a bisection on the sign of W' ends at
    x with W'(x) >= 0. Returns arrays of x, W(x) and the rate and weight of the top (last kept) term. Every
    sum adds left to right, so a row's values do not depend on the rows or padding beside it.
    """
    rows = np.arange(len(sizes))
    lam_min, lam_max = vals[:, 0], vals[rows, sizes - 1]
    one_sign = (lam_min >= 0.0) | (lam_max <= 0.0)
    if one_sign.any():
        i = one_sign.argmax()
        raise ValueError(
            f"spectrum [{float(lam_min[i])!r}, {float(lam_max[i])!r}] has one sign: W has no interval minimum"
        )
    rates, weights = _walk_terms(vals, overlaps, sizes)
    slopes = weights * rates
    a, b = 1.0 / lam_min, np.zeros(len(sizes))
    for _ in range(HALVINGS):
        x = 0.5 * (a + b)
        q = 1.0 - rates * x[:, None]
        rising = _row_sums(slopes / (q * q)) >= 0.0
        a, b = np.where(rising, a, x), np.where(rising, x, b)
    value = _row_sums(weights / (1.0 - rates * b[:, None]))
    top = vals.shape[1] - 1 - np.argmax(weights[:, ::-1] > 0.0, axis=1)
    return b, value, rates[rows, top], weights[rows, top]


def _walk_terms(vals: np.ndarray, overlaps: np.ndarray, sizes: np.ndarray) -> tuple:
    """`merge_terms` of each row of `walk_minima`'s stacks, in place: (rates, weights), each (k, N).

    A cluster's term sits in its first column. Its other members, dropped terms and the padding
    become rate 0 and weight 0, so the kept (positive-weight) terms, left to right, are merge_terms'.
    """
    scale = np.array([max(1.0, float(np.linalg.norm(v[:n]))) for v, n in zip(vals, sizes.tolist())])
    start = np.arange(vals.shape[1]) >= sizes[:, None]      # each padded column is a term of its own
    start[:, 0] = True
    start[:, 1:] |= np.diff(vals, axis=1) > (TOL_CLUSTER * scale)[:, None]
    rates, weights = np.where(start, vals, 0.0), np.where(start, overlaps, 0.0)
    for i, j in np.argwhere(start[:, :-1] & ~start[:, 1:]).tolist():    # clusters of several members
        stop = j + 1 + int(np.argmax(np.append(start[i, j + 1:], True)))
        weights[i, j] = float(np.sum(overlaps[i, j:stop]))     # the calls and slices of merge_terms
        rates[i, j] = float(np.mean(vals[i, j:stop]))
    keep = weights > (TOL_WEIGHT * sizes)[:, None]
    rates = np.where(keep & ~(np.abs(rates) <= (TOL_ZERO * sizes * scale)[:, None]), rates, 0.0)
    return rates, np.where(keep, weights, 0.0)


def _row_sums(m: np.ndarray) -> np.ndarray:
    """Each row's sum, added left to right."""
    return np.cumsum(m, axis=-1)[..., -1]

