"""Dense symmetric eigendecomposition and all-ones projection weights."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["SpectralData", "eigh_checked", "eig_sym", "cluster_weights"]

# Relative tolerances: eigensolver residual, eigenvalue clustering, and the
# threshold below which a cluster's all-ones weight counts as exactly zero.
TOL_EIG = 1e-10
TOL_CLUSTER = 1e-7
TOL_WEIGHT = 1e-9


@dataclass(frozen=True)
class SpectralData:
    """Eigenvalues (ascending), orthonormal eigenvector columns, weight clusters and norm.

    Each cluster is a pair (representative eigenvalue, summed squared overlap
    of the all-ones vector with the cluster's eigenvectors). Clusters whose
    weight vanishes numerically are dropped, so the surviving weights are
    strictly positive and sum to n up to roundoff. `norm` is the Frobenius
    norm of the decomposed matrix.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    clusters: tuple
    norm: float

    @property
    def n(self) -> int:
        return len(self.eigenvalues)

    @property
    def lam_min(self) -> float:
        return float(self.eigenvalues[0]) if self.n else 0.0

    @property
    def lam_max(self) -> float:
        return float(self.eigenvalues[-1]) if self.n else 0.0


def _check_symmetric(m: np.ndarray) -> np.ndarray:
    m = np.asarray(m, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    if m.size and not np.array_equal(m, m.T):
        raise ValueError("matrix is not exactly symmetric")
    return m


def eigh_checked(m: np.ndarray) -> tuple:
    """Eigenvalues (ascending) and eigenvector columns of an exactly symmetric matrix.

    Raises ValueError for a non-square or non-symmetric input and
    LinAlgError when the eigenpairs fail the residual check.
    """
    m = _check_symmetric(m)
    n = m.shape[0]
    if n == 0:
        return np.zeros(0), np.zeros((0, 0))
    vals, vecs = np.linalg.eigh(m)
    scale = float(np.linalg.norm(m))
    resid = float(np.max(np.abs(m @ vecs - vecs * vals)))
    if scale > 0 and resid > 100 * TOL_EIG * scale * n:
        raise np.linalg.LinAlgError(
            f"eigendecomposition residual {resid:.3e} exceeds tolerance at scale {scale:.3e}"
        )
    return vals, vecs


def eig_sym(m: np.ndarray) -> SpectralData:
    """Full eigendecomposition of a symmetric matrix, with weight clusters attached."""
    vals, vecs = eigh_checked(m)
    data = SpectralData(vals, vecs, (), float(np.linalg.norm(m)))
    object.__setattr__(data, "clusters", cluster_weights(data))
    return data


def cluster_weights(data: SpectralData) -> tuple:
    """Merge near-equal eigenvalues and sum the all-ones overlaps per cluster.

    Zero-weight clusters are dropped: the corresponding reciprocal poles are
    removable and must not appear downstream.
    """
    vals = data.eigenvalues
    n = len(vals)
    if n == 0:
        return ()
    tol_cluster = TOL_CLUSTER * max(1.0, float(np.linalg.norm(vals)))
    tol_weight = TOL_WEIGHT * n
    overlaps = (np.ones(n) @ data.eigenvectors) ** 2
    clusters = []
    start = 0
    for i in range(1, n + 1):
        if i == n or vals[i] - vals[i - 1] > tol_cluster:
            members = slice(start, i)
            weight = float(np.sum(overlaps[members]))
            rep = float(np.mean(vals[members]))
            if weight > tol_weight:
                clusters.append((rep, weight))
            start = i
    return tuple(clusters)
