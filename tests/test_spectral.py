import math

import numpy as np
import pytest

from walktheta.graphs import adjacency, generate_named
from walktheta.spectral import eig_sym, eigh_checked


def test_zero_matrix():
    data = eig_sym(np.zeros((3, 3)))
    assert list(data.eigenvalues) == [0.0] * 3
    assert data.clusters == ((0.0, pytest.approx(3.0)),)


def test_k2_drops_zero_weight_cluster():
    data = eig_sym(adjacency(generate_named("complete", n=2)))
    assert data.eigenvalues == pytest.approx([-1.0, 1.0])
    # the -1 eigenvector is orthogonal to the all-ones vector
    assert len(data.clusters) == 1
    rep, weight = data.clusters[0]
    assert rep == pytest.approx(1.0)
    assert weight == pytest.approx(2.0)


def test_c5_circulant_eigenvalues():
    data = eig_sym(adjacency(generate_named("cycle", n=5)))
    expected = sorted(2.0 * math.cos(2.0 * math.pi * k / 5.0) for k in range(5))
    assert data.eigenvalues == pytest.approx(expected)
    assert data.clusters == ((pytest.approx(2.0), pytest.approx(5.0)),)


@pytest.mark.parametrize("name,kwargs,k", [
    ("cycle", {"n": 6}, 2),
    ("cycle", {"n": 7}, 2),
    ("complete", {"n": 5}, 4),
    ("petersen", {}, 3),
])
def test_regular_graphs_have_single_cluster(name, kwargs, k):
    g = generate_named(name, **kwargs)
    data = eig_sym(adjacency(g))
    assert len(data.clusters) == 1
    rep, weight = data.clusters[0]
    assert rep == pytest.approx(k)
    assert weight == pytest.approx(g.n)


def test_weights_sum_to_n_on_random_matrices():
    rng = np.random.default_rng(11)
    for _ in range(40):
        n = int(rng.integers(2, 15))
        m = rng.normal(size=(n, n))
        m = m + m.T
        data = eig_sym(m)
        total = sum(w for _, w in data.clusters)
        assert abs(total - n) <= 1e-9 * n


def test_reconstruction_and_orthonormality():
    rng = np.random.default_rng(7)
    m = rng.normal(size=(8, 8))
    m = m + m.T
    data = eig_sym(m)
    u, vals = data.eigenvectors, data.eigenvalues
    assert np.allclose(u @ np.diag(vals) @ u.T, m, atol=1e-10 * np.linalg.norm(m))
    assert np.allclose(u.T @ u, np.eye(8), atol=1e-12)


def test_mixed_sign_spectrum_for_nonzero_adjacency(corpus):
    for name, g in corpus:
        if not g.edges:
            continue
        data = eig_sym(adjacency(g))
        assert data.lam_min < 0 < data.lam_max, name


def test_rejects_asymmetric_input():
    for decompose in (eig_sym, eigh_checked):
        with pytest.raises(ValueError, match="symmetric"):
            decompose(np.array([[0.0, 1.0], [0.5, 0.0]]))


def test_empty_matrix():
    data = eig_sym(np.zeros((0, 0)))
    assert data.n == 0 and data.clusters == ()
