import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import cluster_graphs, laplacian, walk_stacks
from walktheta import spectral
from walktheta.graphs import adjacency, generate_named, parse_graph6
from walktheta.spectral import check_eigenpairs, eig_sym, eigh_checked

# bounds-corpus reference line 44 (perfbench/reference/bounds_oracle.json): its
# adjacency has an interior eigenvalue cluster whose all-ones weight is dropped
DROPPED_INTERIOR_G6 = (
    r"`|~~~l~n~s~e~]^}^ivn}z~~~|}zn~v}^mnz~~~^~}}zzx~v~t}s\eVn~|z~~~v~~n~z~nm}~~^ynzz~Z}^}~}~]x"
)


def loop_cluster_weights(data, drop=True) -> tuple:
    """Per-index cluster loop, each cluster's members added left to right: the oracle for cluster_weights.

    A cluster's rate is its summed eigenvalues over its member count; one within TOL_ZERO * n * scale of 0
    is snapped to 0.0.
    """
    vals = data.eigenvalues.tolist()
    n = len(vals)
    if n == 0:
        return ()
    scale = max(1.0, float(np.linalg.norm(vals)))
    tol_cluster = spectral.TOL_CLUSTER * scale
    tol_weight = spectral.TOL_WEIGHT * n if drop else -math.inf
    overlaps = ((np.ones(n) @ data.eigenvectors) ** 2).tolist()
    clusters = []
    start = 0
    for i in range(1, n + 1):
        if i == n or vals[i] - vals[i - 1] > tol_cluster:
            weight, total = overlaps[start], vals[start]
            for j in range(start + 1, i):
                weight += overlaps[j]
                total += vals[j]
            rep = total / (i - start)
            if weight > tol_weight:
                clusters.append((0.0 if abs(rep) <= spectral.TOL_ZERO * n * scale else rep, weight))
            start = i
    return tuple(clusters)


def rate_weight_pairs(data) -> tuple:
    """(rate, weight) per term of `data.walk`, ascending: one pair per kept cluster."""
    return tuple(zip(data.walk.rates, data.walk.weights))


def stacked_rate_weight_pairs(datas, width=None) -> list:
    """(rate, weight) of the kept terms of each row of `walk_minima`'s stacks of `datas`, padded to width."""
    rates, weights = spectral._walk_terms(*walk_stacks(datas, width))
    return [tuple(zip(r[w > 0.0].tolist(), w[w > 0.0].tolist())) for r, w in zip(rates, weights)]


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(
    spectrum=st.lists(st.tuples(st.integers(-4, 4), st.integers(1, 4)), min_size=1, max_size=5),
    jitter=st.sampled_from([0.0, 1e-7, 1e-6]),
    ones_eigenvector=st.booleans(),
    seed=st.integers(0, 2 ** 32 - 1),
)
def test_cluster_weights_equals_loop_on_repeated_eigenvalues(spectrum, jitter, ones_eigenvector, seed):
    # jitter splits repeated eigenvalues by gaps near the clustering tolerance
    rng = np.random.default_rng(seed)
    vals = np.repeat([float(v) for v, _ in spectrum], [k for _, k in spectrum])
    n = len(vals)
    vals = vals + jitter * rng.normal(size=n)
    basis = rng.normal(size=(n, n))
    if ones_eigenvector:
        basis[:, 0] = 1.0       # every other eigenvector is orthogonal to 1: clusters drop
    q, _ = np.linalg.qr(basis)
    m = (q * vals) @ q.T
    data = eig_sym(m + m.T)     # exactly symmetric, multiplicities kept
    assert rate_weight_pairs(data) == loop_cluster_weights(data)
    assert stacked_rate_weight_pairs([data], width=n + 3) == [loop_cluster_weights(data)]


def test_stacked_walk_terms_equal_loop_on_cluster_graphs():
    # multi-member kept clusters: the top ones of disconnected regular graphs, the zero ones of their Laplacians
    datas = [eig_sym(m) for g in cluster_graphs() for m in (adjacency(g), laplacian(g))]
    assert stacked_rate_weight_pairs(datas) == [loop_cluster_weights(data) for data in datas]


@pytest.mark.parametrize("g", [
    generate_named("petersen"),
    generate_named("kneser", n=7, k=2),
    *(generate_named("complete", n=n) for n in (1, 2, 5, 9)),
    *(generate_named("cycle", n=n) for n in (3, 5, 8, 12)),
    generate_named("empty", n=4),
    parse_graph6(DROPPED_INTERIOR_G6),
], ids=lambda g: f"n{g.n}m{g.num_edges}")
def test_cluster_weights_equals_loop_on_graphs(g):
    for m in (adjacency(g), laplacian(g)):
        data = eig_sym(m)
        assert rate_weight_pairs(data) == loop_cluster_weights(data)


def test_dropped_interior_cluster_fixture():
    data = eig_sym(adjacency(parse_graph6(DROPPED_INTERIOR_G6)))
    reps = [rep for rep, _ in loop_cluster_weights(data, drop=False)]
    kept = [rep for rep, _ in rate_weight_pairs(data)]
    dropped = [rep for rep in reps if rep not in kept]
    assert dropped and all(reps[0] < rep < reps[-1] for rep in dropped)


def test_zero_matrix():
    data = eig_sym(np.zeros((3, 3)))
    assert list(data.eigenvalues) == [0.0] * 3
    assert rate_weight_pairs(data) == ((0.0, pytest.approx(3.0)),)


def test_zero_eigenvalue_snaps_to_zero_rate():
    """Within TOL_ZERO * n * scale of 0 a representative is 0.0 exactly; beyond, it is kept."""
    path = eig_sym(adjacency(generate_named("path", n=5)))
    assert abs(path.eigenvalues[2]) < 1e-15                 # float noise from eigh, or 0
    assert [rep for rep, _ in rate_weight_pairs(path)][1] == 0.0
    tol = spectral.TOL_ZERO * 3 * math.sqrt(2.0)            # n = 3, norm of the spectrum (-1, ~0, 1)
    for eps, rep in ((0.9 * tol, 0.0), (1.1 * tol, 1.1 * tol), (-2.5e-12, -2.5e-12)):
        data = eig_sym(np.diag([-1.0, eps, 1.0]))
        assert rate_weight_pairs(data)[1] == (pytest.approx(rep, rel=1e-12, abs=0.0), 1.0)


def test_k2_drops_zero_weight_cluster():
    data = eig_sym(adjacency(generate_named("complete", n=2)))
    assert data.eigenvalues == pytest.approx([-1.0, 1.0])
    # the -1 eigenvector is orthogonal to the all-ones vector
    assert len(rate_weight_pairs(data)) == 1
    rep, weight = rate_weight_pairs(data)[0]
    assert rep == pytest.approx(1.0)
    assert weight == pytest.approx(2.0)


def test_c5_circulant_eigenvalues():
    data = eig_sym(adjacency(generate_named("cycle", n=5)))
    expected = sorted(2.0 * math.cos(2.0 * math.pi * k / 5.0) for k in range(5))
    assert data.eigenvalues == pytest.approx(expected)
    assert rate_weight_pairs(data) == ((pytest.approx(2.0), pytest.approx(5.0)),)


@pytest.mark.parametrize("name,kwargs,k", [
    ("cycle", {"n": 6}, 2),
    ("cycle", {"n": 7}, 2),
    ("complete", {"n": 5}, 4),
    ("petersen", {}, 3),
])
def test_regular_graphs_have_single_cluster(name, kwargs, k):
    g = generate_named(name, **kwargs)
    data = eig_sym(adjacency(g))
    assert len(rate_weight_pairs(data)) == 1
    rep, weight = rate_weight_pairs(data)[0]
    assert rep == pytest.approx(k)
    assert weight == pytest.approx(g.n)


def test_weights_sum_to_n_on_random_matrices():
    rng = np.random.default_rng(11)
    for _ in range(40):
        n = int(rng.integers(2, 15))
        m = rng.normal(size=(n, n))
        m = m + m.T
        data = eig_sym(m)
        total = sum(w for _, w in rate_weight_pairs(data))
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


def test_eigh_checked_returns_the_pair_eig_sym_keeps():
    m = adjacency(generate_named("golomb"))
    vals, vecs = eigh_checked(m)
    data = eig_sym(m)
    assert check_eigenpairs(m, vals, vecs) is None
    assert np.array_equal(vals, data.eigenvalues) and np.array_equal(vecs, data.eigenvectors)


@pytest.mark.parametrize("top", [True, False])
def test_extreme_eigenspace_is_the_band_at_its_end(corpus, top):
    """The columns within TOL_CLUSTER * max(1, |vals|) of the extreme, as a distance mask finds them."""
    rng = np.random.default_rng(5)
    matrices = [adjacency(g) for _, g in corpus if g.n]
    matrices.append(np.ones((10, 10)) - 2.0 * adjacency(generate_named("petersen")))   # top multiplicity 5
    for _ in range(20):
        q, _ = np.linalg.qr(rng.standard_normal((8, 8)))
        vals = np.repeat(rng.standard_normal(4), 2) + rng.uniform(-1e-8, 1e-8, size=8)
        matrices.append((q * vals) @ q.T)
    for m in matrices:
        vals = eigh_checked((m + m.T) / 2)[0]
        tol = spectral.TOL_CLUSTER * max(1.0, float(np.linalg.norm(vals)))
        end = vals[-1] if top else vals[0]
        cols = spectral.extreme_eigenspace(vals, top)
        assert np.array_equal(np.arange(len(vals))[cols], np.flatnonzero(np.abs(vals - end) <= tol))


def test_empty_matrix():
    data = eig_sym(np.zeros((0, 0)))
    assert data.n == 0 and rate_weight_pairs(data) == ()


# --- the certified upper bound on lambda_max ---

def exactly_positive_definite(m) -> bool:
    """Exact LDL^T without pivoting over Fractions: a symmetric matrix is positive definite iff every pivot is > 0."""
    a = [[Fraction(x) for x in row] for row in m]
    n = len(a)
    for k in range(n):
        if a[k][k] <= 0:
            return False
        for i in range(k + 1, n):
            f = a[i][k] / a[k][k]
            for j in range(k + 1, n):
                a[i][j] -= f * a[k][j]
    return True


@st.composite
def dyadic_symmetric(draw):
    """n <= 8, entries k / 256 in [-4, 4], exactly representable, so uI - m is exact in Fractions."""
    n = draw(st.integers(1, 8))
    entries = draw(st.lists(st.integers(-1024, 1024), min_size=n * n, max_size=n * n))
    m = np.array(entries, dtype=float).reshape(n, n) / 256.0
    return np.triu(m) + np.triu(m, 1).T


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(m=dyadic_symmetric())
def test_lambda_max_upper_is_proved_by_exact_ldlt(m):
    u = spectral.lambda_max_upper(m)
    lam = float(np.linalg.eigvalsh(m)[-1])
    assert exactly_positive_definite([[Fraction(u) * (i == j) - Fraction(x) for j, x in enumerate(row)]
                                      for i, row in enumerate(m.tolist())])
    assert lam < u <= lam + 1e-11 * max(1.0, abs(lam))


def test_lambda_max_upper_is_tight_on_theta_matrices():
    """J - A(w) at unit weights of graphs up to n = 60, the scale of the theta solver's certificates."""
    rng = np.random.default_rng(3)
    for n in (5, 20, 60):
        iu, ju = np.triu_indices(n, 1)
        keep = rng.random(len(iu)) < 0.5
        a = np.zeros((n, n))
        a[iu[keep], ju[keep]] = a[ju[keep], iu[keep]] = rng.uniform(0.5, 3.0, size=int(keep.sum()))
        m = np.ones((n, n)) - a
        lam = float(np.linalg.eigvalsh(m)[-1])
        assert lam < spectral.lambda_max_upper(m) <= lam + 1e-11 * max(1.0, abs(lam))


def test_lambda_max_upper_raises_when_no_cholesky_succeeds(monkeypatch):
    def never(m):
        raise np.linalg.LinAlgError("Matrix is not positive definite")

    monkeypatch.setattr(np.linalg, "cholesky", never)
    with pytest.raises(np.linalg.LinAlgError, match="no certified upper bound"):
        spectral.lambda_max_upper(np.eye(3))


def test_lambda_max_upper_rejects_asymmetric_input():
    with pytest.raises(ValueError, match="symmetric"):
        spectral.lambda_max_upper(np.array([[0.0, 1.0], [0.0, 0.0]]))
