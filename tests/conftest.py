"""Shared fixtures: a graph corpus, random generators, a Laplacian, and plain alpha and scaling oracles."""

from __future__ import annotations

import math

import numpy as np
import pytest

from walktheta import spectral
from walktheta.corpus import fixture_graphs, random_graph  # noqa: F401 (re-exported)
from walktheta.corpus import random_weighted as random_weighted_matrix  # noqa: F401
from walktheta.graphs import Graph, adjacency, generate_named, strong_product


def build_corpus() -> list:
    """The verify fixtures plus six graphs covering more regular and disconnected cases."""
    return fixture_graphs() + [
        ("K3", generate_named("complete", n=3)),
        ("C4", generate_named("cycle", n=4)),
        ("C6", generate_named("cycle", n=6)),
        ("P3", generate_named("path", n=3)),
        ("kneser62", generate_named("kneser", n=6, k=2)),
        ("P5+iso", generate_named("path", n=5).add_isolated_vertex()),
    ]


def cluster_graphs() -> list:
    """Graphs with repeated eigenvalues, the `bounds-clusters` case of tools/compare_outputs.py.

    K_n, six Kneser graphs (Kneser(9,3) has a 48-member cluster), Petersen, two strong products,
    K_{6,6}, K_{10,10}, K_{5,5,5}, 30 circulants (disconnected ones keep a multi-member top cluster)
    and a perfect matching on 24 vertices. The circulants are perfbench/inputs.py's rule.
    """
    def multipartite(*parts):
        part = [p for p, size in enumerate(parts) for _ in range(size)]
        return Graph(len(part), [(i, j) for j in range(len(part)) for i in range(j) if part[i] != part[j]])

    def circulant(n):
        jumps = [s for s in range(1, n // 2 + 1) if rng.random() < 0.5] or [1]
        return Graph(n, frozenset((i, (i + s) % n) for i in range(n) for s in jumps))

    rng = np.random.default_rng(35)
    graphs = [generate_named("complete", n=n) for n in (3, 8, 9, 12, 20, 31)]
    graphs += [generate_named("kneser", n=n, k=k) for n, k in ((7, 2), (8, 2), (9, 2), (8, 3), (6, 2), (9, 3))]
    c5, petersen = generate_named("cycle", n=5), generate_named("petersen")
    graphs += [petersen, strong_product(c5, c5), strong_product(petersen, generate_named("complete", n=2))]
    graphs += [multipartite(6, 6), multipartite(10, 10), multipartite(5, 5, 5)]
    graphs += [circulant(int(rng.integers(5, 41))) for _ in range(30)]
    return graphs + [Graph(24, [(i, i + 1) for i in range(0, 24, 2)])]


def walk_stacks(datas: list, width: int = None) -> tuple:
    """`spectral.walk_minima`'s (vals, overlaps, sizes) of decompositions, zero-padded to `width` columns."""
    sizes = np.array([d.n for d in datas])
    vals, overlaps = np.zeros((2, len(datas), width or sizes.max()))
    for i, d in enumerate(datas):
        vals[i, :d.n] = d.eigenvalues
        overlaps[i, :d.n] = (np.ones(d.n) @ d.eigenvectors) ** 2
    return vals, overlaps, sizes


@pytest.fixture(scope="session")
def corpus():
    return build_corpus()


def record_matrices(monkeypatch, module, name: str) -> list:
    """Every matrix passed to `module.name` from now on, copied, in call order."""
    calls = []
    real = getattr(module, name)

    def recording(m):
        calls.append(np.array(m, dtype=float))
        return real(m)

    monkeypatch.setattr(module, name, recording)
    return calls


@pytest.fixture
def eig_calls(monkeypatch) -> list:
    """Every matrix passed to `spectral.eig_sym` during the test, in call order."""
    return record_matrices(monkeypatch, spectral, "eig_sym")


@pytest.fixture
def eigh_checked_calls(monkeypatch) -> list:
    """Every matrix passed to `spectral.eigh_checked`, directly or by `eig_sym`, in call order."""
    return record_matrices(monkeypatch, spectral, "eigh_checked")


def laplacian(g: Graph) -> np.ndarray:
    """L = D - A from `adjacency` and `Graph.degrees`: the values of the L that `bounds.laplacian_bound` builds."""
    return np.diag(g.degrees()) - adjacency(g)


def plain_alpha(g: Graph) -> int:
    """Independence number by exhaustive subset enumeration (oracle, n <= ~20)."""
    adj = [0] * g.n
    for i, j in g.edges:
        adj[i] |= 1 << j
        adj[j] |= 1 << i
    best = 0
    for mask in range(1 << g.n):
        m = mask
        ok = True
        while m:
            b = m & -m
            if adj[b.bit_length() - 1] & mask:
                ok = False
                break
            m ^= b
        if ok:
            best = max(best, bin(mask).count("1"))
    return best


def reference_optimal_scaling(a: np.ndarray) -> tuple:
    """Minimize the convex map t -> lambda_max(J - t*a) by golden section + bisection.

    A direct search over t, independent of the walk-generating function
    (oracle for `theta.optimal_scaling`; about 530 eigvalsh calls).
    """
    a = np.asarray(a, dtype=float)
    n = a.shape[0]
    norm = float(np.linalg.norm(a))
    if norm <= 1e-12:
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
