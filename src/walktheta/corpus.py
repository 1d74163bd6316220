"""Fixture graphs and seeded random graphs, weighted matrices and reciprocal sums for `verify` and the tests."""

from __future__ import annotations

import numpy as np

from .graphs import Graph, generate_named, parse_edge_list
from .reciprocal import ReciprocalSum

__all__ = ["fixture_graphs", "random_graph", "random_weighted", "random_instance"]


def fixture_graphs() -> list:
    """(name, graph) pairs covering regular, irregular, and edgeless cases."""
    return [
        ("K1", generate_named("empty", n=1)),
        ("empty3", generate_named("empty", n=3)),
        ("empty6", generate_named("empty", n=6)),
        ("K2", generate_named("complete", n=2)),
        ("K4", generate_named("complete", n=4)),
        ("K6", generate_named("complete", n=6)),
        ("C5", generate_named("cycle", n=5)),
        ("C7", generate_named("cycle", n=7)),
        ("P2", generate_named("path", n=2)),
        ("P5", generate_named("path", n=5)),
        ("P17", generate_named("path", n=17)),
        ("petersen", generate_named("petersen")),
        ("golomb", generate_named("golomb")),
        ("star4", parse_edge_list("5 0 4 1 4 2 4 3 4")),
    ]


def random_graph(rng: np.random.Generator, n_max: int = 12, allow_isolated: bool = True) -> Graph:
    """G(n, p) with n in [1, n_max] and p in [0.05, 0.9); 30% gain an isolated vertex."""
    n = int(rng.integers(1, n_max + 1))
    p = float(rng.uniform(0.05, 0.9))
    edges = {(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p}
    g = Graph(n, frozenset(edges))
    if allow_isolated and rng.random() < 0.3:
        g = g.add_isolated_vertex()
    return g


def random_weighted(rng: np.random.Generator) -> np.ndarray:
    """Random nonzero symmetric zero-diagonal matrix of order 3 to 10, supported on a random graph."""
    while True:
        n = int(rng.integers(3, 11))
        p = float(rng.uniform(0.2, 0.9))
        edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p]
        if edges:
            break
    a = np.zeros((n, n))
    for i, j in edges:
        w = float(rng.uniform(0.2, 2.0)) * (1.0 if rng.random() < 0.5 else -1.0)
        a[i, j] = a[j, i] = w
    return a


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
