"""Shared fixtures: a graph corpus, random generators, and a plain alpha oracle."""

from __future__ import annotations

import numpy as np
import pytest

from walktheta import spectral
from walktheta.corpus import fixture_graphs, random_graph  # noqa: F401 (re-exported)
from walktheta.corpus import random_weighted as random_weighted_matrix  # noqa: F401
from walktheta.graphs import Graph, generate_named


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


@pytest.fixture(scope="session")
def corpus():
    return build_corpus()


def _record_matrices(monkeypatch, name: str) -> list:
    calls = []
    real = getattr(spectral, name)

    def recording(m):
        calls.append(np.asarray(m, dtype=float))
        return real(m)

    monkeypatch.setattr(spectral, name, recording)
    return calls


@pytest.fixture
def eig_calls(monkeypatch) -> list:
    """Every matrix passed to `spectral.eig_sym` during the test, in call order."""
    return _record_matrices(monkeypatch, "eig_sym")


@pytest.fixture
def eigh_checked_calls(monkeypatch) -> list:
    """Every matrix passed to `spectral.eigh_checked` (eig_sym's included), in call order."""
    return _record_matrices(monkeypatch, "eigh_checked")


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
