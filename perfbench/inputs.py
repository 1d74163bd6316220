"""Seeded inputs for the benchmark workloads, written as graph6 files the CLI reads.

Only the public `walktheta` API is used (`Graph`, `encode_graph6`,
`generate_named`), so the generators do not depend on how the package builds
its own test fixtures. The same seed always gives byte-identical files.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
from walktheta import Graph, encode_graph6, generate_named

HERE = Path(__file__).resolve().parent
ORACLE_FILE = HERE / "reference" / "bounds_oracle.json"

CORPUS_SIZE = 1000
CIRCULANT_SHARE = 0.05      # regular graphs, so hoffman_regular and the closed form run
N_RANGE = (20, 40)          # half-open, as in ROADMAP aim 1
P_RANGE = (0.1, 0.9)

# theta of the named theta-mix instances (Lovasz 1979)
THETA_KNOWN = {"C5": 5 ** 0.5, "petersen": 4.0, "kneser7_2": 6.0}


def gnp(rng: np.random.Generator, n: int, p: float) -> Graph:
    iu, ju = np.triu_indices(n, 1)
    keep = rng.random(len(iu)) < p
    return Graph(n, frozenset(zip(iu[keep].tolist(), ju[keep].tolist())))


def circulant(rng: np.random.Generator, n: int) -> Graph:
    """Cayley graph of Z_n with a random nonempty connection set."""
    jumps = [s for s in range(1, n // 2 + 1) if rng.random() < 0.5] or [1]
    return Graph(n, frozenset((i, (i + s) % n) for i in range(n) for s in jumps))


def random_corpus(rng: np.random.Generator, count: int) -> list:
    circulants = round(CIRCULANT_SHARE * count)
    graphs = []
    for k in range(count):
        n = int(rng.integers(*N_RANGE))
        if k < circulants:
            graphs.append(circulant(rng, n))
        else:
            graphs.append(gnp(rng, n, float(rng.uniform(*P_RANGE))))
    return graphs


def load_oracle() -> list:
    """Reference reports recorded at the seed commit, one per fixed graph."""
    with open(ORACLE_FILE) as fh:
        return json.load(fh)["graphs"]


def bounds_corpus(seed: int) -> tuple:
    """(graph6 lines, number of leading lines that carry a frozen reference).

    The fixed reference block comes first, then seeded G(n, p) graphs and
    circulants up to CORPUS_SIZE lines in all.
    """
    fixed = [entry["g6"] for entry in load_oracle()]
    rng = np.random.default_rng(seed)
    seeded = random_corpus(rng, CORPUS_SIZE - len(fixed))
    return fixed + [encode_graph6(g).decode("ascii") for g in seeded], len(fixed)


def theta_mix(seed: int) -> list:
    """C5, Petersen, Kneser(7,2), then seeded G(30, .5) and G(60, .5)."""
    rng = np.random.default_rng(seed)
    return [
        generate_named("cycle", n=5),
        generate_named("petersen"),
        generate_named("kneser", n=7, k=2),
        gnp(rng, 30, 0.5),
        gnp(rng, 60, 0.5),
    ]


def write_lines(path: Path, lines: list) -> None:
    path.write_text("".join(line + "\n" for line in lines), encoding="ascii")
