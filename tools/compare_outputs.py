"""Byte-compare walktheta CLI outputs of two source trees on the standard workloads.

Usage: python3 tools/compare_outputs.py PARENT_SRC [CHANGE_SRC]

Each path is a source tree root holding src/walktheta and perfbench/;
CHANGE_SRC defaults to this script's tree. PARENT_SRC's walktheta and
perfbench/inputs.py write the input files, which both trees only read. Cases
run with OPENBLAS_NUM_THREADS=1 and print `identical`, or the count of
differing lines and, for every numeric JSON key path or CSV column whose value
differs on some line, the largest relative difference there; a JSON null
against a number counts as inf. Exits 0 only when every case is identical.
"""

import json
import math
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

WRITE_INPUTS = """import pathlib, sys, inputs
import numpy as np
for s in (1, 2, 13):
    inputs.write_lines(pathlib.Path(sys.argv[1], f"bounds{s}.g6"), inputs.bounds_corpus(s)[0])
for s in (1, 2):
    lines = [inputs.encode_graph6(g).decode("ascii") for g in inputs.theta_mix(s)]
    inputs.write_lines(pathlib.Path(sys.argv[1], f"theta{s}.g6"), lines)
long_form = [inputs.generate_named("kneser", n=12, k=2), inputs.gnp(np.random.default_rng(5), 70, .3)]
inputs.write_lines(pathlib.Path(sys.argv[1], "long.g6"),
                   [inputs.encode_graph6(g).decode("ascii") for g in long_form])
import networkx as nx
atlas = [inputs.Graph(h.number_of_nodes(), h.edges()) for h in nx.graph_atlas_g()[1:]]
inputs.write_lines(pathlib.Path(sys.argv[1], "atlas.g6"), [inputs.encode_graph6(g).decode("ascii") for g in atlas])
corpus = inputs.bounds_corpus(1)[0]
inputs.write_lines(pathlib.Path(sys.argv[1], "bad-line.g6"), corpus[:262] + [corpus[262][:len(corpus[262]) // 2]])
from walktheta import strong_product
named, rng = inputs.generate_named, np.random.default_rng(35)
def multipartite(*parts):
    part = [p for p, size in enumerate(parts) for _ in range(size)]
    return inputs.Graph(len(part), [(i, j) for j in range(len(part)) for i in range(j) if part[i] != part[j]])
clusters = [named("complete", n=n) for n in (3, 8, 9, 12, 20, 31)]
clusters += [named("kneser", n=n, k=k) for n, k in ((7, 2), (8, 2), (9, 2), (8, 3), (6, 2), (9, 3))]
clusters += [named("petersen"), strong_product(named("cycle", n=5), named("cycle", n=5)),
             strong_product(named("petersen"), named("complete", n=2))]
clusters += [multipartite(6, 6), multipartite(10, 10), multipartite(5, 5, 5)]
clusters += [inputs.circulant(rng, int(rng.integers(5, 41))) for _ in range(30)]
clusters += [inputs.Graph(24, [(i, i + 1) for i in range(0, 24, 2)])]
petersens = [(i + 10 * c, j + 10 * c) for c in range(9) for i, j in named("petersen").edges]
clusters += [inputs.Graph(90, petersens)]
inputs.write_lines(pathlib.Path(sys.argv[1], "clusters.g6"), [inputs.encode_graph6(g).decode("ascii") for g in clusters])
golomb = inputs.generate_named("golomb")
inputs.write_lines(pathlib.Path(sys.argv[1], "golomb.txt"),
                   [str(golomb.n), *(f"{i} {j}" for i, j in zip(golomb.rows.tolist(), golomb.cols.tolist()))])
"""
NUMBER = re.compile(r"[-+]?(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?")
CASES = [[f"bounds{s}", "bounds", f"bounds{s}.g6"] for s in (1, 2, 13)]
CASES += [["bounds-long", "bounds", "long.g6"]]    # graph6 long form: Kneser(12,2), n = 66, and G(70, .3)
CASES += [["bounds-edges", "bounds", "golomb.txt"],    # the edge-list reader
          ["bounds-edgeless", "bounds", "--named", "empty", "--n", "4", "--alpha-oracle"],
          # the 1,252 graphs on 1-7 vertices: many orders, edgeless graphs, chunk boundaries
          ["bounds-atlas", "bounds", "atlas.g6"],
          # repeated eigenvalues: K_n, Kneser graphs, strong products, complete multipartite graphs,
          # circulants, a matching and 9 disjoint Petersen graphs (a kept 9-member top cluster), with
          # clusters of up to 48 members (Kneser(9,3))
          ["bounds-clusters", "bounds", "clusters.g6"],
          # 262 lines, then a truncated one: exit 2 after the 262 reports; 262 = 256 + 6 = 4 * 64 + 6,
          # so the error follows a chunk boundary at bounds.CHUNK = 64 and at 256
          ["bounds-bad-line", "bounds", "bad-line.g6"],
          ["theta-edges", "theta", "golomb.txt", "--max-iter", "400"]]
CASES += [[f"theta{s}", "theta", f"theta{s}.g6", "--max-iter", "400"] for s in (1, 2)]
# seed 203 fails a scaling and an optimizer case (ROADMAP item 4): exit 1 on both sides
CASES += [[f"verify{s}", "verify", "all", "--random", "500", "--seed", str(s)] for s in (1, 2, 203)]
# single suites: scaling alone fails case 58 at seed 203, and dominance reads a graph file
CASES += [["verify-scaling203", "verify", "scaling", "--random", "100", "--seed", "203"],
          ["verify-dominance-file", "verify", "dominance", "bounds13.g6"]]
CASES += [["plot-p17", "plot", "--named", "path", "--n", "17"], ["plot-golomb", "plot", "--named", "golomb"],
          ["plot-golomb-window", "plot", "--named", "golomb", "--lo", "-0.6", "--hi", "0.3", "--samples", "500"],
          ["plot-empty", "plot", "--named", "empty", "--n", "3", "--samples", "5"],
          ["plot-p3-poles", "plot", "--named", "path", "--n", "3", "--lo", "-0.707106781187",
           "--hi", "0.707106781187", "--samples", "5"]]
CASES += [["bounds1-alpha", "bounds", "bounds1.g6", "--alpha-oracle"],
          ["theta1-alpha", "theta", "theta1.g6", "--max-iter", "400", "--alpha-oracle"],
          ["bounds-long-alpha", "bounds", "long.g6", "--alpha-oracle"]]    # alpha 11 and 14, past n = 62


def run(args: list, cwd: str, *pythonpath: Path) -> tuple:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(map(str, pythonpath)), OPENBLAS_NUM_THREADS="1")
    proc = subprocess.run([sys.executable, *args], cwd=cwd, env=env, capture_output=True)
    return proc.returncode, proc.stdout


def numbers(line: str) -> list:
    """(where, value) of the numeric and null fields of a JSON line (key path, depth first) or a CSV line."""
    def walk(v, path):
        if isinstance(v, dict):
            return [x for k, item in v.items() for x in walk(item, f"{path}.{k}" if path else k)]
        if isinstance(v, list):
            return [x for item in v for x in walk(item, path)]
        if v is None or type(v) in (int, float):     # a null keeps its place, so later fields stay paired
            return [(path or "value", None if v is None else float(v))]
        return []
    try:
        return walk(json.loads(line), "")
    except ValueError:
        return [(f"column {i}", float(f)) for i, f in enumerate(line.split(",")) if NUMBER.fullmatch(f)]


def compare(old: bytes, new: bytes) -> tuple:
    """(differing lines, {field: largest relative difference} over the paired numeric fields that differ)."""
    a, b = old.decode().splitlines(), new.decode().splitlines()
    differ, worst = abs(len(a) - len(b)), {}
    for x, y in zip(a, b):
        if x != y:
            differ += 1
            for (field, u), (_, v) in zip(numbers(x), numbers(y)):
                if u != v:
                    rel = math.inf if u is None or v is None else abs(u - v) / max(abs(u), abs(v), 1e-300)
                    worst[field] = max(worst.get(field, 0.0), rel)
    return differ, worst


def main(argv: list) -> int:
    if len(argv) not in (1, 2):
        sys.exit(__doc__.splitlines()[2])
    parent = Path(argv[0]).resolve()
    change = Path(argv[1]).resolve() if len(argv) == 2 else Path(__file__).resolve().parents[1]
    all_same = True
    with tempfile.TemporaryDirectory() as work:
        if run(["-c", WRITE_INPUTS, work], work, parent / "src", parent / "perfbench")[0] != 0:
            sys.exit("the parent tree failed to write the inputs")
        for name, *args in CASES:
            old = run(["-m", "walktheta.cli", *args], work, parent / "src")
            new = run(["-m", "walktheta.cli", *args], work, change / "src")
            if old == new:
                print(f"{name}: identical")
                continue
            all_same = False
            differ, worst = compare(old[1], new[1])
            fields = ", ".join(f"{field} {rel:.3g}" for field, rel in sorted(worst.items(), key=lambda i: -i[1]))
            print(f"{name}: {differ} lines differ, exit {old[0]} -> {new[0]};"
                  f" largest relative difference by field: {fields or 'none'}")
    return 0 if all_same else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
