"""Count the printed bounds that fall below the exact independence number.

Usage: python3 tools/alpha_scan.py [SEEDS...]

Runs `bounds.report` in process, with the walktheta of this script's tree, on
networkx's graph atlas (the 1,252 graphs on 1-7 vertices) and on the
`perfbench/inputs.py` bounds corpus of each seed given. For every corpus and
bound key (hoffman, walkgen, closed_form, laplacian) it prints how many
values lie below alpha (`independence_number`) and the worst relative gap
(alpha - value) / alpha. Every bound is an upper bound on alpha, so a nonzero
count is a value that is not sound. Always exits 0: it counts, it does not gate.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import inputs  # noqa: E402
import networkx as nx  # noqa: E402

from walktheta.bounds import report  # noqa: E402
from walktheta.graphs import Graph, parse_graph6  # noqa: E402
from walktheta.independent_set import independence_number  # noqa: E402

KEYS = ("hoffman", "walkgen", "closed_form", "laplacian")


def scan(graphs: list) -> dict:
    """Per bound key, (count of values below alpha, worst relative gap) over `graphs`."""
    below = {key: 0 for key in KEYS}
    worst = {key: 0.0 for key in KEYS}
    for g in graphs:
        alpha = independence_number(g)
        bounds = report(g).to_json_dict()["bounds"]
        bounds["closed_form"] = bounds["closed_form"]["value"]
        for key in KEYS:
            value = bounds[key]
            if value is not None and value < alpha:
                below[key] += 1
                worst[key] = max(worst[key], (alpha - value) / alpha)
    return {key: (below[key], worst[key]) for key in KEYS}


def main(argv: list) -> int:
    corpora = [("atlas", [Graph(h.number_of_nodes(), h.edges()) for h in nx.graph_atlas_g()[1:]])]
    for seed in map(int, argv):
        corpora.append((f"bounds-corpus seed {seed}", [parse_graph6(line) for line in inputs.bounds_corpus(seed)[0]]))
    print(f"{'corpus':<24} {'graphs':>6}  {'key':<12} {'below':>5}  worst relative gap")
    for name, graphs in corpora:
        for key, (count, gap) in scan(graphs).items():
            print(f"{name:<24} {len(graphs):>6}  {key:<12} {count:>5}  {gap:.3g}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
