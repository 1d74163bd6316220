"""Record the bounds-corpus reference block from the current checkout.

The committed reference/bounds_oracle.json was written by this script at the
commit that introduced the benchmark; later commits must reproduce its
values to 1e-12 relative (ROADMAP aim 2). Rerun it only to re-anchor that
oracle deliberately:

    PYTHONPATH=src OPENBLAS_NUM_THREADS=1 python3 perfbench/record_oracle.py
"""

from __future__ import annotations

import json

import numpy as np
from walktheta import bounds, encode_graph6

from inputs import ORACLE_FILE, random_corpus

ORACLE_SEED = 20250127
ORACLE_SIZE = 100


def main() -> None:
    graphs = random_corpus(np.random.default_rng(ORACLE_SEED), ORACLE_SIZE)
    entries = [
        {"g6": encode_graph6(g).decode("ascii"), "report": bounds.report(g).to_json_dict()}
        for g in graphs
    ]
    ORACLE_FILE.parent.mkdir(exist_ok=True)
    rows = ",\n".join(json.dumps(e) for e in entries)
    ORACLE_FILE.write_text(f'{{"seed": {ORACLE_SEED}, "graphs": [\n{rows}\n]}}\n')


if __name__ == "__main__":
    main()
