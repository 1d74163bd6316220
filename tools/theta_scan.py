"""List the theta-mix instances whose printed theta bracket is not sound.

Usage: python3 tools/theta_scan.py START STOP

For each seed in range(START, STOP), writes the five theta-mix graphs of
`perfbench/inputs.py` (C5, Petersen, Kneser(7,2), G(30, .5), G(60, .5)) to a
graph6 file and runs `walktheta theta --max-iter 400` on it in process, with
the walktheta of this script's tree. It prints one line per instance whose
`upper` is below the independence number (networkx's maximum clique of the
complement) or whose `certified_lower` exceeds `upper`, then the counts and
how many instances converged. A tree without `certified_lower` is checked on
`upper` alone. Always exits 0: it counts, it does not gate.
"""

import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import inputs  # noqa: E402
import networkx as nx  # noqa: E402

from walktheta import cli  # noqa: E402

NAMES = ("C5", "petersen", "kneser7_2", "gnp30", "gnp60")


def theta_lines(lines: list, path: Path) -> list:
    """The parsed output lines of `theta --max-iter 400` on graph6 `lines`, written to `path`."""
    inputs.write_lines(path, lines)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        cli.main(["theta", str(path), "--max-iter", "400"])
    return [json.loads(line) for line in out.getvalue().splitlines()]


def main(argv: list) -> int:
    if len(argv) != 2:
        sys.exit(__doc__.splitlines()[2])
    start, stop = map(int, argv)
    instances = below_alpha = crossed = converged = 0
    with tempfile.TemporaryDirectory() as work:
        for seed in range(start, stop):
            lines = [inputs.encode_graph6(g).decode("ascii") for g in inputs.theta_mix(seed)]
            for name, line, r in zip(NAMES, lines, theta_lines(lines, Path(work, "theta.g6"))):
                alpha = nx.max_weight_clique(nx.complement(nx.from_graph6_bytes(line.encode())), weight=None)[1]
                lower = r.get("certified_lower", -float("inf"))
                instances += 1
                converged += r["converged"]
                below_alpha += r["upper"] < alpha
                crossed += lower > r["upper"]
                if r["upper"] < alpha or lower > r["upper"]:
                    print(f"seed {seed} {name}: upper {r['upper']!r}, certified_lower {lower!r}, alpha {alpha}",
                          flush=True)
    print(f"{instances} instances: {below_alpha} with upper below alpha, "
          f"{crossed} with certified_lower above upper, {converged} converged")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
