"""List the seeds on which `walktheta verify all --random 500` fails.

Usage: python3 tools/verify_seed_scan.py START STOP

Runs the CLI in process for each seed in range(START, STOP), with the
walktheta of this script's tree, and prints one line per failing seed: the
seed, the exit code and its failing cases as suite:case. The last line is
the count of failing seeds. Always exits 0: it counts a known defect (the
dropped extreme cluster of ROADMAP item 4), it does not gate on it.
"""

import contextlib
import io
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from walktheta import cli  # noqa: E402


def failing_cases(seed: int) -> tuple:
    """(exit code, suite:case of each failed case) of one `verify all --random 500` run."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(["verify", "all", "--random", "500", "--seed", str(seed)])
    cases = [json.loads(line) for line in out.getvalue().splitlines()]
    return code, [f"{c['suite']}:{c['case']}" for c in cases if "suite" in c and not c["ok"]]


def main(argv: list) -> int:
    if len(argv) != 2:
        sys.exit(__doc__.splitlines()[2])
    start, stop = map(int, argv)
    failed = 0
    for seed in range(start, stop):
        code, cases = failing_cases(seed)
        if code != 0:
            failed += 1
            print(f"seed {seed}: exit {code}, {' '.join(cases)}", flush=True)
    print(f"{failed} of {max(0, stop - start)} seeds fail")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
