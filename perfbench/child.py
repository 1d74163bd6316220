"""One `walktheta` CLI call in a fresh interpreter.

    python3 child.py TIMES_JSON TRACE_JSON|- [CLI ARGS...]

Writes the monotonic clock when `walktheta.cli` is imported and ready, and
again when `main` returns, to TIMES_JSON, with the process's peak resident
set (VmHWM; unlike ru_maxrss it does not count the parent's pages that the
process held before exec). With no CLI arguments it stops
after the import, which probes set-up alone. With TRACE_JSON other than `-`
the layer functions are wrapped and their spans are written there.
"""

import sys
import time


def main() -> int:
    times_path, trace_path, *cli_args = sys.argv[1:]
    import walktheta.cli

    ready = time.monotonic()
    times = {"ready": ready, "module": walktheta.cli.__file__}
    recorder = None
    if cli_args:
        if trace_path != "-":
            from tracing import Recorder

            recorder = Recorder()
            recorder.install()
        code = walktheta.cli.main(cli_args)
        times["done"] = time.monotonic()
        times["code"] = code
        sys.stdout.flush()
    if recorder is not None:
        recorder.dump(trace_path)
    import json

    with open("/proc/self/status") as fh:
        times["peak_rss_kb"] = next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:"))

    with open(times_path, "w") as fh:
        json.dump(times, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
