"""walktheta benchmark: drive the `walktheta` CLI on seeded workloads and check its outputs.

    python3 perfbench/run.py --workload bounds-corpus --seed 1 --seconds 30 --trace 0

Run from the repository root. Each CLI call is a fresh process importing
`walktheta` from `src/` with OPENBLAS_NUM_THREADS=1, in a closed loop: the
next call starts when the previous one has exited, until --seconds have
passed and at least MIN_CALLS calls (MIN_PAIRS traced pairs) were made.

With --trace 0 the last stdout line carries the end-to-end metrics named in
BENCHMARK.json; with --trace 1 each traced call is paired with an untraced
one on the same inputs, and it carries the per-layer metrics. The line
before it is a report with the environment, the metric names ROADMAP
uses, and the raw samples. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CHILD = HERE / "child.py"
WORK_PARENT = ROOT / ".perfbench-work"
THETA_INSTANCES = ("C5", "petersen", "kneser7_2", "gnp30", "gnp60")

BLAS_THREADS = "1"      # unpinned eigh on 26-30 vertices is bimodal (0.1 ms or 16 ms)
SETUP_PROBES = 5
MIN_CALLS = 3
MIN_PAIRS = 1
CALL_TIMEOUT_S = 150
THETA_MAX_ITER = 400    # fixes the iteration budget of the seeded theta instances
VERIFY_RANDOM = 500
# Seconds the speed task takes at the reference speed, about its median on
# the 2-vCPU Xeon VM the benchmark was written on.
SPEED_NOMINAL_S = 0.30


class Workload:
    """CLI arguments for one seeded input set, and how to check a call's output."""

    def __init__(self, name: str, seed: int, work: Path):
        import checks
        import inputs

        self.name = name
        if name == "bounds-corpus":
            lines, n_fixed = inputs.bounds_corpus(seed)
            path = work / "corpus.g6"
            inputs.write_lines(path, lines)
            self.argv = ["bounds", str(path)]
            self.facts = checks.bounds_facts(lines)
            oracle = inputs.load_oracle()[:n_fixed]
            self.ops = len(lines)
            self._check = lambda out, code: checks.check_bounds(out, self.facts, oracle)
        elif name == "theta-mix":
            lines = [inputs.encode_graph6(g).decode("ascii") for g in inputs.theta_mix(seed)]
            path = work / "theta.g6"
            inputs.write_lines(path, lines)
            self.argv = ["theta", str(path), "--max-iter", str(THETA_MAX_ITER)]
            self.facts = checks.theta_facts(lines)
            self.ops = len(lines)
            self._check = lambda out, code: checks.check_theta(
                out, self.facts, THETA_INSTANCES, inputs.THETA_KNOWN, THETA_MAX_ITER)
        elif name == "verify-all":
            self.argv = ["verify", "all", "--random", str(VERIFY_RANDOM), "--seed", str(seed)]
            self.facts = []
            r = VERIFY_RANDOM
            # duality, scaling, product, dominance (14 fixtures first), optimizer
            self.ops = r + min(r, 100) + 10 + max(r, 14) + 14 + min(r, 100)
            self._check = lambda out, code: checks.check_verify(out, code, self.ops)
        else:
            raise ValueError(f"unknown workload {name!r}")

    def check(self, call, first) -> list:
        """Verdict per op: the output checks, and the same line as the run's first call."""
        if not call.ok:
            return [False] * self.ops
        return [ok and k < len(call.lines) and k < len(first.lines) and call.lines[k] == first.lines[k]
                for k, ok in enumerate(self._check(call.lines, call.code))]


class Call:
    """Timings and output of one child process; `ok` is False if it crashed or timed out."""

    def __init__(self, work: Path, argv: list, trace_path=None):
        times_path = work / "times.json"
        out_path = work / "stdout.txt"
        times_path.unlink(missing_ok=True)
        cmd = [sys.executable, str(CHILD), str(times_path), str(trace_path or "-"), *argv]
        start = time.monotonic()
        with open(out_path, "wb") as out, open(work / "stderr.txt", "wb") as err:
            proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=child_env(), cwd=work)
            try:
                proc.wait(timeout=CALL_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
        self.stdout = out_path.read_bytes()
        self.lines = self.stdout.decode("ascii", errors="replace").splitlines()
        self.ok = proc.returncode == 0 and times_path.exists()
        if not self.ok:
            return
        times = json.loads(times_path.read_text())
        if not Path(times["module"]).resolve().is_relative_to(SRC.resolve()):
            raise SystemExit(f"walktheta was imported from {times['module']}, not {SRC}")
        self.setup_s = times["ready"] - start
        self.peak_rss_mb = times["peak_rss_kb"] / 1024.0
        if argv:
            self.work_s = times["done"] - times["ready"]
            self.code = times["code"]


class SpeedProbe:
    """Tracks machine speed with a fixed task timed in this process between calls.

    On a shared host the same call can take 1.4x longer a minute later. The
    task slows with it, so times are divided by it: over 8 seeds of
    bounds-corpus on a 2-vCPU Xeon VM this cut the run-to-run spread of the
    work time from 17% to 7%, and of set-up time from 22% to 5%.
    """

    def __init__(self):
        import numpy as np

        self._np = np
        self._matrix = np.add.outer(np.arange(30.0), np.arange(30.0)) % 7.0
        self.samples = [self._measure()]

    def _measure(self) -> float:
        # interpreted Python and small LAPACK calls, like the CLI's own mix
        np = self._np
        start = time.perf_counter()
        total = 0.0
        for _ in range(2000):
            _, vecs = np.linalg.eigh(self._matrix)
            total += float(np.sum((np.ones(30) @ vecs) ** 2))
            for i in range(400):
                total += i * 1e-9
        return time.perf_counter() - start

    def around_last_call(self) -> float:
        """Speed-task seconds bracketing the call that just ended (mean of before and after)."""
        self.samples.append(self._measure())
        return 0.5 * (self.samples[-2] + self.samples[-1])


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["OPENBLAS_NUM_THREADS"] = BLAS_THREADS
    return env


def environment() -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "openblas_version": blas.get("version"),
        "openblas_config": blas.get("openblas configuration"),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "OPENBLAS_NUM_THREADS": BLAS_THREADS,
    }


def metric(value: float, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


def median(values) -> float:
    return statistics.median(values) if values else 0.0


def layer_metrics(trace, workload: Workload, call: Call) -> dict:
    """Per-layer values of one traced call; layers a workload never enters read 0."""
    import numpy as np

    total = lambda name: 1e3 * trace.total.get(name, 0.0)
    calls = lambda name: trace.calls.get(name, 0)
    per = lambda value, count: value / count if count else 0.0
    reports = calls("bounds.report")
    eig_in_report = sum(trace.has_ancestor(i, "bounds.report") for i in trace.indices("spectral.eig_sym"))
    report_ms = [1e3 * trace.dur[i] for i in trace.indices("bounds.report")]
    m = {
        "graphs.parse_graph6.us_per_graph":
            per(1e3 * total("graphs.parse_graph6"), calls("graphs.parse_graph6")),
        "graphs.matrix_build.us_per_graph":
            per(1e3 * (total("graphs.adjacency") + total("graphs.laplacian")), reports),
        "graphs.strong_product.ms_total": total("graphs.strong_product"),
        "spectral.eig_sym.calls": calls("spectral.eig_sym"),
        "spectral.eig_sym.calls_per_graph": per(eig_in_report, reports),
        "spectral.eig_sym.self_ms_total": 1e3 * trace.self_time.get("spectral.eig_sym", 0.0),
        "spectral.cluster_weights.ms_total": total("spectral.cluster_weights"),
        "spectral.eigh.calls": calls("spectral.eigh"),
        "spectral.eigh.ms_total": total("spectral.eigh"),
        "spectral.eigvalsh.calls": calls("spectral.eigvalsh"),
        "spectral.eigvalsh.ms_total": total("spectral.eigvalsh"),
        "walkgen.minimize.self_ms_total": 1e3 * trace.self_time.get("walkgen.minimize", 0.0),
        "walkgen.build.calls": calls("walkgen.build"),
        "walkgen.build.ms_total": total("walkgen.build"),
        "reciprocal.enumerate_critical_points.ms_total": total("reciprocal.enumerate_critical_points"),
        "reciprocal.verify_duality.ms_total": total("reciprocal.verify_duality"),
        "bounds.report.ms_p50": float(np.percentile(report_ms, 50)) if report_ms else 0.0,
        "bounds.report.ms_p99": float(np.percentile(report_ms, 99)) if report_ms else 0.0,
        "theta.optimal_scaling.ms_total": total("theta.optimal_scaling"),
        "theta.extract_optimizer.ms_total": total("theta.extract_optimizer"),
        "theta.submultiplicativity_check.ms_total": total("theta.submultiplicativity_check"),
        "cli.self_ms_per_graph": per(1e3 * trace.self_time.get("cli.main", 0.0), workload.ops),
    }
    for part in ("walkgen_bound", "laplacian_bound", "closed_form_bound", "hoffman_regular"):
        m[f"bounds.{part}.ms_total"] = total(f"bounds.{part}")
    solves = trace.indices("theta.minimize_theta")
    for k, name in enumerate(THETA_INSTANCES):
        iterations = seconds = step_ms = 0.0
        if workload.name == "theta-mix" and k < len(solves) and k < len(call.lines):
            i = solves[k]
            try:
                iterations = json.loads(call.lines[k])["iterations"]
            except (KeyError, TypeError, ValueError):
                pass        # output that does not parse has already failed its checks
            seconds = trace.dur[i]
            polish = trace.child_time(i, "theta.optimal_scaling")
            step_ms = per(1e3 * (seconds - polish), iterations)
        m[f"theta.iterations.{name}"] = iterations
        m[f"theta.minimize_theta.s.{name}"] = seconds
        m[f"theta.ms_per_iteration.{name}"] = step_ms
    return m


def run(args) -> int:
    if not (SRC / "walktheta" / "cli.py").is_file():
        print(f"run.py: no walktheta sources under {SRC}; run from a repository checkout",
              file=sys.stderr)
        return 2
    os.environ["OPENBLAS_NUM_THREADS"] = BLAS_THREADS     # before numpy loads here
    # One CPU for this process and every child, so the speed task times the
    # CPU the calls ran on; the two CPUs of a shared host drift apart.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    sys.path.insert(0, str(SRC))
    from tracing import Trace

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    WORK_PARENT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="run-", dir=WORK_PARENT))
    try:
        workload = Workload(args.workload, args.seed, work)
        speed = SpeedProbe()
        probes = []
        for _ in range(SETUP_PROBES):
            probes.append(Call(work, []))
            probes[-1].speed_s = speed.around_last_call()
        if not all(p.ok for p in probes):
            print("run.py: walktheta.cli failed to import:\n"
                  + (work / "stderr.txt").read_text(errors="replace"), file=sys.stderr)
            return 1
        plain, traced, layers, missing = [], [], [], []
        start = time.monotonic()
        while (len(plain) < (MIN_PAIRS if args.trace else MIN_CALLS)
               or time.monotonic() - start < args.seconds):
            plain.append(Call(work, workload.argv))
            plain[-1].speed_s = speed.around_last_call()
            if args.trace:
                trace_path = work / "trace.json"
                traced.append(Call(work, workload.argv, trace_path))
                traced[-1].speed_s = speed.around_last_call()
                if traced[-1].ok:
                    trace = Trace(trace_path)
                    layers.append(layer_metrics(trace, workload, traced[-1]))
                    missing = trace.missing
        calls = plain + traced
        verdicts = [ok for c in calls for ok in workload.check(c, plain[0])]
        failed = verdicts.count(False)
        identical = all(t.stdout == p.stdout for p, t in zip(plain, traced))
        done = [c for c in calls if c.ok]
        # Set-up is a median of normalised samples. Work is total work over
        # total speed-task time: on 8 bounds-corpus seeds its spread was 6.5%,
        # against 9.6% for the median of normalised calls.
        setup_s = median([c.setup_s * SPEED_NOMINAL_S / c.speed_s for c in probes + done])
        timed = [c for c in plain if c.ok]
        work_s = (SPEED_NOMINAL_S * sum(c.work_s for c in timed) / sum(c.speed_s for c in timed)
                  if timed else 0.0)
        report = {
            "workload": args.workload, "seed": args.seed, "trace": args.trace,
            "calls": len(plain), "traced_calls": len(traced),
            "env": environment(),
            "ops_failed_ratio": failed / len(verdicts),
            "raw_s": {"setup": [c.setup_s for c in probes + done],
                      "work": [c.work_s for c in plain if c.ok],
                      "traced_work": [c.work_s for c in traced if c.ok]},
            "speed_task_s": speed.samples,
        }
        if args.trace:
            names = [m["name"] for m in spec["per_layer"]]
            units = {m["name"]: m["unit"] for m in spec["per_layer"]}
            overhead = [SPEED_NOMINAL_S * (t.work_s / t.speed_s - p.work_s / p.speed_s)
                        for p, t in zip(plain, traced) if p.ok and t.ok]
            layer = {name: median([m[name] for m in layers]) for name in names if name != "trace.overhead_s"}
            layer["trace.overhead_s"] = median(overhead)
            report["stdout_identical"] = identical
            report["trace_overhead_share"] = median(overhead) / work_s if work_s else 0.0
            report["missing_targets"] = missing
            metrics = {name: metric(layer[name], units[name]) for name in names}
        else:
            rss_mb = max((c.peak_rss_mb for c in timed), default=0.0)
            import checks

            ratio = checks.bound_ratio(args.workload, plain[0].lines, workload.facts)
            e2e = {"setup_s": setup_s, "work_s": work_s, "peak_rss_mb": rss_mb, "bound_ratio": ratio}
            metrics = {m["name"]: metric(e2e[m["name"]], m["unit"]) for m in spec["end_to_end"]}
            report["named"] = named_metrics(workload, e2e, checks.upper_sum(plain[0].lines))
        print(json.dumps(report))
        print(json.dumps({
            "correct": failed == 0 and identical,
            "attempted": len(verdicts),
            "failed": failed,
            "metrics": metrics,
        }))
        return 0
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK_PARENT.rmdir()
        except OSError:
            pass


def named_metrics(workload: Workload, e2e: dict, upper_sum: float) -> dict:
    """The end-to-end metrics under the names ROADMAP aim 1 gives them."""
    named = {"setup_s": metric(e2e["setup_s"], "s"), "peak_rss_mb": metric(e2e["peak_rss_mb"], "MB")}
    if workload.name == "bounds-corpus":
        named["bounds.graphs_per_s"] = metric(workload.ops / e2e["work_s"], "1/s")
    elif workload.name == "theta-mix":
        named["theta.solve_s"] = metric(e2e["work_s"], "s")
        named["theta.upper_sum"] = metric(upper_sum, "vertices")
    else:
        named["verify.wall_s"] = metric(e2e["setup_s"] + e2e["work_s"], "s")
    return named


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("bounds-corpus", "theta-mix", "verify-all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
