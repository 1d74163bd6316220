"""Command-line front end: bound reports, theta estimates, verification suites, plot data."""

from __future__ import annotations

import argparse
import json
import os
import sys
from contextlib import contextmanager

import numpy as np

from . import bounds, reciprocal, spectral, theta
from .corpus import fixture_graphs, random_graph, random_instance, random_weighted
from .graphs import (
    Graph6ParseError,
    NAMED_GRAPHS,
    adjacency,
    generate_named,
    parse_edge_list,
    parse_graph6,
)
from .independent_set import independence_number

VERIFY_CASE_CAP = 100       # random cases of verify scaling and optimizer, whatever --random asks


class InputError(Exception):
    """User-facing input problem; message already carries file:line context."""


def _read_graphs(args):
    """The input graphs, as an iterable.

    The input file is read at once, so a missing file fails before any output
    is opened; graph6 lines are parsed lazily, one per graph consumed. A first
    non-blank character that is a digit, an edge list's vertex count, selects
    the edge-list format: no graph6 byte or header starts with a digit.
    """
    if args.named:
        if args.input:
            raise InputError(f"give a file or --named {args.named}, not both")
        try:
            return [generate_named(args.named, n=args.n, k=args.k)]
        except ValueError as exc:
            raise InputError(f"--named {args.named}: {exc}") from exc
    if not args.input:
        raise InputError("no input: give a file or --named NAME")
    path = args.input
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise InputError(f"{path}: {exc.strerror}") from exc
    if raw.lstrip()[:1].isdigit():
        try:
            return [parse_edge_list(raw.decode("ascii", errors="replace"))]
        except ValueError as exc:
            raise InputError(f"{path}:1: {exc}") from exc
    return _parse_graph6_lines(path, raw)


def _parse_graph6_lines(path: str, raw: bytes):
    for lineno, line in enumerate(raw.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            yield parse_graph6(line)
        except Graph6ParseError as exc:
            raise InputError(f"{path}:{lineno}: {exc}") from exc


@contextmanager
def _output(args):
    """Yield write(line), which writes one line to --output or stdout at once."""
    if not args.output:
        out = sys.stdout
        yield lambda line: out.write(line + "\n")
        return
    try:
        fh = open(args.output, "w")
    except OSError as exc:
        raise InputError(f"{args.output}: {exc.strerror}") from exc
    with fh:
        yield lambda line: fh.write(line + "\n")


def cmd_bounds(args) -> int:
    graphs = _read_graphs(args)
    dominance_ok = True
    with _output(args) as write:
        for r in bounds.reports(graphs, independence_number if args.alpha_oracle else None):
            dominance_ok = dominance_ok and r["dominance_ok"]
            write(json.dumps(r))
    return 0 if dominance_ok else 1


def cmd_theta(args) -> int:
    if args.max_iter < 1:
        raise InputError(f"--max-iter must be at least 1, got {args.max_iter}")
    graphs = _read_graphs(args)
    with _output(args) as write:
        for g in graphs:
            alpha = independence_number(g) if args.alpha_oracle else None
            est = theta.minimize_theta(g, max_iter=args.max_iter, known_alpha=alpha)
            write(json.dumps(est.to_json_dict()))
    return 0


def _suite_duality(args, graphs, emit) -> None:
    rng = np.random.default_rng(args.seed)
    for i in range(args.random):
        f = random_instance(rng)
        expect = reciprocal.has_critical_points(f)
        checked = reciprocal.verify_duality(f)      # its points also decide the iff check
        ok = expect == bool(checked.critical_points) and checked.duality_holds
        emit({"suite": "duality", "case": i, "ok": bool(ok)})


def _suite_scaling(args, graphs, emit) -> None:
    rng = np.random.default_rng(args.seed)
    for i in range(min(args.random, VERIFY_CASE_CAP)):
        a = random_weighted(rng)
        t, direct = theta.optimal_scaling(a)
        # s -> lambda_max(J - s*a) is convex, so a t no worse than both
        # neighbours is a global minimiser
        ones = np.ones(a.shape)
        delta = 1e-4 * (1.0 + abs(t))
        left, scaled, right = (float(np.linalg.eigvalsh(ones - s * a)[-1])
                               for s in (t - delta, t, t + delta))
        minimal = scaled <= min(left, right) + 1e-12 * float(np.linalg.norm(ones - t * a))
        ok = abs(scaled - direct) <= 1e-6 and minimal
        emit({"suite": "scaling", "case": i, "ok": bool(ok),
              "scaled": scaled, "direct": direct})


def _suite_product(args, graphs, emit) -> None:
    pairs = [
        ("C5", "C5"), ("K2", "K2"), ("empty3", "K2"), ("P5", "C5"),
        ("K4", "P2"), ("C7", "K2"), ("P5", "P5"), ("K2", "C5"),
        ("empty3", "empty6"), ("star4", "K2"),
    ]
    fixtures = dict(fixture_graphs())
    for i, (a, b) in enumerate(pairs):
        try:
            lhs, rhs, ok = theta.submultiplicativity_check(fixtures[a], fixtures[b], seed=args.seed + i)
        except AssertionError:
            lhs = rhs = None   # JSON null; NaN is not JSON
            ok = False
        emit({"suite": "product", "case": f"{a}x{b}", "ok": bool(ok),
              "lhs": lhs, "rhs": rhs})


def _suite_dominance(args, graphs, emit) -> None:
    if graphs is None:
        rng = np.random.default_rng(args.seed)
        graphs = [g for _, g in fixture_graphs()]
        while len(graphs) < args.random:
            graphs.append(random_graph(rng))
    for i, r in enumerate(bounds.reports(graphs)):
        emit({"suite": "dominance", "case": i, "ok": r["dominance_ok"],
              "walkgen": r["bounds"]["walkgen"], "laplacian": r["bounds"]["laplacian"]})


def _suite_optimizer(args, graphs, emit) -> None:
    rng = np.random.default_rng(args.seed)
    mats = [adjacency(g) for _, g in fixture_graphs()]
    mats += [random_weighted(rng) for _ in range(min(args.random, VERIFY_CASE_CAP))]
    for i, a in enumerate(mats):
        cert = theta.extract_optimizer(a)
        norm_a = float(np.linalg.norm(a))
        scale = max(cert.norm_sq, 1e-30)
        ok = (
            cert.residual_orth <= theta.RESIDUAL_TOL * max(1.0, norm_a) * scale
            and cert.residual_sphere <= theta.RESIDUAL_TOL * scale
            and abs(cert.norm_sq - cert.walk_min) <= 1e-6
        )
        emit({"suite": "optimizer", "case": i, "ok": bool(ok)})


# verify's suites, in `verify all` order; each takes (args, graphs or None, emit)
SUITES = {"duality": _suite_duality, "scaling": _suite_scaling, "product": _suite_product,
          "dominance": _suite_dominance, "optimizer": _suite_optimizer}


def cmd_verify(args) -> int:
    if args.random < 0:
        raise InputError(f"--random must be at least 0, got {args.random}")
    if args.seed < 0:
        raise InputError(f"--seed must be at least 0, got {args.seed}")
    graphs = None
    if args.input or args.named:
        if args.suite not in ("dominance", "all"):
            raise InputError(
                f"verify {args.suite} reads no graphs; only dominance and all take an input"
            )
        graphs = list(_read_graphs(args))
    verdicts = []
    with _output(args) as write:
        def emit(record: dict) -> None:
            verdicts.append(record["ok"])
            write(json.dumps(record))

        for suite in SUITES if args.suite == "all" else [args.suite]:
            SUITES[suite](args, graphs, emit)
        failures = verdicts.count(False)
        emit({"passed": len(verdicts) - failures, "total": len(verdicts), "ok": failures == 0})
    return 0 if failures == 0 else 1


def cmd_plot(args) -> int:
    graphs = list(_read_graphs(args))
    if len(graphs) != 1:
        raise InputError("plot needs exactly one graph")
    if args.samples < 2:
        raise InputError("plot needs --samples of at least 2")
    g = graphs[0]
    data = spectral.eig_sym(adjacency(g))
    lines = []
    if g.num_edges:
        lo_mark, hi_mark = 1.0 / data.lam_min, 1.0 / data.lam_max
        lines.append("# lam_min_inv,%.12g" % lo_mark)
        lines.append("# lam_max_inv,%.12g" % hi_mark)
        lo = args.lo if args.lo is not None else 1.8 * lo_mark
        hi = args.hi if args.hi is not None else 1.8 * hi_mark
    else:
        lo = args.lo if args.lo is not None else -1.0
        hi = args.hi if args.hi is not None else 1.0
    if not (np.isfinite(lo) and np.isfinite(hi) and lo < hi):
        raise InputError(f"plot needs finite --lo < --hi, got [{lo:.12g}, {hi:.12g}]")
    lines.append("x,W")
    for x in np.linspace(lo, hi, args.samples).tolist():
        # points at poles are blank
        lines.append("%.12g," % x if data.walk.near_pole(x) else "%.12g,%.12g" % (x, data.walk.value(x)))
    with _output(args) as write:
        for line in lines:
            write(line)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="walktheta",
        description="Spectral theta bounds from walk-generating functions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_input(p):
        p.add_argument("input", nargs="?", help="graph6 lines or an edge-list file")
        p.add_argument("--named", choices=NAMED_GRAPHS, help="generate a named graph")
        p.add_argument("--n", type=int, help="order parameter for named families")
        p.add_argument("--k", type=int, help="subset size for kneser")
        p.add_argument("--output", help="write to a file instead of stdout")

    p = sub.add_parser("bounds", help="per-graph bound reports as JSON lines")
    add_input(p)
    p.add_argument("--alpha-oracle", action="store_true", help="attach exact independence number")
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("theta", help="per-graph theta estimates as JSON lines")
    add_input(p)
    p.add_argument("--max-iter", type=int, default=5000, help="ADMM iterations, at least 1")
    p.add_argument("--alpha-oracle", action="store_true", help="attach exact independence number")
    p.set_defaults(func=cmd_theta)

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument("suite", choices=(*SUITES, "all"))
    add_input(p)
    p.add_argument("--random", type=int, default=500,
                   help="number of random cases where applicable; "
                        f"scaling and optimizer run at most {VERIFY_CASE_CAP} of them")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("plot", help="CSV samples of the walk-generating function")
    add_input(p)
    p.add_argument("--samples", type=int, default=2000)
    p.add_argument("--lo", type=float)
    p.add_argument("--hi", type=float)
    p.set_defaults(func=cmd_plot)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()      # a closed pipe must fail here, not at interpreter exit
        return code
    except BrokenPipeError:     # stdout's reader left: the `signal` docs' "Note on SIGPIPE"
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141              # 128 + SIGPIPE
    except InputError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    except ValueError as exc:
        # a numerical failure (LinAlgError) or a bound below a known alpha
        print(str(exc), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
