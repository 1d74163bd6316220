"""Command-line front end: bound reports, theta estimates, verification suites, plot data."""

from __future__ import annotations

import argparse
import json
import math
import sys
from contextlib import contextmanager

import numpy as np

from . import bounds, reciprocal, spectral, theta, walkgen
from .corpus import fixture_graphs, random_graph, random_weighted
from .graphs import (
    Graph6ParseError,
    NAMED_GRAPHS,
    adjacency,
    generate_named,
    parse_edge_list,
    parse_graph6,
)
from .independent_set import independence_number

ALPHA_ORACLE_LIMIT = 20


class InputError(Exception):
    """User-facing input problem; message already carries file:line context."""


def _read_graphs(args):
    """The input graphs, as an iterable.

    The input file is read at once, so a missing file fails before any output
    is opened; graph6 lines are parsed lazily, one per graph consumed.
    """
    if args.named:
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
    text = raw.decode("ascii", errors="replace")
    fmt = args.format
    if fmt == "auto":
        first = text.lstrip().splitlines()[0].lstrip() if text.strip() else ""
        fmt = "edges" if first[:1].isdigit() else "g6"
    if fmt == "edges":
        try:
            return [parse_edge_list(text)]
        except ValueError as exc:
            raise InputError(f"{path}:1: {exc}") from exc
    return _parse_graph6_lines(path, text)


def _parse_graph6_lines(path: str, text: str):
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            yield parse_graph6(line.strip())
        except Graph6ParseError as exc:
            raise InputError(f"{path}:{lineno}: {exc}") from exc


@contextmanager
def _output(args):
    """Yield write(line), which writes one line to --output or stdout at once."""
    if not args.output:
        out = sys.stdout
        yield lambda line: out.write(line + "\n")
        return
    with open(args.output, "w") as fh:
        yield lambda line: fh.write(line + "\n")


def cmd_bounds(args) -> int:
    graphs = _read_graphs(args)
    dominance_ok = True
    with _output(args) as write:
        for g in graphs:
            alpha = None
            if args.alpha_oracle and g.n <= ALPHA_ORACLE_LIMIT:
                alpha = independence_number(g)
            r = bounds.report(g, known_alpha=alpha)
            dominance_ok = dominance_ok and r.dominance_ok
            write(json.dumps(r.to_json_dict()))
    return 0 if dominance_ok else 1


def cmd_theta(args) -> int:
    graphs = _read_graphs(args)
    with _output(args) as write:
        for g in graphs:
            est = theta.minimize_theta(
                g,
                max_iter=args.max_iter,
                stall_tol=args.tol,
                alpha_oracle=args.alpha_oracle and g.n <= ALPHA_ORACLE_LIMIT,
            )
            write(json.dumps(est.to_json_dict()))
    return 0


def _suite_duality(count: int, seed: int, emit) -> None:
    rng = np.random.default_rng(seed)
    for i in range(count):
        f = reciprocal.random_instance(rng)
        expect = reciprocal.has_critical_points(f)
        found = reciprocal.enumerate_critical_points(f)
        ok = expect == bool(found)
        if expect and found:
            ok = ok and reciprocal.verify_duality(f).duality_holds
        emit({"suite": "duality", "case": i, "ok": bool(ok)})


def _suite_scaling(count: int, seed: int, emit) -> None:
    rng = np.random.default_rng(seed)
    for i in range(count):
        a = random_weighted(rng)
        _, scaled = theta.optimal_scaling(a)
        direct = walkgen.minimize_on_spectral_interval(a).value
        ok = abs(scaled - direct) <= 1e-6
        emit({"suite": "scaling", "case": i, "ok": bool(ok),
              "scaled": scaled, "direct": direct})


def _suite_product(seed: int, emit) -> None:
    pairs = [
        ("C5", "C5"), ("K2", "K2"), ("empty3", "K2"), ("P5", "C5"),
        ("K4", "P2"), ("C7", "K2"), ("P5", "P5"), ("K2", "C5"),
        ("empty3", "empty6"), ("star4", "K2"),
    ]
    fixtures = dict(fixture_graphs())
    for i, (a, b) in enumerate(pairs):
        try:
            lhs, rhs, ok = theta.submultiplicativity_check(
                fixtures[a], fixtures[b], seed=seed + i
            )
        except AssertionError:
            lhs = rhs = math.nan
            ok = False
        emit({"suite": "product", "case": f"{a}x{b}", "ok": bool(ok),
              "lhs": lhs, "rhs": rhs})


def _suite_dominance(graphs, count: int, seed: int, emit) -> None:
    if graphs is None:
        rng = np.random.default_rng(seed)
        graphs = [g for _, g in fixture_graphs()]
        while len(graphs) < count:
            graphs.append(random_graph(rng))
    for i, g in enumerate(graphs):
        r = bounds.report(g)
        emit({"suite": "dominance", "case": i, "ok": bool(r.dominance_ok),
              "walkgen": r.walkgen_bound, "laplacian": r.laplacian_bound})


def _suite_optimizer(count: int, seed: int, emit) -> None:
    rng = np.random.default_rng(seed)
    mats = [adjacency(g) for _, g in fixture_graphs()]
    mats += [random_weighted(rng) for _ in range(count)]
    for i, a in enumerate(mats):
        cert = theta.extract_optimizer(a)
        norm_a = float(np.linalg.norm(a))
        scale = max(cert.norm_sq, 1e-30)
        ok = (
            cert.residual_orth <= theta.RESIDUAL_TOL * max(1.0, norm_a) * scale
            and cert.residual_sphere <= theta.RESIDUAL_TOL * scale
            and abs(cert.norm_sq - walkgen.minimize_on_spectral_interval(a).value) <= 1e-6
        )
        emit({"suite": "optimizer", "case": i, "ok": bool(ok)})


def cmd_verify(args) -> int:
    graphs = None
    if args.input or args.named:
        if args.suite not in ("dominance", "all"):
            raise InputError(
                f"verify {args.suite} reads no graphs; only dominance and all take an input"
            )
        graphs = list(_read_graphs(args))
    suites = ["duality", "scaling", "product", "dominance", "optimizer"] \
        if args.suite == "all" else [args.suite]
    verdicts = []
    with _output(args) as write:
        def emit(record: dict) -> None:
            verdicts.append(record["ok"])
            write(json.dumps(record))

        for suite in suites:
            if suite == "duality":
                _suite_duality(args.random, args.seed, emit)
            elif suite == "scaling":
                _suite_scaling(min(args.random, 100), args.seed, emit)
            elif suite == "product":
                _suite_product(args.seed, emit)
            elif suite == "dominance":
                _suite_dominance(graphs, args.random, args.seed, emit)
            elif suite == "optimizer":
                _suite_optimizer(min(args.random, 100), args.seed, emit)
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
    fn = reciprocal.ReciprocalSum.from_spectral(data)
    lines = []
    if g.edges:
        lo_mark, hi_mark = 1.0 / data.lam_min, 1.0 / data.lam_max
        lines.append("# lam_min_inv,%.12g" % lo_mark)
        lines.append("# lam_max_inv,%.12g" % hi_mark)
        lo = args.lo if args.lo is not None else 1.8 * lo_mark
        hi = args.hi if args.hi is not None else 1.8 * hi_mark
    else:
        lo = args.lo if args.lo is not None else -1.0
        hi = args.hi if args.hi is not None else 1.0
    lines.append("x,W")
    for x, value in walkgen.sample(fn, lo, hi, args.samples):
        if value is None:
            lines.append("%.12g," % x)
        else:
            lines.append("%.12g,%.12g" % (x, value))
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
        p.add_argument("--format", choices=("auto", "g6", "edges"), default="auto")
        p.add_argument("--output", help="write to a file instead of stdout")

    p = sub.add_parser("bounds", help="per-graph bound reports as JSON lines")
    add_input(p)
    p.add_argument("--alpha-oracle", action="store_true",
                   help=f"attach exact independence number for n <= {ALPHA_ORACLE_LIMIT}")
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("theta", help="per-graph theta estimates as JSON lines")
    add_input(p)
    p.add_argument("--tol", type=float, default=1e-6, help="stall tolerance")
    p.add_argument("--max-iter", type=int, default=5000)
    p.add_argument("--alpha-oracle", action="store_true")
    p.set_defaults(func=cmd_theta)

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument("suite", choices=("duality", "scaling", "product",
                                     "dominance", "optimizer", "all"))
    add_input(p)
    p.add_argument("--random", type=int, default=500,
                   help="number of random cases where applicable")
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
        return args.func(args)
    except InputError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    except ValueError as exc:
        # a numerical failure (LinAlgError) or a bound below a known alpha
        print(str(exc), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
