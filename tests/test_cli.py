import argparse
import errno
import importlib
import json
import math
import os
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest

import walktheta
from walktheta import bounds, cli, reciprocal, spectral, theta
from walktheta.cli import main
from walktheta.corpus import fixture_graphs, random_graph, random_weighted
from walktheta.graphs import Graph, adjacency, encode_graph6, generate_named


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_bounds_named_golomb(capsys):
    code, out, _ = run_cli(capsys, "bounds", "--named", "golomb")
    assert code == 0
    payload = json.loads(out.strip())
    assert payload["n"] == 10
    assert payload["bounds"]["walkgen"] == pytest.approx(4.744, abs=1e-3)
    assert payload["dominance_ok"]


def test_bounds_named_path17(capsys):
    code, out, _ = run_cli(capsys, "bounds", "--named", "path", "--n", "17")
    assert code == 0
    payload = json.loads(out.strip())
    assert payload["bounds"]["walkgen"] == pytest.approx(9.0, abs=1e-6)


@pytest.mark.parametrize("name,n,alpha", [("golomb", None, 4), ("empty", 4, 4)])
def test_bounds_prints_the_report_dict(capsys, name, n, alpha):
    code, out, _ = run_cli(capsys, "bounds", "--named", name, *(["--n", str(n)] if n else []), "--alpha-oracle")
    assert code == 0
    assert out == json.dumps(bounds.report(generate_named(name, n=n), known_alpha=alpha)) + "\n"


def test_bounds_empty_corpus_file(capsys, tmp_path):
    empty = tmp_path / "corpus.g6"
    empty.write_text("")
    code, out, _ = run_cli(capsys, "bounds", str(empty))
    assert code == 0
    assert out == ""


def test_bounds_corpus_stream(capsys, tmp_path):
    corpus = tmp_path / "corpus.g6"
    lines = [encode_graph6(generate_named("cycle", n=n)).decode() for n in (3, 4, 5, 6)]
    corpus.write_text("\n".join(lines) + "\n")
    code, seq, _ = run_cli(capsys, "bounds", str(corpus))
    assert code == 0
    assert [json.loads(l)["n"] for l in seq.splitlines()] == [3, 4, 5, 6]
    # blank and whitespace-only lines between graphs are skipped
    corpus.write_text(f"{lines[0]}\n\n{lines[1]}\n \t\n{lines[2]}\n\n\n{lines[3]}\n")
    assert run_cli(capsys, "bounds", str(corpus)) == (0, seq, "")


def test_parse_error_reports_location(capsys, tmp_path):
    bad = tmp_path / "bad.g6"
    bad.write_text("A_\nD?\n")
    code, out, err = run_cli(capsys, "bounds", str(bad))
    assert code == 2
    assert f"{bad}:2:" in err
    odd = tmp_path / "odd.txt"
    odd.write_text("3 0")
    assert run_cli(capsys, "bounds", str(odd)) == (2, "", f"{odd}:1: odd number of endpoint tokens\n")


def test_non_ascii_graph6_byte_exits_2(capsys, tmp_path):
    bad = tmp_path / "f.g6"
    bad.write_bytes(b"A\xc3\n")    # not an edgeless K2: 0xc3 is no graph6 byte
    code, out, err = run_cli(capsys, "bounds", str(bad))
    assert code == 2 and out == ""
    assert f"{bad}:1:" in err and "offset 1" in err


def test_bounds_and_verify_never_build_the_edge_set(capsys, tmp_path, monkeypatch):
    corpus = tmp_path / "c.g6"
    graphs = [generate_named("cycle", n=5), generate_named("golomb"), generate_named("empty", n=3)]
    corpus.write_bytes(b"".join(encode_graph6(g) + b"\n" for g in graphs))
    argvs = [["bounds", str(corpus)], ["bounds", str(corpus), "--alpha-oracle"],
             ["verify", "all", str(corpus), "--random", "3"]]
    expected = [run_cli(capsys, *argv) for argv in argvs]

    def no_edges(self):
        raise AssertionError("edge set built")

    monkeypatch.setattr(Graph, "edges", property(no_edges))
    for argv, before in zip(argvs, expected):
        assert run_cli(capsys, *argv) == before
        assert before[0] == 0


def test_edge_list_autodetect(capsys, tmp_path):
    path = tmp_path / "graph.txt"
    path.write_text("3\n0 1\n1 2\n")
    code, out, _ = run_cli(capsys, "bounds", str(path))
    assert code == 0
    assert json.loads(out.strip())["n"] == 3


def test_theta_complete(capsys):
    code, out, _ = run_cli(capsys, "theta", "--named", "complete", "--n", "6")
    assert code == 0
    payload = json.loads(out.strip())
    assert payload["upper"] == pytest.approx(1.0, abs=1e-3)
    assert payload["lower"] is None


def test_theta_cycle_with_alpha(capsys):
    code, out, _ = run_cli(capsys, "theta", "--named", "cycle", "--n", "5", "--alpha-oracle")
    assert code == 0
    payload = json.loads(out.strip())
    assert payload["upper"] == pytest.approx(math.sqrt(5.0), abs=1e-3)
    assert payload["lower"] == 2
    assert len(payload["weights"]) == 5


@pytest.mark.parametrize("command", [["theta", "--max-iter", "50"], ["bounds"]])
def test_alpha_oracle_fills_every_size(capsys, command):
    """Exact alpha for any n under --alpha-oracle (P25: 13, past the old n <= 20 cap), null without it."""
    key = "lower" if command[0] == "theta" else "alpha_witness"
    for n, alpha in ((5, 3), (25, 13), (60, 30)):
        code, out, _ = run_cli(capsys, *command, "--named", "path", "--n", str(n), "--alpha-oracle")
        assert code == 0
        assert json.loads(out)[key] == alpha
    code, out, _ = run_cli(capsys, *command, "--named", "path", "--n", "25")
    assert code == 0
    assert json.loads(out)[key] is None


def test_theta_p5_upper_is_at_least_alpha(capsys):
    """theta(P5) = alpha(P5) = 3: the certified upper cannot round below it."""
    code, out, _ = run_cli(capsys, "theta", "--named", "path", "--n", "5", "--alpha-oracle")
    assert code == 0
    payload = json.loads(out)
    assert payload["certified_lower"] <= payload["lower"] == 3 <= payload["upper"]


def test_theta_petersen(capsys):
    code, out, _ = run_cli(capsys, "theta", "--named", "petersen")
    assert code == 0
    assert json.loads(out.strip())["upper"] == pytest.approx(4.0, abs=1e-3)


def test_verify_duality(capsys):
    code, out, _ = run_cli(capsys, "verify", "duality", "--random", "50", "--seed", "7")
    assert code == 0
    lines = [json.loads(l) for l in out.splitlines()]
    summary = lines[-1]
    assert summary["ok"] and summary["passed"] == summary["total"] == 50
    assert all(rec["ok"] for rec in lines[:-1])


def test_verify_scaling(capsys):
    code, out, _ = run_cli(capsys, "verify", "scaling", "--random", "10", "--seed", "3")
    assert code == 0
    assert json.loads(out.splitlines()[-1])["ok"]


def test_verify_scaling_rejects_a_non_minimiser(capsys, monkeypatch):
    # the value matches the wrong t, so only the convexity certificate can fail
    real = theta.optimal_scaling

    def off_by_one_percent(a):
        t = 1.01 * real(a)[0]
        return t, float(np.linalg.eigvalsh(np.ones(a.shape) - t * a)[-1])

    monkeypatch.setattr(theta, "optimal_scaling", off_by_one_percent)
    code, out, _ = run_cli(capsys, "verify", "scaling", "--random", "10")
    assert code == 1
    assert not json.loads(out.splitlines()[-1])["ok"]


def test_verify_scaling_prints_its_own_eigenvalue(capsys, monkeypatch):
    """`scaled` is lambda_max(J - t*a) at the t `optimal_scaling` returns, which computes no eigenvalue itself."""
    real_scaling, real_eigvalsh = theta.optimal_scaling, np.linalg.eigvalsh
    cases, inside, eigvalsh_inside = [], [], []

    def recording_scaling(a):
        inside.append(a)
        try:
            t, direct = real_scaling(a)
        finally:
            inside.pop()
        cases.append((a, t))
        return t, direct

    def recording_eigvalsh(m, *args, **kwargs):
        if inside:
            eigvalsh_inside.append(m)
        return real_eigvalsh(m, *args, **kwargs)

    monkeypatch.setattr(theta, "optimal_scaling", recording_scaling)
    monkeypatch.setattr(np.linalg, "eigvalsh", recording_eigvalsh)
    code, out, _ = run_cli(capsys, "verify", "scaling", "--random", "10")
    assert code == 0
    assert eigvalsh_inside == []
    records = [json.loads(line) for line in out.splitlines()[:-1]]
    assert len(records) == len(cases) == 10
    for record, (a, t) in zip(records, cases):
        assert record["scaled"] == float(real_eigvalsh(np.ones(a.shape) - t * a)[-1])


def test_verify_suites_come_from_one_table(capsys):
    subcommands = next(a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    suite = next(a for a in subcommands.choices["verify"]._actions if a.dest == "suite")
    assert list(cli.SUITES) == [c for c in suite.choices if c != "all"]
    code, out, _ = run_cli(capsys, "verify", "all", "--random", "3")
    assert code == 0
    order = [json.loads(line)["suite"] for line in out.splitlines()[:-1]]
    assert list(dict.fromkeys(order)) == list(cli.SUITES)
    assert order == sorted(order, key=list(cli.SUITES).index)


def test_verify_scaling_and_optimizer_decompose_each_matrix_once(capsys, eig_calls):
    """The walk minimum comes from the suite's own decomposition, not a second one; zero matrices included."""
    rng = np.random.default_rng(4)
    weighted = [random_weighted(rng) for _ in range(10)]
    assert run_cli(capsys, "verify", "scaling", "--random", "10", "--seed", "4")[0] == 0
    assert len(eig_calls) == 10
    assert all(np.array_equal(m, a) for m, a in zip(eig_calls, weighted))
    eig_calls.clear()
    fixtures = fixture_graphs()
    assert [name for name, g in fixtures if not g.edges] == ["K1", "empty3", "empty6"]
    mats = [adjacency(g) for _, g in fixtures] + weighted
    assert run_cli(capsys, "verify", "optimizer", "--random", "10", "--seed", "4")[0] == 0
    assert len(eig_calls) == len(mats) == 24
    assert all(np.array_equal(m, a) for m, a in zip(eig_calls, mats))


def test_verify_product(capsys):
    code, out, _ = run_cli(capsys, "verify", "product", "--seed", "1")
    assert code == 0
    lines = [json.loads(l) for l in out.splitlines()]
    assert lines[-1]["total"] == 10
    assert lines[-1]["ok"]


def test_verify_product_failed_identity_prints_json_null(capsys, monkeypatch):
    """A failed factorization identity prints null, not NaN, which RFC 8259 JSON lacks."""
    def fail(*args, **kwargs):
        raise AssertionError("factorization identity failed")

    def reject(constant):
        raise ValueError(f"not JSON: {constant}")

    monkeypatch.setattr(theta, "submultiplicativity_check", fail)
    code, out, _ = run_cli(capsys, "verify", "product", "--seed", "1")
    assert code == 1
    lines = [json.loads(l, parse_constant=reject) for l in out.splitlines()]
    assert all(l["lhs"] is None and l["rhs"] is None and not l["ok"] for l in lines[:-1])
    assert lines[-1] == {"passed": 0, "total": 10, "ok": False}


def test_verify_dominance_with_corpus(capsys, tmp_path):
    corpus = tmp_path / "c.g6"
    lines = [encode_graph6(generate_named("cycle", n=n)).decode() for n in (3, 5, 7)]
    lines.append(encode_graph6(generate_named("golomb")).decode())
    corpus.write_text("\n".join(lines) + "\n")
    code, out, _ = run_cli(capsys, "verify", "dominance", str(corpus))
    assert code == 0
    assert json.loads(out.splitlines()[-1])["total"] == 4


def test_verify_optimizer(capsys):
    code, out, _ = run_cli(capsys, "verify", "optimizer", "--random", "10", "--seed", "5")
    assert code == 0
    assert json.loads(out.splitlines()[-1])["ok"]


def test_verify_all_aggregates(capsys):
    code, out, _ = run_cli(capsys, "verify", "all", "--random", "15", "--seed", "2")
    assert code == 0
    lines = [json.loads(l) for l in out.splitlines()]
    suites = {rec["suite"] for rec in lines[:-1]}
    assert suites == {"duality", "scaling", "product", "dominance", "optimizer"}
    assert lines[-1]["ok"]


def test_verify_unknown_suite_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "nonsense"])
    assert exc.value.code == 2


def test_verify_determinism(capsys):
    _, first, _ = run_cli(capsys, "verify", "duality", "--random", "25", "--seed", "9")
    _, second, _ = run_cli(capsys, "verify", "duality", "--random", "25", "--seed", "9")
    assert first == second


def test_plot_constant(capsys):
    code, out, _ = run_cli(capsys, "plot", "--named", "empty", "--n", "3", "--samples", "5")
    assert code == 0
    rows = out.splitlines()
    assert rows[0] == "x,W"
    assert all(row.endswith(",3") for row in rows[1:])


def test_plot_golomb_curve(capsys):
    code, out, _ = run_cli(capsys, "plot", "--named", "golomb", "--samples", "2000")
    assert code == 0
    rows = out.splitlines()
    markers = [r for r in rows if r.startswith("#")]
    assert len(markers) == 2
    lo = float(markers[0].split(",")[1])
    hi = float(markers[1].split(",")[1])
    values = []
    for row in rows:
        if row.startswith("#") or row == "x,W":
            continue
        x_str, y_str = row.split(",")
        if y_str and lo <= float(x_str) <= hi:
            values.append(float(y_str))
    assert min(values) == pytest.approx(4.744, abs=1e-3)


@pytest.mark.parametrize("window", [["--lo", "1", "--hi", "0"], ["--lo", "nan"],
                                    ["--lo", "0.1", "--hi", "0.1"], ["--hi", "inf"]])
def test_plot_rejects_an_empty_or_infinite_window(capsys, window):
    code, out, err = run_cli(capsys, "plot", "--named", "cycle", "--n", "5", *window)
    assert code == 2
    assert out == ""
    assert "--lo < --hi" in err


def test_plot_rejects_multi_graph_input(capsys, tmp_path):
    corpus = tmp_path / "two.g6"
    corpus.write_text("A_\nA_\n")
    code, _, err = run_cli(capsys, "plot", str(corpus))
    assert code == 2
    assert "exactly one" in err


def test_output_file_option(tmp_path, capsys):
    out_path = tmp_path / "report.jsonl"
    code = main(["bounds", "--named", "cycle", "--n", "5", "--output", str(out_path)])
    capsys.readouterr()
    assert code == 0
    payload = json.loads(out_path.read_text().strip())
    assert payload["bounds"]["hoffman"] == pytest.approx(math.sqrt(5.0))


def test_missing_input_is_usage_error(capsys):
    code, _, err = run_cli(capsys, "bounds")
    assert code == 2
    assert "no input" in err


def test_numeric_failure_exits_1(capsys, monkeypatch):
    # an eigensolver returning wrong vectors trips eigh_checked's residual check; bounds passes stacks
    monkeypatch.setattr(np.linalg, "eigh",
                        lambda m: (np.zeros(m.shape[:-1]), np.broadcast_to(np.eye(m.shape[-1]), m.shape)))
    code, out, err = run_cli(capsys, "bounds", "--named", "golomb")
    assert code == 1
    assert out == ""
    assert "residual" in err


def test_laplacian_bracket_failure_exits_1(capsys, monkeypatch):
    # eigvalsh, which only the Laplacian goes through, reports lambda_max off by 1e-3 ||L||:
    # too high, the bracket's lower end factors; too low, its upper end does not
    real = np.linalg.eigvalsh
    for shift, end in ((1e-3, "lower end"), (-1e-3, "upper end")):
        def eigvalsh(m, shift=shift):
            vals = real(m)
            vals[..., -1] += shift * np.linalg.norm(m, axis=(-2, -1))
            return vals

        monkeypatch.setattr(np.linalg, "eigvalsh", eigvalsh)
        code, out, err = run_cli(capsys, "bounds", "--named", "golomb")
        assert code == 1
        assert out == ""
        assert end in err


def test_parse_error_after_a_chunk_writes_the_graphs_before_it(capsys, tmp_path):
    # CHUNK + 6 graphs, then a truncated line k: its error follows exactly the k - 1 reports before it
    rng = np.random.default_rng(3)
    lines = [encode_graph6(random_graph(rng)) + b"\n" for _ in range(bounds.CHUNK + 6)]
    good, bad, out_path = tmp_path / "good.g6", tmp_path / "bad.g6", tmp_path / "out.jsonl"
    good.write_bytes(b"".join(lines))
    bad.write_bytes(b"".join(lines) + encode_graph6(generate_named("petersen"))[:-3] + b"\n")
    k = bounds.CHUNK + 7
    code, want, _ = run_cli(capsys, "bounds", str(good))
    assert code == 0 and len(want.splitlines()) == k - 1
    code, out, err = run_cli(capsys, "bounds", str(bad))
    assert (code, out) == (2, want)
    assert err.startswith(f"{bad}:{k}: ")
    assert run_cli(capsys, "bounds", str(bad), "--output", str(out_path)) == (2, "", err)
    assert out_path.read_text() == want


def test_numeric_failure_mid_chunk_exits_1_after_the_lines_before_it(capsys, monkeypatch, tmp_path):
    # graph k, in the middle of the first chunk, is the only graph of order 20; its bracket fails
    rng = np.random.default_rng(4)
    graphs = [random_graph(rng) for _ in range(bounds.CHUNK)]
    k = bounds.CHUNK // 2
    graphs.insert(k - 1, generate_named("cycle", n=20))
    assert [g.n for g in graphs].count(20) == 1
    corpus = tmp_path / "c.g6"
    corpus.write_bytes(b"".join(encode_graph6(g) + b"\n" for g in graphs))
    code, want, _ = run_cli(capsys, "bounds", str(corpus))
    assert code == 0
    real = np.linalg.eigvalsh

    def eigvalsh(m):
        vals = real(m)
        if m.shape[-1] == 20:
            vals[..., -1] += 1e-3 * np.linalg.norm(m, axis=(-2, -1))
        return vals

    monkeypatch.setattr(np.linalg, "eigvalsh", eigvalsh)
    code, out, err = run_cli(capsys, "bounds", str(corpus))
    assert code == 1
    assert out.splitlines() == want.splitlines()[:k - 1]
    assert "lower end" in err


def test_walk_search_failure_mid_chunk_exits_1_after_the_lines_before_it(capsys, monkeypatch, tmp_path):
    # graph k of 65, in the first chunk, is the only graph of order 20; the walk search raises for that order
    rng = np.random.default_rng(4)
    graphs = [random_graph(rng) for _ in range(bounds.CHUNK)]
    k = bounds.CHUNK // 2
    graphs.insert(k - 1, generate_named("cycle", n=20))
    assert [g.n for g in graphs].count(20) == 1
    corpus = tmp_path / "c.g6"
    corpus.write_bytes(b"".join(encode_graph6(g) + b"\n" for g in graphs))
    code, want, _ = run_cli(capsys, "bounds", str(corpus))
    assert code == 0
    real = spectral.walk_minima

    def walk_minima(vals, overlaps, sizes):
        if 20 in sizes:
            raise reciprocal.PoleProximityError(-0.25, -0.25)
        return real(vals, overlaps, sizes)

    monkeypatch.setattr(spectral, "walk_minima", walk_minima)
    code, out, err = run_cli(capsys, "bounds", str(corpus))
    assert code == 1
    assert out.splitlines() == want.splitlines()[:k - 1]
    assert "x = -0.25 is within tolerance of the pole at -0.25" in err


def test_verify_duality_scans_once_per_case(capsys, monkeypatch):
    calls = []
    real = reciprocal.enumerate_critical_points

    def counting(f):
        calls.append(f)
        return real(f)

    monkeypatch.setattr(reciprocal, "enumerate_critical_points", counting)
    code, out, _ = run_cli(capsys, "verify", "duality", "--random", "20")
    assert code == 0
    assert len(out.splitlines()) == 21
    assert len(calls) == 20


def test_theta_numeric_failure_exits_1(capsys, monkeypatch):
    monkeypatch.setattr(np.linalg, "eigh", lambda m: (np.zeros(len(m)), np.eye(len(m))))
    code, out, err = run_cli(capsys, "theta", "--named", "petersen")
    assert code == 1
    assert out == ""
    assert "residual" in err


def test_bounds_long_form_graph6_line(capsys, tmp_path):
    corpus = tmp_path / "kneser.g6"
    line = encode_graph6(generate_named("kneser", n=12, k=2))
    assert line.startswith(b"~")
    corpus.write_bytes(line + b"\n")
    code, out, _ = run_cli(capsys, "bounds", str(corpus))
    assert code == 0
    payload = json.loads(out.strip())
    assert payload["n"] == 66
    # Kneser(12, 2) is 45-regular with least eigenvalue -9: Hoffman gives 66 * 9 / 54
    assert payload["bounds"]["hoffman"] == pytest.approx(11.0)


def test_bound_below_known_alpha_exits_1(capsys, monkeypatch):
    monkeypatch.setattr(cli, "independence_number", lambda g: g.n)
    code, out, err = run_cli(capsys, "bounds", "--named", "cycle", "--n", "5", "--alpha-oracle")
    assert code == 1
    assert "fell below the known independence number 5" in err


def test_named_parameter_error_is_usage_error(capsys):
    code, _, err = run_cli(capsys, "bounds", "--named", "cycle")
    assert code == 2
    assert "needs parameter n" in err


def test_plot_too_few_samples_is_usage_error(capsys):
    code, out, err = run_cli(capsys, "plot", "--named", "golomb", "--samples", "1")
    assert code == 2
    assert out == ""
    assert "--samples" in err


def test_removed_flags_are_rejected(capsys):
    argvs = [["bounds", "--named", "golomb", "--jobs", "2"],
             ["theta", "--named", "golomb", "--seed", "1"],
             ["theta", "--named", "cycle", "--n", "5", "--tol", "1e-3"]]
    argvs += [[*command, "--named", "golomb", "--format", "g6"]
              for command in (["bounds"], ["theta"], ["verify", "dominance"], ["plot"])]
    for argv in argvs:
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2, argv
        assert argv[-2] in capsys.readouterr().err


def test_option_census():
    """Every settable option of each subcommand; a new option must change this list."""
    subcommands = next(a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    census = {name: sorted(s for a in p._actions if not isinstance(a, argparse._HelpAction)
                           for s in a.option_strings or [a.dest])
              for name, p in subcommands.choices.items()}
    common = ["--k", "--n", "--named", "--output", "input"]
    assert census == {
        "bounds": sorted(common + ["--alpha-oracle"]),
        "theta": sorted(common + ["--alpha-oracle", "--max-iter"]),
        "verify": sorted(common + ["--random", "--seed", "suite"]),
        "plot": sorted(common + ["--hi", "--lo", "--samples"]),
    }
    assert sum(map(len, census.values())) == 29


def test_public_api_census():
    """The names the package and each module's `__all__` export; a new or deleted name must change this list."""
    package = sorted(name for name, value in vars(walktheta).items()
                     if not name.startswith("_") and not isinstance(value, types.ModuleType))
    assert package == [
        "CriticalReport", "Graph", "Graph6ParseError", "IntervalMin", "OptimizerVector", "PoleProximityError",
        "ReciprocalSum", "SpectralData", "ThetaEstimate", "adjacency", "central_strip", "cluster_weights",
        "eig_sym", "encode_graph6", "enumerate_critical_points", "extract_optimizer", "generate_named",
        "has_critical_points", "independence_number", "laplacian_bound", "max_independent_set", "minimize_theta",
        "optimal_scaling", "parse_edge_list", "parse_graph6", "report", "strong_product",
        "submultiplicativity_check", "verify_duality", "walk_minimum",
    ]
    modules = {m: sorted(importlib.import_module(f"walktheta.{m}").__all__)
               for m in ("graphs", "reciprocal", "spectral", "bounds", "independent_set", "theta", "corpus")}
    assert modules == {
        "graphs": ["Graph", "Graph6ParseError", "NAMED_GRAPHS", "adjacency", "encode_graph6", "generate_named",
                   "parse_edge_list", "parse_graph6", "strong_product"],
        "reciprocal": ["CriticalReport", "IntervalMin", "PoleProximityError", "ReciprocalSum", "central_strip",
                       "enumerate_critical_points", "has_critical_points", "verify_duality"],
        "spectral": ["SpectralData", "check_eigenpairs", "cluster_weights", "eig_sym", "eigh_checked",
                     "extreme_eigenspace", "lambda_max_bracketed", "lambda_max_upper", "merge_terms",
                     "walk_minima", "walk_minimum"],
        "bounds": ["laplacian_bound", "report", "reports"],
        "independent_set": ["independence_number", "max_independent_set"],
        "theta": ["OptimizerVector", "ThetaEstimate", "extract_optimizer", "minimize_theta", "optimal_scaling",
                  "submultiplicativity_check"],
        "corpus": ["fixture_graphs", "random_graph", "random_instance", "random_weighted"],
    }
    for name, exported in modules.items():
        module = importlib.import_module(f"walktheta.{name}")
        assert all(hasattr(module, attr) for attr in exported), name


@pytest.mark.parametrize("argv", [["bounds"], ["theta"], ["plot"], ["verify", "dominance"]])
def test_file_and_named_together_is_usage_error(capsys, tmp_path, argv):
    corpus = tmp_path / "c.g6"
    corpus.write_text("A_\n")
    code, out, err = run_cli(capsys, *argv, str(corpus), "--named", "cycle", "--n", "5")
    assert code == 2
    assert out == ""
    assert "not both" in err


def test_verify_negative_random_is_usage_error(capsys):
    code, out, err = run_cli(capsys, "verify", "duality", "--random", "-3")
    assert code == 2
    assert out == ""
    assert "--random" in err
    code, out, _ = run_cli(capsys, "verify", "duality", "--random", "0")
    assert code == 0
    assert json.loads(out) == {"passed": 0, "total": 0, "ok": True}


def test_verify_negative_seed_is_usage_error(capsys):
    code, out, err = run_cli(capsys, "verify", "duality", "--seed", "-1")
    assert code == 2
    assert out == ""
    assert "--seed" in err


@pytest.mark.parametrize("max_iter", ["0", "-1"])
def test_theta_max_iter_below_one_is_usage_error(capsys, max_iter):
    code, out, err = run_cli(capsys, "theta", "--named", "cycle", "--n", "5", "--max-iter", max_iter)
    assert code == 2
    assert out == ""
    assert "--max-iter" in err


@pytest.mark.parametrize("tol", ["-1", "nan", "inf"])
def test_theta_tol_not_finite_and_nonnegative_is_usage_error(capsys, tol):
    # --tol is no option (the ADMM stops at the gap theta.GAP_TOL), so any value is a usage error
    with pytest.raises(SystemExit) as exc:
        main(["theta", "--named", "cycle", "--n", "5", "--tol", tol])
    captured = capsys.readouterr()
    assert exc.value.code == 2
    assert captured.out == ""
    assert "--tol" in captured.err


@pytest.mark.parametrize("params,unused", [(["--named", "petersen", "--n", "99"], "parameter n"),
                                           (["--named", "golomb", "--n", "5"], "parameter n"),
                                           (["--named", "cycle", "--n", "5", "--k", "7"], "parameter k")])
def test_named_family_rejects_a_parameter_it_does_not_take(capsys, params, unused):
    code, out, err = run_cli(capsys, "bounds", *params)
    assert code == 2
    assert out == ""
    assert f"takes no {unused}" in err


def test_plot_leaves_poles_blank(capsys):
    """P3's poles are at +-1/sqrt(2): the window's two ends are blank, W(0) = n in the middle."""
    code, out, _ = run_cli(capsys, "plot", "--named", "path", "--n", "3",
                           "--lo", "-0.707106781187", "--hi", "0.707106781187", "--samples", "5")
    assert code == 0
    rows = out.splitlines()[3:]
    assert out.splitlines()[2] == "x,W" and len(rows) == 5
    assert rows[0].endswith(",") and rows[-1].endswith(",")
    assert rows[2] == "0,3"
    assert all(not row.endswith(",") for row in rows[1:-1])


def test_verify_scaling_runs_at_most_the_case_cap(capsys):
    code, out, _ = run_cli(capsys, "verify", "scaling", "--random", "300")
    assert code == 0
    assert json.loads(out.splitlines()[-1]) == {"passed": 100, "total": 100, "ok": True}
    with pytest.raises(SystemExit):
        main(["verify", "--help"])
    assert "scaling and optimizer run at most 100" in " ".join(capsys.readouterr().out.split())


@pytest.mark.parametrize("command", ["bounds", "theta"])
def test_parse_error_keeps_earlier_lines(capsys, tmp_path, command):
    corpus = tmp_path / "bad.g6"
    corpus.write_text("A_\nBw\nD?\nA_\n")    # K2, K3, then a truncated line 3
    code, out, err = run_cli(capsys, command, str(corpus))
    assert code == 2
    assert f"{corpus}:3:" in err
    assert len(out.splitlines()) == 2
    report = tmp_path / "report.jsonl"
    code, out, err = run_cli(capsys, command, str(corpus), "--output", str(report))
    assert code == 2 and out == ""
    assert f"{corpus}:3:" in err
    assert len(report.read_text().splitlines()) == 2


@pytest.mark.parametrize("argv", [["bounds"], ["theta"], ["plot"], ["verify", "dominance"]])
def test_missing_input_file_opens_no_output(capsys, tmp_path, argv):
    report = tmp_path / "report.jsonl"
    code, out, err = run_cli(capsys, *argv, str(tmp_path / "absent.g6"), "--output", str(report))
    assert code == 2
    assert "absent.g6" in err
    assert not report.exists()


@pytest.mark.parametrize("where", ["directory", "missing parent"])
def test_unopenable_output_is_usage_error(capsys, tmp_path, where):
    edges = tmp_path / "e.txt"
    edges.write_text("3\n0 1\n1 2\n")
    if where == "directory":
        target, err_no = tmp_path, errno.EISDIR
    else:
        target, err_no = tmp_path / "absent" / "x.json", errno.ENOENT
    code, out, err = run_cli(capsys, "bounds", str(edges), "--output", str(target))
    assert code == 2
    assert out == ""
    assert err == f"{target}: {os.strerror(err_no)}\n"


@pytest.mark.parametrize("suite", ["duality", "scaling", "product", "optimizer"])
def test_verify_suite_without_graphs_rejects_input(capsys, tmp_path, suite):
    corpus = tmp_path / "c.g6"
    corpus.write_text("A_\n")
    for source in (["--named", "petersen"], [str(corpus)]):
        code, out, err = run_cli(capsys, "verify", suite, *source, "--random", "2")
        assert code == 2
        assert out == ""
        assert "dominance" in err


def test_verify_dominance_and_all_take_named_input(capsys):
    code, out, _ = run_cli(capsys, "verify", "dominance", "--named", "petersen")
    assert code == 0
    assert json.loads(out.splitlines()[-1])["total"] == 1
    code, out, _ = run_cli(capsys, "verify", "all", "--named", "petersen", "--random", "2")
    assert code == 0
    dominance = [json.loads(l) for l in out.splitlines() if '"dominance"' in l]
    assert len(dominance) == 1


def test_closed_stdout_pipe_exits_141_without_traceback():
    """`walktheta plot --named path --n 17 | head -1`, with the reader gone before any write."""
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    argv = [sys.executable, "-m", "walktheta.cli", "plot", "--named", "path", "--n", "17"]
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 141
    assert err == b""
