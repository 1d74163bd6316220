import math

import numpy as np
import pytest

from conftest import fixture_graphs, plain_alpha, random_graph, record_matrices
from walktheta.bounds import laplacian_bound, report
from walktheta.graphs import Graph, adjacency, generate_named, laplacian, parse_edge_list
from walktheta.independent_set import independence_number
from walktheta.spectral import eig_sym

SQRT5 = math.sqrt(5.0)


def test_hoffman_values():
    assert report(generate_named("cycle", n=5)).hoffman_regular == pytest.approx(SQRT5)
    assert report(generate_named("petersen")).hoffman_regular == pytest.approx(4.0)
    assert report(generate_named("path", n=17)).hoffman_regular is None
    assert report(generate_named("empty", n=4)).hoffman_regular is None


def test_walkgen_bound_values():
    assert report(generate_named("golomb")).walkgen_bound == pytest.approx(4.744, abs=1e-3)
    assert report(generate_named("path", n=17)).walkgen_bound == pytest.approx(9.0, abs=1e-6)
    assert report(generate_named("cycle", n=5)).walkgen_bound == pytest.approx(SQRT5, abs=1e-9)
    assert report(generate_named("empty", n=6)).walkgen_bound == 6.0


def test_closed_form_regular_collapses_to_hoffman():
    for g in [generate_named("cycle", n=5), generate_named("complete", n=4),
              generate_named("petersen")]:
        rep = report(g)
        assert rep.closed_form_condition
        assert rep.closed_form_value == pytest.approx(rep.hoffman_regular, abs=1e-9)


def test_closed_form_golomb_dominates_interval_minimum():
    rep = report(generate_named("golomb"))
    assert rep.closed_form_condition
    assert rep.closed_form_value >= rep.walkgen_bound - 1e-9


def test_closed_form_star_matches_two_term_oracle():
    star = parse_edge_list("5 0 4 1 4 2 4 3 4")
    rep = report(star)
    assert rep.closed_form_condition
    data = eig_sym(adjacency(star))
    n, lam1, lamn = 5, data.lam_max, data.lam_min
    w1 = max(w for rep, w in zip(data.walk.rates, data.walk.weights) if abs(rep - lam1) < 1e-7)
    s = math.sqrt(-lamn * (n - w1) / (lam1 * w1))
    x = -(1.0 - s) / (-lamn + lam1 * s)
    two_term = w1 / (1.0 - lam1 * x) + (n - w1) / (1.0 - lamn * x)
    assert rep.closed_form_value == pytest.approx(two_term, abs=1e-9)


def test_laplacian_bound_values():
    mu1 = 2.0 - 2.0 * math.cos(4.0 * math.pi / 5.0)
    assert laplacian_bound(generate_named("cycle", n=5)) == pytest.approx(5.0 * (1.0 - 2.0 / mu1))
    assert laplacian_bound(generate_named("complete", n=4)) == pytest.approx(1.0)
    iso = generate_named("path", n=4).add_isolated_vertex()
    assert laplacian_bound(iso) == pytest.approx(5.0)


def test_report_golomb():
    # alpha(golomb) = 4 by brute force over all 2^10 subsets
    g = generate_named("golomb")
    assert plain_alpha(g) == 4
    rep = report(g, known_alpha=4)
    assert rep.dominance_ok
    for value in (rep.walkgen_bound, rep.closed_form_value, rep.laplacian_bound):
        assert value >= 3.0  # a fortiori above any smaller witness

    payload = rep.to_json_dict()
    assert payload["bounds"]["walkgen"] == pytest.approx(4.744, abs=1e-3)
    assert payload["alpha_witness"] == 4
    assert set(payload) == {"n", "bounds", "dominance_ok", "alpha_witness"}
    assert set(payload["bounds"]) == {"hoffman", "walkgen", "closed_form", "laplacian"}


def test_report_p17_meets_alpha():
    rep = report(generate_named("path", n=17), known_alpha=9)
    assert rep.walkgen_bound == pytest.approx(9.0, abs=1e-6)


def test_report_edgeless():
    rep = report(generate_named("empty", n=6))
    assert rep.walkgen_bound == 6.0
    assert rep.laplacian_bound == 6.0
    assert rep.hoffman_regular is None
    assert rep.closed_form_value is None and rep.closed_form_condition is None
    assert rep.dominance_ok


def test_dominance_over_corpus_and_random(corpus):
    graphs = [g for _, g in corpus]
    rng = np.random.default_rng(41)
    graphs += [random_graph(rng) for _ in range(60)]
    for g in graphs:
        rep = report(g)
        assert rep.walkgen_bound <= rep.laplacian_bound + 1e-8


def test_isolated_vertex_adds_exactly_one(corpus):
    for name, g in corpus:
        base = report(g).walkgen_bound
        assert report(g.add_isolated_vertex()).walkgen_bound == pytest.approx(base + 1.0, abs=1e-8), name


def test_regular_collapse(corpus):
    for name, g in corpus:
        if not g.edges or not g.is_regular():
            continue
        rep = report(g)
        hoff = rep.hoffman_regular
        assert abs(rep.walkgen_bound - hoff) <= 1e-9, name
        assert rep.closed_form_condition and abs(rep.closed_form_value - hoff) <= 1e-9, name


def test_bounds_sandwich_brute_alpha(corpus):
    small = [(name, g) for name, g in corpus if g.n <= 12]
    rng = np.random.default_rng(43)
    small += [(f"rand{i}", random_graph(rng)) for i in range(25)]
    for name, g in small:
        alpha = plain_alpha(g)
        assert independence_number(g) == alpha, name
        rep = report(g, known_alpha=alpha)
        assert rep.walkgen_bound >= alpha - 1e-8, name
        assert rep.laplacian_bound >= alpha - 1e-8, name
        if rep.hoffman_regular is not None:
            assert rep.hoffman_regular >= alpha - 1e-8, name
        if rep.closed_form_value is not None:
            assert rep.closed_form_value >= alpha - 1e-8, name


def test_every_bound_at_least_one(corpus):
    for name, g in corpus:
        if g.n == 0:
            continue
        rep = report(g)
        assert rep.walkgen_bound >= 1.0 - 1e-9, name
        assert rep.laplacian_bound >= 1.0 - 1e-9, name


def test_report_decomposes_adjacency_once_and_brackets_laplacian(monkeypatch, eig_calls, eigh_checked_calls):
    # golomb is irregular; petersen is regular, so the ratio bound is computed too.
    # Only the adjacency gets eigenvectors; L's lambda_max is eigvalsh's, bracketed by two Cholesky tries.
    linalg = {name: record_matrices(monkeypatch, np.linalg, name) for name in ("eigh", "eigvalsh", "cholesky")}
    every = (eig_calls, eigh_checked_calls, *linalg.values())
    for name in ("golomb", "petersen"):
        g = generate_named(name)
        a, lap = adjacency(g), laplacian(g)
        for calls in every:
            calls.clear()
        rep = report(g)
        assert rep.hoffman_regular is None if name == "golomb" else rep.hoffman_regular is not None
        for calls in (eig_calls, eigh_checked_calls, linalg["eigh"]):
            assert len(calls) == 1 and np.array_equal(calls[0], a), name
        assert len(linalg["eigvalsh"]) == 1 and np.array_equal(linalg["eigvalsh"][0], lap), name
        off_diagonal = ~np.eye(g.n, dtype=bool)
        assert len(linalg["cholesky"]) == 2, name
        for shifted in linalg["cholesky"]:
            assert np.array_equal(shifted[off_diagonal], -lap[off_diagonal]), name
    for calls in every:
        calls.clear()
    report(generate_named("empty", n=4))
    assert not any(every)


def test_laplacian_bound_agrees_with_eigh_on_atlas_and_fixtures():
    nx = pytest.importorskip("networkx")
    graphs = [Graph(h.number_of_nodes(), h.edges()) for h in nx.graph_atlas_g()[1:]]
    graphs += [g for _, g in fixture_graphs()]
    assert len(graphs) >= 1252
    for g in graphs:
        got = laplacian_bound(g)
        if not g.num_edges:
            assert got == g.n
            continue
        deg = g.degrees()
        want = g.n * (1.0 - deg.min() / np.linalg.eigh(laplacian(g))[0][-1])
        assert abs(got - want) <= 1e-13 * abs(want), (g, got, want)
