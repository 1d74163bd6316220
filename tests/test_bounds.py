import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    cluster_graphs, fixture_graphs, laplacian, plain_alpha, random_graph, record_matrices, walk_stacks,
)
from walktheta import bounds, spectral
from walktheta.bounds import laplacian_bound, report
from walktheta.graphs import Graph, adjacency, generate_named, parse_edge_list
from walktheta.independent_set import independence_number
from walktheta.spectral import eig_sym, walk_minimum

SQRT5 = math.sqrt(5.0)


def test_hoffman_values():
    assert report(generate_named("cycle", n=5))["bounds"]["hoffman"] == pytest.approx(SQRT5)
    assert report(generate_named("petersen"))["bounds"]["hoffman"] == pytest.approx(4.0)
    assert report(generate_named("path", n=17))["bounds"]["hoffman"] is None
    assert report(generate_named("empty", n=4))["bounds"]["hoffman"] is None


def test_walkgen_bound_values():
    assert report(generate_named("golomb"))["bounds"]["walkgen"] == pytest.approx(4.744, abs=1e-3)
    assert report(generate_named("path", n=17))["bounds"]["walkgen"] == pytest.approx(9.0, abs=1e-6)
    assert report(generate_named("cycle", n=5))["bounds"]["walkgen"] == pytest.approx(SQRT5, abs=1e-9)
    assert report(generate_named("empty", n=6))["bounds"]["walkgen"] == 6.0


def test_closed_form_regular_collapses_to_hoffman():
    for g in [generate_named("cycle", n=5), generate_named("complete", n=4),
              generate_named("petersen")]:
        b = report(g)["bounds"]
        assert b["closed_form"]["condition"]
        assert b["closed_form"]["value"] == pytest.approx(b["hoffman"], abs=1e-9)


def test_closed_form_golomb_dominates_interval_minimum():
    b = report(generate_named("golomb"))["bounds"]
    assert b["closed_form"]["condition"]
    assert b["closed_form"]["value"] >= b["walkgen"] - 1e-9


def test_closed_form_star_matches_two_term_oracle():
    star = parse_edge_list("5 0 4 1 4 2 4 3 4")
    closed_form = report(star)["bounds"]["closed_form"]
    assert closed_form["condition"]
    data = eig_sym(adjacency(star))
    n, lam1, lamn = 5, data.lam_max, data.lam_min
    w1 = max(w for rep, w in zip(data.walk.rates, data.walk.weights) if abs(rep - lam1) < 1e-7)
    s = math.sqrt(-lamn * (n - w1) / (lam1 * w1))
    x = -(1.0 - s) / (-lamn + lam1 * s)
    two_term = w1 / (1.0 - lam1 * x) + (n - w1) / (1.0 - lamn * x)
    assert closed_form["value"] == pytest.approx(two_term, abs=1e-9)


def test_laplacian_bound_values():
    mu1 = 2.0 - 2.0 * math.cos(4.0 * math.pi / 5.0)
    c5, k4 = generate_named("cycle", n=5), generate_named("complete", n=4)
    assert laplacian_bound(adjacency(c5), c5.degrees()) == pytest.approx(5.0 * (1.0 - 2.0 / mu1))
    assert laplacian_bound(adjacency(k4), k4.degrees()) == pytest.approx(1.0)
    iso = generate_named("path", n=4).add_isolated_vertex()
    assert laplacian_bound(adjacency(iso), iso.degrees()) == pytest.approx(5.0)
    assert report(generate_named("empty", n=5))["bounds"]["laplacian"] == 5.0


def test_report_golomb():
    # alpha(golomb) = 4 by brute force over all 2^10 subsets
    g = generate_named("golomb")
    assert plain_alpha(g) == 4
    payload = report(g, known_alpha=4)
    b = payload["bounds"]
    assert payload["dominance_ok"] is True
    for value in (b["walkgen"], b["closed_form"]["value"], b["laplacian"]):
        assert value >= 3.0  # a fortiori above any smaller witness

    assert b["walkgen"] == pytest.approx(4.744, abs=1e-3)
    assert payload["alpha_witness"] == 4
    # the order `walktheta bounds` prints them in
    assert list(payload) == ["n", "bounds", "dominance_ok", "alpha_witness"]
    assert list(b) == ["hoffman", "walkgen", "closed_form", "laplacian"]
    assert list(b["closed_form"]) == ["value", "condition"]


def test_report_keeps_the_oracle_recorders_call():
    # perfbench/record_oracle.py writes report(g).to_json_dict(): a plain copy of the report
    payload = report(generate_named("golomb"))
    assert isinstance(payload, dict)
    assert type(payload.to_json_dict()) is dict and payload.to_json_dict() == payload


def test_report_p17_meets_alpha():
    rep = report(generate_named("path", n=17), known_alpha=9)
    assert rep["bounds"]["walkgen"] == pytest.approx(9.0, abs=1e-6)


def test_report_edgeless():
    rep = report(generate_named("empty", n=6))
    b = rep["bounds"]
    assert b["walkgen"] == 6.0
    assert b["laplacian"] == 6.0
    assert b["hoffman"] is None
    assert b["closed_form"] == {"value": None, "condition": None}
    assert rep["dominance_ok"] is True
    assert rep["alpha_witness"] is None


def test_dominance_over_corpus_and_random(corpus):
    graphs = [g for _, g in corpus]
    rng = np.random.default_rng(41)
    graphs += [random_graph(rng) for _ in range(60)]
    for g in graphs:
        b = report(g)["bounds"]
        assert b["walkgen"] <= b["laplacian"] + 1e-8


def test_isolated_vertex_adds_exactly_one(corpus):
    for name, g in corpus:
        base = report(g)["bounds"]["walkgen"]
        assert report(g.add_isolated_vertex())["bounds"]["walkgen"] == pytest.approx(base + 1.0, abs=1e-8), name


def test_regular_collapse(corpus):
    for name, g in corpus:
        deg = g.degrees()
        if not g.edges or deg.min() != deg.max():
            continue
        b = report(g)["bounds"]
        hoff = b["hoffman"]
        assert abs(b["walkgen"] - hoff) <= 1e-9, name
        assert b["closed_form"]["condition"] and abs(b["closed_form"]["value"] - hoff) <= 1e-9, name


def test_bounds_sandwich_brute_alpha(corpus):
    small = [(name, g) for name, g in corpus if g.n <= 12]
    rng = np.random.default_rng(43)
    small += [(f"rand{i}", random_graph(rng)) for i in range(25)]
    for name, g in small:
        alpha = plain_alpha(g)
        assert independence_number(g) == alpha, name
        b = report(g, known_alpha=alpha)["bounds"]
        assert b["walkgen"] >= alpha - 1e-8, name
        assert b["laplacian"] >= alpha - 1e-8, name
        if b["hoffman"] is not None:
            assert b["hoffman"] >= alpha - 1e-8, name
        if b["closed_form"]["value"] is not None:
            assert b["closed_form"]["value"] >= alpha - 1e-8, name


def test_every_bound_at_least_one(corpus):
    for name, g in corpus:
        if g.n == 0:
            continue
        b = report(g)["bounds"]
        assert b["walkgen"] >= 1.0 - 1e-9, name
        assert b["laplacian"] >= 1.0 - 1e-9, name


def test_reports_make_one_eigh_and_one_eigvalsh_per_order(monkeypatch, eig_calls, eigh_checked_calls):
    # golomb and petersen share order 10, the C5s order 5: one eigh of the adjacency stack and one eigvalsh
    # of the Laplacian stack per order, in first-seen order; two Cholesky tries per graph with edges, none
    # for the edgeless graph. laplacian_bound is reached through the module global, where a trace wrapper sits.
    linalg = {name: record_matrices(monkeypatch, np.linalg, name) for name in ("eigh", "eigvalsh", "cholesky")}
    lap_calls, real_laplacian_bound = [], bounds.laplacian_bound

    def counting(a, deg):
        lap_calls.append((a, deg))
        return real_laplacian_bound(a, deg)

    c5 = generate_named("cycle", n=5)
    graphs = [generate_named("golomb"), c5, generate_named("empty", n=4), generate_named("petersen"), c5]
    want = [report(g) for g in graphs]
    monkeypatch.setattr(bounds, "laplacian_bound", counting)
    for calls in (eigh_checked_calls, *linalg.values()):
        calls.clear()
    assert list(bounds.reports(graphs)) == want
    assert (want[0]["bounds"]["hoffman"] is None) and (want[3]["bounds"]["hoffman"] is not None)
    groups = [[graphs[0], graphs[3]], [c5, c5]]
    stacks = [np.stack([adjacency(g) for g in group]) for group in groups]
    laplacians = [np.stack([laplacian(g) for g in group]) for group in groups]
    assert not eig_calls
    for calls, expected in ((eigh_checked_calls, stacks), (linalg["eigh"], stacks), (linalg["eigvalsh"], laplacians)):
        assert len(calls) == len(expected)
        assert all(np.array_equal(got, m) for got, m in zip(calls, expected))
    assert len(lap_calls) == 2
    for (a, deg), stack, group in zip(lap_calls, stacks, groups):
        assert np.array_equal(a, stack) and np.array_equal(deg, [g.degrees() for g in group])
    tried = [lap for group in groups for g in group for lap in (laplacian(g),) * 2]
    assert len(linalg["cholesky"]) == len(tried) == 8
    for shifted, lap in zip(linalg["cholesky"], tried):
        off_diagonal = ~np.eye(len(lap), dtype=bool)
        assert np.array_equal(shifted[off_diagonal], -lap[off_diagonal])


def json_lines(reports) -> list:
    return [json.dumps(r) for r in reports]


@settings(max_examples=20, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2 ** 32 - 1), extra=st.integers(1, bounds.CHUNK + 10), empties=st.integers(1, 6))
def test_reports_print_the_bytes_of_report_one_graph_at_a_time(seed, extra, empties):
    # more than one chunk of random graphs on at most 13 vertices, with isolated vertices and edgeless graphs
    rng = np.random.default_rng(seed)
    graphs = [random_graph(rng) for _ in range(bounds.CHUNK + extra)]
    for _ in range(empties):
        graphs.insert(int(rng.integers(len(graphs) + 1)), generate_named("empty", n=int(rng.integers(1, 8))))
    assert json_lines(bounds.reports(graphs)) == json_lines(report(g) for g in graphs)


def test_reports_print_the_bytes_of_report_on_the_atlas_and_fixtures():
    nx = pytest.importorskip("networkx")
    graphs = [Graph(h.number_of_nodes(), h.edges()) for h in nx.graph_atlas_g()[1:]]
    graphs += [g for _, g in fixture_graphs()]
    np.random.default_rng(34).shuffle(graphs)
    alphas = {id(g): plain_alpha(g) for g in graphs}
    oracle = lambda g: alphas[id(g)]
    assert json_lines(bounds.reports(graphs)) == json_lines(report(g) for g in graphs)
    assert json_lines(bounds.reports(graphs, oracle)) == json_lines(report(g, oracle(g)) for g in graphs)


def test_reports_recompute_a_failing_chunk_one_graph_at_a_time():
    # a bound below the known alpha follows exactly the reports of the graphs before it
    graphs = [generate_named("cycle", n=n) for n in (5, 6, 7, 8)]
    alphas = [2, 3, 7, 4]
    out = bounds.reports(graphs, lambda g: alphas[g.n - 5])
    assert [next(out) for _ in range(2)] == [report(g, a) for g, a in zip(graphs[:2], alphas)]
    with pytest.raises(ValueError, match="known independence number 7"):
        next(out)


def test_reports_come_before_an_error_of_the_input():
    def graphs():
        yield generate_named("golomb")
        yield generate_named("empty", n=2)
        raise OSError("input gone")

    out = bounds.reports(graphs())
    assert [next(out), next(out)] == [report(generate_named("golomb")), report(generate_named("empty", n=2))]
    with pytest.raises(OSError, match="input gone"):
        next(out)


def reference_hoffman(data) -> float:
    """The ratio bound from one graph's decomposition: the oracle for the stacked `bounds._hoffman`."""
    return float(-data.lam_min * data.n / (data.lam_max - data.lam_min))


def reference_closed_form(data) -> tuple:
    """(value, condition) from one graph's decomposition and walk: the oracle for the stacked `bounds._closed_form`."""
    n = data.n
    lam1, lamn = data.lam_max, data.lam_min
    rates, weights = data.walk.rates, data.walk.weights
    w1 = weights[-1] if abs(rates[-1] - lam1) <= spectral.TOL_CLUSTER * max(1.0, abs(lam1)) else 0.0
    if w1 <= 0.0:
        return None, False
    excess = max(0.0, n - w1)
    if excess <= spectral.TOL_WEIGHT * n:
        excess = 0.0
    ratio = -lamn * excess / (lam1 * w1)
    condition = ratio <= 1.0 + bounds.CONDITION_TOL
    if not condition:
        return None, False
    r = math.sqrt(lam1 * excess / (-lamn * w1))
    value = (-n * lamn / (lam1 - lamn)) * (w1 / n) * (1.0 + r) ** 2
    return float(value), True


def walk_slope(data, x: float) -> float:
    """W'(x) of data.walk as walk_minima sums it: w r / (q q) per term, left to right."""
    return sum((w * r / ((1.0 - r * x) * (1.0 - r * x)) for w, r in zip(data.walk.weights, data.walk.rates)), 0.0)


def check_walk_minima_against_the_scalar_path(graphs):
    """walk_minima of graphs of mixed orders, padded into one stack, equals itself row by row alone and
    walk_minimum's value to 1e-13; its x has W'(x) >= 0 and W' < 0 four ulps left, unless x is within four
    ulps of 1/lam_min. The reports' walkgen, hoffman and closed_form equal the one-graph oracles."""
    datas = [eig_sym(adjacency(g)) for g in graphs if g.num_edges]
    stacked = [column.tolist() for column in spectral.walk_minima(*walk_stacks(datas))]
    for i, data in enumerate(datas):
        x, value, *top = (column[i] for column in stacked)
        assert top == [data.walk.rates[-1], data.walk.weights[-1]], i
        assert value == pytest.approx(walk_minimum(data, hi=0.0).value, rel=1e-13, abs=0.0), i
        ulps = 4 * np.spacing(abs(x))
        assert walk_slope(data, x) >= 0.0, i
        assert walk_slope(data, x - ulps) < 0.0 or x - 1.0 / data.lam_min <= ulps, i
        alone = [column.tolist() for column in spectral.walk_minima(*walk_stacks([data]))]
        assert alone == [[column[i]] for column in stacked], i
    walkgen = iter(stacked[1])
    datas = iter(datas)
    for g, got in zip(graphs, bounds.reports(graphs)):
        if not g.num_edges:
            continue
        data, deg = next(datas), g.degrees()
        assert got["bounds"]["walkgen"] == next(walkgen)
        assert got["bounds"]["hoffman"] == (reference_hoffman(data) if deg.min() == deg.max() else None)
        value, condition = reference_closed_form(data)
        assert got["bounds"]["closed_form"] == {"value": value, "condition": condition}


@settings(max_examples=10, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2 ** 32 - 1), extra=st.integers(1, bounds.CHUNK))
def test_walk_minima_equals_the_scalar_search_on_random_graphs(seed, extra):
    rng = np.random.default_rng(seed)
    check_walk_minima_against_the_scalar_path([random_graph(rng) for _ in range(bounds.CHUNK + extra)])


def test_walk_minima_equals_the_scalar_search_on_atlas_fixtures_and_clusters():
    nx = pytest.importorskip("networkx")
    graphs = [Graph(h.number_of_nodes(), h.edges()) for h in nx.graph_atlas_g()[1:]]
    graphs += [g for _, g in fixture_graphs()] + cluster_graphs()
    np.random.default_rng(35).shuffle(graphs)
    check_walk_minima_against_the_scalar_path(graphs)


def test_laplacian_bound_broadcasts_over_a_stack():
    graphs = [generate_named("golomb"), generate_named("petersen"), Graph(10, [(0, 1)])]
    a = np.stack([adjacency(g) for g in graphs])
    deg = np.stack([g.degrees() for g in graphs])
    stacked = laplacian_bound(a, deg)
    assert stacked.shape == (3,)
    assert stacked.tolist() == [laplacian_bound(adjacency(g), g.degrees()) for g in graphs]


def test_laplacian_bound_agrees_with_eigh_on_atlas_and_fixtures():
    nx = pytest.importorskip("networkx")
    graphs = [Graph(h.number_of_nodes(), h.edges()) for h in nx.graph_atlas_g()[1:]]
    graphs += [g for _, g in fixture_graphs()]
    assert len(graphs) >= 1252
    for g in graphs:
        if not g.num_edges:
            assert report(g)["bounds"]["laplacian"] == g.n
            continue
        deg = g.degrees()
        got = laplacian_bound(adjacency(g), deg)
        want = g.n * (1.0 - deg.min() / np.linalg.eigh(laplacian(g))[0][-1])
        assert abs(got - want) <= 1e-13 * abs(want), (g, got, want)
