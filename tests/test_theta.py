import math
import re
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import plain_alpha, random_weighted_matrix, reference_optimal_scaling
from walktheta import bounds, cli, graphs, independent_set, spectral, theta
from walktheta.corpus import random_graph
from walktheta.graphs import Graph, adjacency, generate_named, strong_product
from walktheta.independent_set import independence_number, max_independent_set
from walktheta.spectral import eig_sym
from walktheta.theta import (
    RESIDUAL_TOL,
    extract_optimizer,
    minimize_theta,
    optimal_scaling,
    submultiplicativity_check,
)

SQRT5 = math.sqrt(5.0)
# the factor pairs of `walktheta verify product`
VERIFY_PRODUCT_PAIRS = [
    ("C5", "C5"), ("K2", "K2"), ("empty3", "K2"), ("P5", "C5"),
    ("K4", "P2"), ("C7", "K2"), ("P5", "P5"), ("K2", "C5"),
    ("empty3", "empty6"), ("star4", "K2"),
]


# --- independence oracle (package solver vs plain enumeration and networkx) ---

def test_independence_number_matches_plain_oracle(corpus):
    for name, g in corpus:
        if g.n <= 14:
            assert independence_number(g) == plain_alpha(g), name


def test_max_independent_set_is_independent():
    g = generate_named("petersen")
    chosen = max_independent_set(g)
    assert len(chosen) == 4
    for i in chosen:
        for j in chosen:
            assert i == j or (min(i, j), max(i, j)) not in g.edges


def networkx_alpha(g: Graph) -> int:
    """Independence number as networkx's maximum clique of the complement."""
    nx = pytest.importorskip("networkx")
    h = nx.Graph()
    h.add_nodes_from(range(g.n))
    h.add_edges_from(g.edges)
    return nx.max_weight_clique(nx.complement(h), weight=None)[1]


def assert_exact_alpha(g: Graph, alpha: int) -> None:
    chosen = set(max_independent_set(g))
    assert len(chosen) == alpha
    assert not any(i in chosen and j in chosen for i, j in g.edges)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(n=st.integers(0, 40), p=st.floats(0.0, 1.0), seed=st.integers(0, 2**32 - 1))
def test_max_independent_set_matches_networkx(n, p, seed):
    rng = np.random.default_rng(seed)
    g = Graph(n, [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p])
    assert_exact_alpha(g, networkx_alpha(g))


@pytest.mark.parametrize("family, sizes, alpha", [
    ("path", range(2, 61), lambda n: (n + 1) // 2),
    ("cycle", range(3, 62), lambda n: n // 2),
    ("kneser", range(4, 13), lambda n: n - 1),      # Kneser(n, 2); Erdos-Ko-Rado: the stars of a point
])
def test_max_independent_set_families(family, sizes, alpha):
    for n in sizes:
        g = generate_named(family, n=n, k=2) if family == "kneser" else generate_named(family, n=n)
        assert networkx_alpha(g) == alpha(n), (family, n)
        assert_exact_alpha(g, alpha(n))


def test_max_independent_set_edgeless_runs_deeper_than_the_recursion_limit():
    assert_exact_alpha(generate_named("empty", n=1500), 1500)


@pytest.mark.parametrize("seed", [1, 2])
def test_max_independent_set_theta_mix(seed):
    """The `perfbench/inputs.py` theta-mix graphs: C5, Petersen, Kneser(7,2), G(30, .5), G(60, .5)."""
    rng = np.random.default_rng(seed)
    mix = [generate_named("cycle", n=5), generate_named("petersen"), generate_named("kneser", n=7, k=2)]
    for n in (30, 60):
        rows, cols = np.triu_indices(n, 1)
        keep = rng.random(len(rows)) < 0.5
        mix.append(Graph(n, zip(rows[keep].tolist(), cols[keep].tolist())))
    for g in mix:
        assert_exact_alpha(g, networkx_alpha(g))


# --- lambda_max of the penalized matrix ---

def penalized(g: Graph, weights) -> np.ndarray:
    """J - A(weights); its spectrum is taken by plain numpy, the oracle of the solver's values."""
    return np.ones((g.n, g.n)) - adjacency(g, weights)


def test_lambda_max_all_zero_weights():
    g = generate_named("cycle", n=5)
    vals, vecs = np.linalg.eigh(penalized(g, [0.0] * 5))
    assert vals[-1] == pytest.approx(5.0)
    assert vals[-2] < vals[-1] - 1.0    # a simple top eigenvalue
    assert abs(vecs[:, -1] @ np.ones(5)) == pytest.approx(math.sqrt(5.0))


@pytest.mark.parametrize("w", [0.0, 0.5, 1.0, 1.7])
def test_lambda_max_k2_analytic(w):
    g = generate_named("complete", n=2)
    assert np.linalg.eigvalsh(penalized(g, [w]))[-1] == pytest.approx(1.0 + abs(1.0 - w), abs=1e-12)


# --- the estimator ---

def test_minimize_theta_complete_graphs():
    for n in (3, 4, 6):
        est = minimize_theta(generate_named("complete", n=n), known_alpha=1)
        assert est.upper == pytest.approx(1.0, abs=1e-4)
        assert est.lower == 1.0


def test_minimize_theta_c5():
    g = generate_named("cycle", n=5)
    est = minimize_theta(g, known_alpha=independence_number(g))
    assert est.upper == pytest.approx(SQRT5, abs=1e-3)
    assert est.lower == 2.0
    assert est.converged
    assert np.linalg.eigvalsh(penalized(g, est.weights))[-1] == pytest.approx(est.upper, abs=1e-9)


def test_minimize_theta_petersen():
    g = generate_named("petersen")
    est = minimize_theta(g, known_alpha=independence_number(g))
    assert est.upper == pytest.approx(4.0, abs=1e-3)
    assert est.lower == 4.0


def test_minimize_theta_reports_known_alpha_without_searching(monkeypatch):
    def no_search(g):
        raise AssertionError("minimize_theta must not search for an independent set")

    monkeypatch.setattr(independent_set, "max_independent_set", no_search)
    est = minimize_theta(generate_named("petersen"), max_iter=50, known_alpha=4)
    assert est.lower == 4.0 and type(est.lower) is float
    assert minimize_theta(generate_named("cycle", n=5), max_iter=50).lower is None


def test_minimize_theta_edgeless():
    est = minimize_theta(generate_named("empty", n=4))
    assert est.upper == 4.0
    assert est.weights == ()
    assert est.converged


def test_minimize_theta_monotone_history_and_soundness():
    g = generate_named("golomb")
    est = minimize_theta(g, known_alpha=independence_number(g))
    # the best upper seen only decreases: no worse than the first iterate's, at all-ones weights
    assert est.upper <= np.linalg.eigvalsh(np.ones((g.n, g.n)) - adjacency(g))[-1]
    assert est.upper >= est.lower - 1e-7
    assert est.upper <= g.n


def test_minimize_theta_json_schema():
    est = minimize_theta(generate_named("cycle", n=4))
    payload = est.to_json_dict()
    assert set(payload) == {"upper", "certified_lower", "lower", "iterations", "converged", "weights"}
    assert len(payload["weights"]) == 4


def test_minimize_theta_skips_cluster_weights(eig_calls):
    # the ADMM decomposes with eigh_checked and clusters nothing
    counts = []
    for max_iter in (5, 50):
        minimize_theta(generate_named("petersen"), max_iter=max_iter)
        counts.append(len(eig_calls))
        eig_calls.clear()
    assert counts[0] == counts[1] <= 2


def test_minimize_theta_keeps_residual_check(monkeypatch):
    monkeypatch.setattr(np.linalg, "eigh", lambda m: (np.zeros(len(m)), np.eye(len(m))))
    with pytest.raises(np.linalg.LinAlgError, match="residual"):
        minimize_theta(generate_named("petersen"), max_iter=50)


# --- the certified bracket, at zero tolerance ---

# theta-mix seed 2602's G(30, .5) (`perfbench/inputs.py`), alpha = 7 = theta
THETA_MIX_2602_G30 = r"]alRUrQdHrIgT~KzTwAgPvHSsOkiXhmhmI]oBI\yYV[oxHXKb[tf[Qzr\zw\Ehpm_XRwQ`glDo"


def complete_bipartite(a: int, b: int) -> Graph:
    return Graph(a + b, frozenset((i, a + j) for i in range(a) for j in range(b)))


def complement(g: Graph) -> Graph:
    return Graph(g.n, frozenset((i, j) for i in range(g.n) for j in range(i + 1, g.n)) - g.edges)


def assert_brackets(est, exact) -> None:
    """certified_lower <= exact <= upper, compared exactly against an int or a 50-digit mpf."""
    with mp.workdps(50):
        assert mp.mpf(est.certified_lower) <= exact <= mp.mpf(est.upper), (est.certified_lower, exact, est.upper)


def odd_cycle_theta(n: int):
    with mp.workdps(50):
        c = mp.cos(mp.pi / n)
        return n * c / (1 + c)


# (name, graph, theta): closed forms (Lovasz 1979), and theta = alpha on bipartite graphs and theta-mix 2602,
# where float rounding of lambda_max printed upper below alpha (P17: 8.999999999999995, P25: 12.999999999999993)
KNOWN_THETA = ([(f"C{n}", generate_named("cycle", n=n), odd_cycle_theta(n)) for n in range(5, 22, 2)]
               + [("petersen", generate_named("petersen"), 4),
                  ("kneser7_2", generate_named("kneser", n=7, k=2), 6),
                  ("kneser9_2", generate_named("kneser", n=9, k=2), 8)]
               + [(f"P{n}", generate_named("path", n=n), (n + 1) // 2) for n in range(2, 26)]
               + [(f"C{n}", generate_named("cycle", n=n), n // 2) for n in range(4, 21, 2)]
               + [(f"K{a},{b}", complete_bipartite(a, b), max(a, b)) for a in range(1, 8) for b in range(1, 10)]
               + [("theta-mix 2602", graphs.parse_graph6(THETA_MIX_2602_G30), 7)])


@pytest.mark.parametrize("name, g, exact", KNOWN_THETA, ids=[case[0] for case in KNOWN_THETA])
def test_certified_bracket_contains_known_theta(name, g, exact):
    est = minimize_theta(g)
    assert_brackets(est, exact)
    assert est.converged


def test_every_bound_covers_known_theta():
    """Every printed bound is >= theta, to 1e-12 relative while the bounds are not certified;
    on a regular graph walkgen is Hoffman's ratio at the wall 1/lam_min, which is theta on these families."""
    for (name, g, exact), got in zip(KNOWN_THETA, bounds.reports(g for _, g, _ in KNOWN_THETA), strict=True):
        printed = {**got["bounds"], "closed_form": got["bounds"]["closed_form"]["value"]}
        for key, value in printed.items():
            assert value is None or value >= exact * (1 - 1e-12), (name, key, value, exact)
        deg = g.degrees()
        if deg.min() == deg.max():
            assert abs(printed["walkgen"] - exact) <= 1e-13 * exact, (name, printed["walkgen"], exact)


@pytest.mark.parametrize("g", [generate_named("cycle", n=5), generate_named("cycle", n=7),
                               generate_named("cycle", n=9), generate_named("petersen"),
                               generate_named("kneser", n=7, k=2)], ids=["C5", "C7", "C9", "petersen", "kneser7_2"])
def test_vertex_transitive_theta_times_complement_theta_is_n(g):
    """theta(G) theta(complement of G) = n for vertex-transitive G (Lovasz 1979, Thm 8), exact products."""
    est, co = minimize_theta(g), minimize_theta(complement(g))
    assert Fraction(est.certified_lower) * Fraction(co.certified_lower) <= g.n
    assert g.n <= Fraction(est.upper) * Fraction(co.upper)


def test_upper_below_known_alpha_raises(monkeypatch):
    """A sub-alpha upper would falsify theta >= alpha: ValueError, so the CLI exits 1."""
    real = spectral.lambda_max_upper
    monkeypatch.setattr(spectral, "lambda_max_upper", lambda m: real(m) - 1e-3)
    p5 = generate_named("path", n=5)
    with pytest.raises(ValueError, match="below the known independence number 3"):
        minimize_theta(p5, known_alpha=3)
    minimize_theta(p5, known_alpha=2)
    assert cli.main(["theta", "--named", "path", "--n", "5", "--alpha-oracle"]) == 1


def test_certificate_failure_exits_1(monkeypatch, capsys):
    def never(m):
        raise np.linalg.LinAlgError("Matrix is not positive definite")

    monkeypatch.setattr(np.linalg, "cholesky", never)
    with pytest.raises(np.linalg.LinAlgError, match="no certified upper bound"):
        minimize_theta(generate_named("cycle", n=5))
    assert cli.main(["theta", "--named", "cycle", "--n", "5"]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and "no certified upper bound" in captured.err


# --- scaling duality ---

def scaled_lambda_max(a: np.ndarray, t: float) -> float:
    """lambda_max(J - t*a), computed here rather than read from `optimal_scaling`."""
    return float(np.linalg.eigvalsh(np.ones(a.shape) - t * a)[-1])


def test_optimal_scaling_c5():
    a = adjacency(generate_named("cycle", n=5))
    t, walk_min = optimal_scaling(a)
    value = scaled_lambda_max(a, t)
    assert value == pytest.approx(SQRT5, abs=1e-6)
    assert value == pytest.approx(walk_min, abs=1e-6)
    assert walk_min == spectral.walk_minimum(eig_sym(a)).value


def test_optimal_scaling_p17():
    a = adjacency(generate_named("path", n=17))
    t, _ = optimal_scaling(a)
    value = scaled_lambda_max(a, t)
    assert value == pytest.approx(9.0, abs=1e-6)


def test_optimal_scaling_k2():
    a = adjacency(generate_named("complete", n=2))
    t, _ = optimal_scaling(a)
    value = scaled_lambda_max(a, t)
    assert t == pytest.approx(1.0, abs=1e-6)
    assert value == pytest.approx(1.0, abs=1e-9)


def test_optimal_scaling_zero_matrix():
    """lambda_max(J - t*0) = n for every t, so t = 0 is a minimiser and W = n."""
    t, value = optimal_scaling(np.zeros((4, 4)))
    assert t == 0.0
    assert value == 4.0


def test_scaling_duality_random():
    rng = np.random.default_rng(31)
    for _ in range(25):
        a = random_weighted_matrix(rng)
        t, direct = optimal_scaling(a)
        scaled = scaled_lambda_max(a, t)
        assert abs(scaled - direct) <= 1e-6
        _, searched = reference_optimal_scaling(a)
        assert abs(scaled - searched) <= 1e-9 * abs(searched)


@pytest.mark.parametrize("family, n", [("cycle", n) for n in range(5, 22, 2)]
                         + [("kneser", n) for n in range(5, 10)])
def test_optimal_scaling_known_theta(family, n):
    # odd cycles and Kneser(n, 2) are edge-transitive: unit weights are optimal (Lovasz 1979)
    if family == "cycle":
        c = math.cos(math.pi / n)
        g, theta_known = generate_named("cycle", n=n), n * c / (1.0 + c)
    else:
        g, theta_known = generate_named("kneser", n=n, k=2), float(n - 1)
    a = adjacency(g)
    t, _ = optimal_scaling(a)
    value = scaled_lambda_max(a, t)
    assert abs(value - theta_known) <= 1e-13 * theta_known


# --- optimizer vector extraction ---

def test_extract_optimizer_zero_matrix():
    cert = extract_optimizer(np.zeros((4, 4)))
    assert list(cert.v) == [1.0] * 4
    assert cert.norm_sq == 4.0
    assert cert.residual_orth == 0.0
    assert cert.residual_sphere == 0.0
    assert cert.walk_min == 4.0


def test_signed_four_cycle_walk_is_constant():
    """A 1 = 0 with A != 0: every walk weight sits at rate 0, so W = n at x* = 0 and v = 1."""
    a = np.array([[0, 1, -1, 0], [1, 0, 0, -1], [-1, 0, 0, 1], [0, -1, 1, 0]], dtype=float)
    opt = spectral.walk_minimum(eig_sym(a))
    assert (opt.x_star, opt.value) == (0.0, 4.0)
    cert = extract_optimizer(a)
    assert list(cert.v) == [1.0] * 4
    assert (cert.residual_orth, cert.residual_sphere, cert.walk_min) == (0.0, 0.0, 4.0)
    t, value = optimal_scaling(a)
    assert t == 0.0
    assert abs(float(np.linalg.eigvalsh(np.ones((4, 4)))[-1]) - value) <= 1e-12


def test_extract_optimizer_p17_interior():
    a = adjacency(generate_named("path", n=17))
    cert = extract_optimizer(a)
    assert cert.norm_sq == pytest.approx(9.0, abs=1e-6)
    assert cert.residual_orth <= 1e-8
    assert cert.residual_sphere <= 1e-8


def test_extract_optimizer_c5_endpoint():
    a = adjacency(generate_named("cycle", n=5))
    cert = extract_optimizer(a)
    assert cert.norm_sq == pytest.approx(SQRT5, abs=1e-6)
    assert cert.residual_orth <= 1e-8
    assert cert.residual_sphere <= 1e-8


def certify(a: np.ndarray) -> None:
    cert = extract_optimizer(a)
    scale = max(cert.norm_sq, 1e-30)
    norm_a = float(np.linalg.norm(a))
    assert cert.residual_orth <= RESIDUAL_TOL * max(1.0, norm_a) * scale
    assert cert.residual_sphere <= RESIDUAL_TOL * scale
    assert cert.walk_min == spectral.walk_minimum(eig_sym(a)).value
    assert abs(cert.norm_sq - cert.walk_min) <= 1e-6


def test_extract_optimizer_corpus_and_random(corpus):
    for name, g in corpus:
        certify(adjacency(g))
    rng = np.random.default_rng(37)
    for _ in range(30):
        certify(random_weighted_matrix(rng))


# --- strong-product machinery ---

def shifted_product(a_g, a_h, gamma_g, gamma_h) -> np.ndarray:
    """`theta._shifted_product` of two factor matrices, each decomposed here."""
    return theta._shifted_product(a_g, eig_sym(a_g), gamma_g, a_h, eig_sym(a_h), gamma_h)


def test_product_adjacency_zero_factors():
    e2 = adjacency(generate_named("empty", n=2))
    e3 = adjacency(generate_named("empty", n=3))
    m = shifted_product(e2, e3, 2.5, -1.5)
    assert m.shape == (6, 6) and not m.any()


def test_product_adjacency_k2_eigenvalues():
    k2 = adjacency(generate_named("complete", n=2))
    m = shifted_product(k2, k2, 1.0, 1.0)
    eigs = sorted(np.linalg.eigvalsh(m))
    assert eigs == pytest.approx([-1.0, -1.0, -1.0, 3.0])


def test_product_adjacency_structure_random_weights():
    rng = np.random.default_rng(13)
    g = generate_named("cycle", n=5)
    h = generate_named("path", n=4)
    a_g = adjacency(g, rng.uniform(0.5, 1.5, size=5))
    a_h = adjacency(h, rng.uniform(0.5, 1.5, size=3))
    lam_g = np.linalg.eigvalsh(a_g)
    lam_h = np.linalg.eigvalsh(a_h)
    gamma_g = -float(lam_g[0]) + 0.7
    gamma_h = -float(lam_h[0]) + 0.3
    m = shifted_product(a_g, a_h, gamma_g, gamma_h)
    assert not np.diag(m).any()
    support = strong_product(g, h).edges
    nz = {(i, j) for i in range(20) for j in range(i + 1, 20) if m[i, j] != 0.0}
    assert nz <= support
    # eigenvalue formula (mu+gg)(nu+gh) - gg*gh over factor pairs
    expected = sorted(
        (mu + gamma_g) * (nu + gamma_h) - gamma_g * gamma_h
        for mu in lam_g for nu in lam_h
    )
    assert np.allclose(sorted(np.linalg.eigvalsh(m)), expected, atol=1e-8)


def test_product_adjacency_forbidden_band():
    k2 = adjacency(generate_named("complete", n=2))
    with pytest.raises(ValueError, match="forbidden band"):
        shifted_product(k2, k2, 0.0, 1.0)


@pytest.mark.parametrize("na,nb", [
    ("C5", "C5"), ("K2", "K2"), ("P3", "C4"), ("K4", "P2"),
    ("star4", "K3"), ("empty3", "C5"),
])
def test_product_eigenvalue_formula_on_fixture_pairs(corpus, na, nb):
    graphs = dict(corpus)
    g, h = graphs[na], graphs[nb]
    a_g, a_h = adjacency(g), adjacency(h)
    lam_g = np.linalg.eigvalsh(a_g) if g.n else np.zeros(0)
    lam_h = np.linalg.eigvalsh(a_h) if h.n else np.zeros(0)
    gamma_g = -float(lam_g[0]) + 0.5
    gamma_h = -float(lam_h[0]) + 1.25
    m = shifted_product(a_g, a_h, gamma_g, gamma_h)
    expected = sorted(
        (mu + gamma_g) * (nu + gamma_h) - gamma_g * gamma_h
        for mu in lam_g for nu in lam_h
    )
    assert np.allclose(sorted(np.linalg.eigvalsh(m)), expected, atol=1e-8)


def test_submultiplicativity_fixtures():
    c5 = generate_named("cycle", n=5)
    k2 = generate_named("complete", n=2)
    lhs, rhs, ok = submultiplicativity_check(c5, c5)
    assert ok and lhs <= 5.0 + 1e-6
    lhs, rhs, ok = submultiplicativity_check(k2, k2)
    assert ok and lhs <= 1.0 + 1e-6
    e2 = generate_named("empty", n=2)
    e3 = generate_named("empty", n=3)
    lhs, rhs, ok = submultiplicativity_check(e2, e3)
    assert ok and lhs == pytest.approx(6.0) and rhs == pytest.approx(6.0)


@pytest.mark.parametrize("pair", [(0, 3), (3, 0), (0, 0)])
def test_submultiplicativity_with_a_zero_vertex_factor(pair):
    g, h = (Graph(0) if n == 0 else generate_named("path", n=n) for n in pair)
    assert submultiplicativity_check(g, h) == (0.0, 0.0, True)


def test_grid_gammas_are_bounded_away_from_zero(corpus):
    """|gamma| >= 1 with an edge (lam_max >= 1, lam_min <= -1), >= 0.5 without: no grid product vanishes."""
    for name, g in corpus:
        data = eig_sym(adjacency(g))
        gammas = theta._valid_gamma_samples(data, theta.GRID)
        assert len(gammas) >= theta.GRID, name
        assert min(map(abs, gammas)) >= (1.0 if g.edges else 0.5), name


def test_theta_estimate_c5_product_sandwich():
    c5 = generate_named("cycle", n=5)
    product = strong_product(c5, c5)
    assert independence_number(product) == 5
    est = minimize_theta(product, max_iter=250)
    assert est.upper == pytest.approx(5.0, abs=1e-2)
    assert est.upper >= 5.0 - 1e-7


# --- one decomposition per matrix ---

def test_extract_optimizer_decomposes_once(eig_calls):
    # golomb's minimum is interior, C5's sits at an interval endpoint
    for name, params in (("golomb", {}), ("cycle", {"n": 5})):
        eig_calls.clear()
        extract_optimizer(adjacency(generate_named(name, **params)))
        assert len(eig_calls) == 1, name


def test_submultiplicativity_decomposes_each_factor_once(eig_calls):
    g, h = generate_named("cycle", n=5), generate_named("path", n=3)
    submultiplicativity_check(g, h)
    factors = [m for m in eig_calls if m.shape != (15, 15)]
    assert len(factors) == 2
    assert np.array_equal(factors[0], adjacency(g))
    assert np.array_equal(factors[1], adjacency(h))
    # the grid products' spectra come from the factors; the identity samples decompose nothing
    assert len(eig_calls) == len(factors)


def test_submultiplicativity_reads_product_eigenvectors_once(monkeypatch):
    """Only the grid point that sets lhs builds product eigenvectors, for its residual check."""
    calls = []
    real = theta._product_spectrum
    monkeypatch.setattr(theta, "_product_spectrum", lambda *args: calls.append(args) or real(*args))
    g, h = generate_named("cycle", n=5), generate_named("path", n=3)
    lhs, _, _ = submultiplicativity_check(g, h)
    assert len(calls) == 1
    data_g, gg, data_h, gh = calls[0]
    assert theta._product_walk(data_g, gg, data_h, gh) == theta._product_walk(eig_sym(adjacency(g)), gg,
                                                                              eig_sym(adjacency(h)), gh)
    assert spectral.walk_minimum(theta._product_walk(data_g, gg, data_h, gh)).value == lhs


def test_submultiplicativity_builds_product_graph_once(monkeypatch):
    """Not even once: the shifted products are built without the product's `Graph`."""
    built = []
    real = graphs.strong_product
    monkeypatch.setattr(graphs, "strong_product", lambda g, h: built.append(1) or real(g, h))
    submultiplicativity_check(generate_named("cycle", n=5), generate_named("path", n=3))
    assert len(built) == 0


# --- grid products' walk functions from the factors' walk terms ---

def assert_product_walk_matches_matrix_route(a_g, a_h, gamma_pairs) -> int:
    """At each (gamma_g, gamma_h), the factor-term walk has the product matrix walk's term count,
    extreme eigenvalues to 1e-12 of the norm and walk minimum to 1e-12 relative; its extremes and
    order are exactly those of the full product eigenvalue vector. Returns the count of pairs."""
    data_g, data_h = eig_sym(a_g), eig_sym(a_h)
    for gg, gh in gamma_pairs:
        derived = theta._product_walk(data_g, gg, data_h, gh)
        vals, _ = theta._product_spectrum(data_g, gg, data_h, gh)
        assert (derived.lam_min, derived.lam_max, derived.n) == (vals.min(), vals.max(), len(vals))
        m = theta._shifted_product(a_g, data_g, gg, a_h, data_h, gh)
        direct = eig_sym(m)
        assert len(derived.walk.rates) == len(direct.walk.rates), (gg, gh)
        for got, want in ((derived.lam_min, direct.lam_min), (derived.lam_max, direct.lam_max)):
            assert abs(got - want) <= 1e-12 * max(1.0, float(np.linalg.norm(m))), (gg, gh)
        got, want = spectral.walk_minimum(derived).value, spectral.walk_minimum(direct).value
        assert abs(got - want) <= 1e-12 * abs(want), (gg, gh)
    return len(gamma_pairs)


def test_product_walk_matches_matrix_route_on_verify_pairs(corpus):
    """Every grid point of `verify product` against `eig_sym` of the shifted product matrix."""
    graphs = dict(corpus)
    points = 0
    for na, nb in VERIFY_PRODUCT_PAIRS:
        a_g, a_h = adjacency(graphs[na]), adjacency(graphs[nb])
        data_g, data_h = eig_sym(a_g), eig_sym(a_h)
        grid_h = theta._valid_gamma_samples(data_h, 8)
        grid = [(gg, gh) for gg in theta._valid_gamma_samples(data_g, 8) for gh in grid_h if abs(gg * gh) >= 1e-12]
        points += assert_product_walk_matches_matrix_route(a_g, a_h, grid)
    assert points == 944


SMALL_FACTORS = ("P5", "star4", "C5", "K2", "P2", "K4", "C7", "empty3")


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2**32 - 1), named=st.tuples(st.sampled_from(SMALL_FACTORS + (None,)),
                                                        st.sampled_from(SMALL_FACTORS + (None,))))
def test_product_walk_matches_matrix_route_on_random_pairs(corpus, seed, named):
    """Random and fixture factors (P5 and the star have zero-weight clusters), n_g * n_h <= 49,
    at grid gammas and random valid gammas."""
    rng = np.random.default_rng(seed)
    g, h = (dict(corpus)[name] if name else random_graph(rng, n_max=7) for name in named)
    assume(g.n * h.n <= 49)
    a_g, a_h = adjacency(g), adjacency(h)
    data_g, data_h = eig_sym(a_g), eig_sym(a_h)
    grid = list(zip(theta._valid_gamma_samples(data_g, 4), theta._valid_gamma_samples(data_h, 4)))
    sampled = list(zip(theta._valid_gamma_samples(data_g, 4, rng), theta._valid_gamma_samples(data_h, 4, rng)))
    assert_product_walk_matches_matrix_route(a_g, a_h, [(gg, gh) for gg, gh in grid + sampled
                                                        if abs(gg * gh) >= 1e-12])


def test_product_spectrum_is_checked_against_the_product_matrix(monkeypatch):
    """Eigenpairs that are not the product's fail the residual check at the grid point that sets lhs."""
    real = theta._product_spectrum

    def perturbed(data_g, gamma_g, data_h, gamma_h):
        vals, vecs = real(data_g, gamma_g, data_h, gamma_h)
        return vals + 1e-4 * np.linalg.norm(vals), vecs   # 1e-8 * norm * n is allowed

    monkeypatch.setattr(theta, "_product_spectrum", perturbed)
    c5 = generate_named("cycle", n=5)
    with pytest.raises(np.linalg.LinAlgError, match="residual"):
        submultiplicativity_check(c5, c5)
    assert cli.main(["verify", "product"]) == 1


# --- the factorization identity, one batched solve per pair ---

def test_batched_identity_equals_per_sample_solves_on_verify_pairs(corpus):
    """The stacked product and batched solve give each sample's `_walk_value` bit for bit."""
    graphs = dict(corpus)
    for i, (na, nb) in enumerate(VERIFY_PRODUCT_PAIRS):
        a_g, a_h = adjacency(graphs[na]), adjacency(graphs[nb])
        data_g, data_h = eig_sym(a_g), eig_sym(a_h)
        rng = np.random.default_rng(i)
        samples_g = theta._valid_gamma_samples(data_g, 50, rng)
        samples_h = theta._valid_gamma_samples(data_h, 50, rng)
        xs = [-1.0 / (gg * gh) for gg, gh in zip(samples_g, samples_h)]
        stacked = theta._shifted_product(a_g, data_g, np.array(samples_g), a_h, data_h, np.array(samples_h))
        batched = theta._walk_value(stacked, np.array(xs))
        for k, (gg, gh, x) in enumerate(zip(samples_g, samples_h, xs)):
            single = theta._shifted_product(a_g, data_g, gg, a_h, data_h, gh)
            assert np.array_equal(stacked[k], single) and np.array_equal(np.signbit(stacked[k]), np.signbit(single))
            assert batched[k] == theta._walk_value(single, x), (na, nb, k)


def test_failed_identity_names_the_first_sample(corpus, monkeypatch):
    graphs = dict(corpus)
    p5, c5 = graphs["P5"], graphs["C5"]
    rng = np.random.default_rng(7)
    gg = theta._valid_gamma_samples(eig_sym(adjacency(p5)), theta.N_RANDOM, rng)[0]
    gh = theta._valid_gamma_samples(eig_sym(adjacency(c5)), theta.N_RANDOM, rng)[0]
    monkeypatch.setattr(theta, "IDENTITY_TOL", -1.0)
    with pytest.raises(AssertionError, match=re.escape(f"failed at gammas ({gg}, {gh}): ")):
        submultiplicativity_check(p5, c5, seed=7)


# --- the shifted product, built without a mask ---

def reference_shifted_product(a_g, gamma_g, a_h, gamma_h, product: Graph) -> np.ndarray:
    """The masked Kronecker build that `theta._shifted_product` replaced, kept as its oracle.

    np.kron of the shifted factors, less gamma_g*gamma_h on the diagonal,
    then copied onto the strong product's edges of a zero matrix.
    """
    ng, nh = len(a_g), len(a_h)
    m = np.kron(a_g + gamma_g * np.eye(ng), a_h + gamma_h * np.eye(nh))
    m -= gamma_g * gamma_h * np.eye(ng * nh)
    return adjacency(product, m[product.rows, product.cols])


def assert_shifted_product_matches_reference(g, h, a_g, a_h, gamma_pairs):
    data_g, data_h = eig_sym(a_g), eig_sym(a_h)
    product = strong_product(g, h)
    for gg, gh in gamma_pairs(data_g, data_h):
        built = theta._shifted_product(a_g, data_g, gg, a_h, data_h, gh)
        expected = reference_shifted_product(a_g, gg, a_h, gh, product)
        assert np.array_equal(built, expected), (g, h, gg, gh)
        assert np.array_equal(np.signbit(built), np.signbit(expected)), (g, h, gg, gh)


def test_shifted_product_equals_masked_kron_on_verify_pairs(corpus):
    """Bit for bit, signed zeros included, at the grid gammas of `submultiplicativity_check`."""
    graphs = dict(corpus)

    def grid(data_g, data_h):
        grid_h = theta._valid_gamma_samples(data_h, 8)
        return [(gg, gh) for gg in theta._valid_gamma_samples(data_g, 8) for gh in grid_h]

    for na, nb in VERIFY_PRODUCT_PAIRS:
        g, h = graphs[na], graphs[nb]
        assert_shifted_product_matches_reference(g, h, adjacency(g), adjacency(h), grid)


def test_shifted_product_equals_masked_kron_on_weighted_factors(corpus):
    """Signed random edge weights, at random valid gammas."""
    graphs = dict(corpus)
    rng = np.random.default_rng(5)

    def sampled(data_g, data_h):
        samples_g = theta._valid_gamma_samples(data_g, 20, rng)
        return list(zip(samples_g, theta._valid_gamma_samples(data_h, 20, rng)))

    for na, nb in VERIFY_PRODUCT_PAIRS:
        g, h = graphs[na], graphs[nb]
        a_g = adjacency(g, rng.uniform(-1.5, 1.5, size=g.num_edges))
        a_h = adjacency(h, rng.uniform(-1.5, 1.5, size=h.num_edges))
        assert_shifted_product_matches_reference(g, h, a_g, a_h, sampled)


# gammas of the identity sample of P5 x C5 at seed 210 (`verify all --seed 207`) that the
# spectral evaluation of the product's walk sum missed by 4.2e-8 relative
P5_C5_SEED_210_GAMMAS = (-2.788529850019644, 6.839497369997376)


def test_factorization_identity_holds_on_p5_c5_at_seed_210(corpus):
    graphs = dict(corpus)
    p5, c5 = graphs["P5"], graphs["C5"]
    _, _, ok = submultiplicativity_check(p5, c5, seed=210)
    assert ok
    a_g, a_h = adjacency(p5), adjacency(c5)
    data_g, data_h = eig_sym(a_g), eig_sym(a_h)
    gg, gh = P5_C5_SEED_210_GAMMAS
    assert gg in theta._valid_gamma_samples(data_g, 50, np.random.default_rng(210))
    m = theta._shifted_product(a_g, data_g, gg, a_h, data_h, gh)
    x = -1.0 / (gg * gh)
    with mp.workdps(50):
        exact = mp.fsum(mp.lu_solve(mp.eye(len(m)) - mp.mpf(x) * mp.matrix(m.tolist()), mp.ones(len(m), 1)))
    assert abs(theta._walk_value(m, x) - float(exact)) <= 1e-13
