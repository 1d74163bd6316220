import math

import numpy as np
import pytest

from conftest import plain_alpha, random_weighted_matrix
from walktheta import theta
from walktheta.graphs import Graph, adjacency, generate_named, strong_product
from walktheta.independent_set import independence_number, max_independent_set
from walktheta.theta import (
    RESIDUAL_TOL,
    WeightedAdjacency,
    _subgradient,
    _top_cluster,
    extract_optimizer,
    lambda_max_penalized,
    minimize_theta,
    optimal_scaling,
    product_adjacency,
    submultiplicativity_check,
)
from walktheta.walkgen import minimize_on_spectral_interval

SQRT5 = math.sqrt(5.0)


# --- independence oracle (package solver vs plain enumeration) ---

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
            assert i == j or not g.has_edge(i, j)


# --- lambda_max of the penalized matrix ---

def test_lambda_max_all_zero_weights():
    g = generate_named("cycle", n=5)
    value, vec, mult = lambda_max_penalized(g, [0.0] * 5)
    assert value == pytest.approx(5.0)
    assert mult == 1
    assert abs(vec @ np.ones(5)) == pytest.approx(math.sqrt(5.0))


@pytest.mark.parametrize("w", [0.0, 0.5, 1.0, 1.7])
def test_lambda_max_k2_analytic(w):
    g = generate_named("complete", n=2)
    value, _, _ = lambda_max_penalized(g, [w])
    assert value == pytest.approx(1.0 + abs(1.0 - w), abs=1e-12)


# --- the estimator ---

def test_minimize_theta_complete_graphs():
    for n in (3, 4, 6):
        est = minimize_theta(generate_named("complete", n=n), alpha_oracle=True)
        assert est.upper == pytest.approx(1.0, abs=1e-4)
        assert est.lower == 1.0


def test_minimize_theta_c5():
    g = generate_named("cycle", n=5)
    est = minimize_theta(g, alpha_oracle=True)
    assert est.upper == pytest.approx(SQRT5, abs=1e-3)
    assert est.lower == 2.0
    assert est.converged
    value, _, _ = lambda_max_penalized(g, est.weights)
    assert value == pytest.approx(est.upper, abs=1e-9)


def test_minimize_theta_petersen():
    est = minimize_theta(generate_named("petersen"), alpha_oracle=True)
    assert est.upper == pytest.approx(4.0, abs=1e-3)
    assert est.lower == 4.0


def test_minimize_theta_edgeless():
    est = minimize_theta(generate_named("empty", n=4))
    assert est.upper == 4.0
    assert est.weights == ()
    assert est.converged


def test_minimize_theta_monotone_history_and_soundness():
    g = generate_named("golomb")
    est = minimize_theta(g, alpha_oracle=True)
    hist = est.history
    assert all(a >= b for a, b in zip(hist, hist[1:]))
    assert est.upper >= est.lower - 1e-7
    assert est.upper <= g.n


def test_minimize_theta_json_schema():
    est = minimize_theta(generate_named("cycle", n=4))
    payload = est.to_json_dict()
    assert set(payload) == {"upper", "lower", "iterations", "converged", "weights"}
    assert len(payload["weights"]) == 4


def random_gnp(rng, n, p):
    iu, ju = np.triu_indices(n, 1)
    keep = rng.random(len(iu)) < p
    return Graph(n, frozenset(zip(iu[keep].tolist(), ju[keep].tolist())))


def reference_gradient(g, weights):
    """The per-edge loop the vectorised subgradient replaced: matrix fill and gradient."""
    edges = sorted(g.edges)
    a = np.zeros((g.n, g.n))
    for (i, j), w in zip(edges, weights):
        a[i, j] = a[j, i] = w
    b = np.ones((g.n, g.n)) - a
    value, basis = _top_cluster(b)
    grad = np.empty(len(edges))
    for e, (i, j) in enumerate(edges):
        grad[e] = -2.0 * float(np.mean(basis[i, :] * basis[j, :]))
    return b, value, grad, basis.shape[1]


def test_subgradient_equals_per_edge_reference():
    rng = np.random.default_rng(41)
    cases = []
    for n, p in ((8, 0.5), (15, 0.3), (30, 0.5), (41, 0.7)):
        g = random_gnp(rng, n, p)
        cases.append((g, rng.uniform(0.0, 2.0, size=g.num_edges), 1))
    # J - 2A has top eigenvalue 4 with multiplicity 5 on Petersen, and
    # J - A = I (multiplicity 12) on K12: multi-column means
    cases.append((generate_named("petersen"), np.full(15, 2.0), 5))
    cases.append((generate_named("complete", n=12), np.ones(66), 12))
    for g, weights, mult in cases:
        wa = WeightedAdjacency(g, tuple(weights))
        b, value, grad, width = reference_gradient(g, weights)
        assert width == mult
        assert np.array_equal(np.ones((g.n, g.n)) - wa.matrix(), b)
        got_value, got_grad = _subgradient(g.rows, g.cols, b)
        assert got_value == value
        assert np.array_equal(got_grad, grad)


def test_minimize_theta_skips_cluster_weights(eig_calls):
    minimize_theta(generate_named("petersen"), max_iter=50)
    assert eig_calls == []


def test_minimize_theta_keeps_residual_check(monkeypatch):
    monkeypatch.setattr(np.linalg, "eigh", lambda m: (np.zeros(len(m)), np.eye(len(m))))
    with pytest.raises(np.linalg.LinAlgError, match="residual"):
        minimize_theta(generate_named("petersen"), max_iter=50)


# --- scaling duality ---

def test_optimal_scaling_c5():
    a = adjacency(generate_named("cycle", n=5))
    t, value = optimal_scaling(a)
    assert value == pytest.approx(SQRT5, abs=1e-6)
    assert value == pytest.approx(minimize_on_spectral_interval(a).value, abs=1e-6)


def test_optimal_scaling_p17():
    a = adjacency(generate_named("path", n=17))
    _, value = optimal_scaling(a)
    assert value == pytest.approx(9.0, abs=1e-6)


def test_optimal_scaling_k2():
    a = adjacency(generate_named("complete", n=2))
    t, value = optimal_scaling(a)
    assert t == pytest.approx(1.0, abs=1e-6)
    assert value == pytest.approx(1.0, abs=1e-9)


def test_optimal_scaling_rejects_zero():
    with pytest.raises(ValueError):
        optimal_scaling(np.zeros((4, 4)))


def test_scaling_duality_random():
    rng = np.random.default_rng(31)
    for _ in range(25):
        a = random_weighted_matrix(rng)
        _, scaled = optimal_scaling(a)
        direct = minimize_on_spectral_interval(a).value
        assert abs(scaled - direct) <= 1e-6


# --- optimizer vector extraction ---

def test_extract_optimizer_zero_matrix():
    cert = extract_optimizer(np.zeros((4, 4)))
    assert list(cert.v) == [1.0] * 4
    assert cert.norm_sq == 4.0
    assert cert.residual_orth == 0.0
    assert cert.residual_sphere == 0.0


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
    assert abs(cert.norm_sq - minimize_on_spectral_interval(a).value) <= 1e-6


def test_extract_optimizer_corpus_and_random(corpus):
    for name, g in corpus:
        certify(adjacency(g))
    rng = np.random.default_rng(37)
    for _ in range(30):
        certify(random_weighted_matrix(rng))


# --- strong-product machinery ---

def test_product_adjacency_zero_factors():
    e2 = WeightedAdjacency.unweighted(generate_named("empty", n=2))
    e3 = WeightedAdjacency.unweighted(generate_named("empty", n=3))
    p = product_adjacency(e2, e3, 2.5, -1.5)
    assert not p.matrix().any()


def test_product_adjacency_k2_eigenvalues():
    k2 = WeightedAdjacency.unweighted(generate_named("complete", n=2))
    p = product_adjacency(k2, k2, 1.0, 1.0)
    eigs = sorted(np.linalg.eigvalsh(p.matrix()))
    assert eigs == pytest.approx([-1.0, -1.0, -1.0, 3.0])


def test_product_adjacency_structure_random_weights():
    rng = np.random.default_rng(13)
    g = generate_named("cycle", n=5)
    h = generate_named("path", n=4)
    wa_g = WeightedAdjacency(g, tuple(rng.uniform(0.5, 1.5, size=5)))
    wa_h = WeightedAdjacency(h, tuple(rng.uniform(0.5, 1.5, size=3)))
    lam_g = np.linalg.eigvalsh(wa_g.matrix())
    lam_h = np.linalg.eigvalsh(wa_h.matrix())
    gamma_g = -float(lam_g[0]) + 0.7
    gamma_h = -float(lam_h[0]) + 0.3
    p = product_adjacency(wa_g, wa_h, gamma_g, gamma_h)
    m = p.matrix()
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
    k2 = WeightedAdjacency.unweighted(generate_named("complete", n=2))
    with pytest.raises(ValueError, match="forbidden band"):
        product_adjacency(k2, k2, 0.0, 1.0)


@pytest.mark.parametrize("na,nb", [
    ("C5", "C5"), ("K2", "K2"), ("P3", "C4"), ("K4", "P2"),
    ("star4", "K3"), ("empty3", "C5"),
])
def test_product_eigenvalue_formula_on_fixture_pairs(corpus, na, nb):
    graphs = dict(corpus)
    g, h = graphs[na], graphs[nb]
    wa_g = WeightedAdjacency.unweighted(g)
    wa_h = WeightedAdjacency.unweighted(h)
    lam_g = np.linalg.eigvalsh(wa_g.matrix()) if g.n else np.zeros(0)
    lam_h = np.linalg.eigvalsh(wa_h.matrix()) if h.n else np.zeros(0)
    gamma_g = -float(lam_g[0]) + 0.5
    gamma_h = -float(lam_h[0]) + 1.25
    p = product_adjacency(wa_g, wa_h, gamma_g, gamma_h)
    expected = sorted(
        (mu + gamma_g) * (nu + gamma_h) - gamma_g * gamma_h
        for mu in lam_g for nu in lam_h
    )
    assert np.allclose(sorted(np.linalg.eigvalsh(p.matrix())), expected, atol=1e-8)


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


def test_theta_estimate_c5_product_sandwich():
    c5 = generate_named("cycle", n=5)
    product = strong_product(c5, c5)
    assert independence_number(product) == 5
    # seed the weights through the product construction at the factor optimum
    x_star = minimize_on_spectral_interval(adjacency(c5)).x_star
    gamma = -1.0 / x_star
    wa = WeightedAdjacency.unweighted(c5)
    seed = product_adjacency(wa, wa, gamma, gamma)
    est = minimize_theta(product, init_weights=seed.weights, max_iter=250)
    assert est.upper == pytest.approx(5.0, abs=1e-2)
    assert est.upper >= 5.0 - 1e-7


# --- one decomposition per matrix ---

def test_extract_optimizer_decomposes_once(eig_calls):
    # golomb's minimum is interior, C5's sits at an interval endpoint
    for name in ("golomb", "cycle"):
        eig_calls.clear()
        extract_optimizer(adjacency(generate_named(name, n=5)))
        assert len(eig_calls) == 1, name


def test_submultiplicativity_decomposes_each_factor_once(eig_calls):
    g, h = generate_named("cycle", n=5), generate_named("path", n=3)
    submultiplicativity_check(g, h, grid=4, n_random=5)
    factors = [m for m in eig_calls if m.shape != (15, 15)]
    assert len(factors) == 2
    assert np.array_equal(factors[0], adjacency(g))
    assert np.array_equal(factors[1], adjacency(h))


def test_submultiplicativity_builds_product_graph_once(monkeypatch):
    built = []
    real = theta.strong_product
    monkeypatch.setattr(theta, "strong_product", lambda g, h: built.append(1) or real(g, h))
    submultiplicativity_check(generate_named("cycle", n=5), generate_named("path", n=3),
                              grid=4, n_random=5)
    assert len(built) == 1
