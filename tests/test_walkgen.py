import math

import numpy as np
import pytest

from conftest import fixture_graphs, random_weighted_matrix, walk_stacks
from walktheta import spectral
from walktheta.graphs import adjacency, generate_named
from walktheta.reciprocal import PoleProximityError, ReciprocalSum
from walktheta.spectral import eig_sym, walk_minimum
from walktheta.theta import extract_optimizer, optimal_scaling

SQRT5 = math.sqrt(5.0)


def test_build_k2():
    fn = eig_sym(adjacency(generate_named("complete", n=2))).walk
    assert fn.rates == (pytest.approx(1.0),)
    assert fn.weights == (pytest.approx(2.0),)


def test_build_zero_matrix():
    fn = eig_sym(np.zeros((4, 4))).walk
    assert fn.rates == (0.0,)
    assert fn.weights == (pytest.approx(4.0),)


def test_build_c5():
    fn = eig_sym(adjacency(generate_named("cycle", n=5))).walk
    assert fn.rates == (pytest.approx(2.0),)
    assert fn.weights == (pytest.approx(5.0),)


def test_value_k2_at_minus_one():
    fn = ReciprocalSum((2.0,), (1.0,))
    assert fn.value(-1.0) == pytest.approx(1.0)


def test_constant_function():
    fn = ReciprocalSum((4.0,), (0.0,))
    assert fn.value(3.7) == 4.0
    assert fn.derivative(-2.0) == 0.0


def test_value_near_pole_raises():
    fn = ReciprocalSum((2.0,), (1.0,))
    with pytest.raises(PoleProximityError) as exc:
        fn.value(1.0 + 1e-12)
    assert exc.value.pole == pytest.approx(1.0)


def test_golomb_interior_minimum_value():
    a = adjacency(generate_named("golomb"))
    opt = walk_minimum(eig_sym(a))
    assert opt.value == pytest.approx(4.744, abs=1e-3)
    assert not opt.at_endpoint
    fn = eig_sym(a).walk
    assert fn.value(opt.x_star) == pytest.approx(opt.value)


def test_minimize_regular_hits_left_endpoint():
    a = adjacency(generate_named("cycle", n=5))
    data = eig_sym(a)
    opt = walk_minimum(data)
    assert opt.at_endpoint
    assert opt.x_star == pytest.approx(1.0 / data.lam_min)
    assert opt.value == pytest.approx(SQRT5, abs=1e-12)


def test_minimize_zero_matrix_is_n_at_zero():
    opt = walk_minimum(eig_sym(np.zeros((7, 7))))
    assert (opt.x_star, opt.value, opt.at_endpoint) == (0.0, 7.0, False)


def test_tiny_fixture_adjacencies_walk_to_n():
    """1e-13 A merges A's eigenvalues into one rate-0 cluster, so its walk minimum is n exactly."""
    for name, g in fixture_graphs():
        data = eig_sym(1e-13 * adjacency(g))
        assert data.walk.rates == (0.0,), name
        assert walk_minimum(data).value == g.n, name


def test_one_signed_spectrum_has_no_interval_minimum():
    """A nonzero walk on a definite or semidefinite matrix: its interval is a pole or empty.

    walk_minima gets it as the second row of a stack, after C5's valid one."""
    one_signed = [np.eye(3), -np.eye(3), np.diag([1.0, 2.0]), np.ones((2, 2)),
                  np.diag([0.0, 1.0]), np.diag([0.0, -1.0])]
    c5 = eig_sym(adjacency(generate_named("cycle", n=5)))
    stacked = lambda m: spectral.walk_minima(*walk_stacks([c5, eig_sym(m)]), 0.0)
    for m in one_signed:
        for solve in (lambda m: walk_minimum(eig_sym(m)), optimal_scaling, extract_optimizer, stacked):
            with pytest.raises(ValueError, match="has one sign") as exc:
                solve(m)
            assert exc.type is ValueError, m


def test_subinterval_c5():
    data = eig_sym(adjacency(generate_named("cycle", n=5)))
    opt = walk_minimum(data, hi=0.0)
    assert opt.value == pytest.approx(SQRT5, abs=1e-12)


def test_subinterval_p17_is_nine():
    data = eig_sym(adjacency(generate_named("path", n=17)))
    opt = walk_minimum(data, hi=0.0)
    assert opt.value == pytest.approx(9.0, abs=1e-6)
    assert not opt.at_endpoint


def test_subinterval_zero_matrix():
    opt = walk_minimum(eig_sym(np.zeros((5, 5))), hi=1.0)
    assert opt.value == 5.0


def test_convexity_on_random_weighted_graphs():
    rng = np.random.default_rng(3)
    checks = 0
    while checks < 1000:
        a = random_weighted_matrix(rng)
        data = eig_sym(a)
        fn = data.walk
        lo, hi = 1.0 / data.lam_min, 1.0 / data.lam_max
        width = hi - lo
        for _ in range(25):
            x1, x2 = sorted(rng.uniform(lo + 1e-3 * width, hi - 1e-3 * width, size=2))
            mid = 0.5 * (x1 + x2)
            assert fn.value(mid) <= 0.5 * (fn.value(x1) + fn.value(x2)) + 1e-9
            checks += 1


def test_derivative_at_zero_counts_edges(corpus):
    for name, g in corpus:
        a = adjacency(g)
        # exact integer identity <1, A 1> = 2|E|
        assert int(np.ones(g.n) @ a @ np.ones(g.n)) == 2 * g.num_edges, name
        fn = eig_sym(a).walk
        assert fn.derivative(0.0) == pytest.approx(2.0 * g.num_edges, abs=1e-8), name


def test_minimum_dominates_kernel_weight(corpus):
    for name, g in corpus:
        a = adjacency(g)
        data = eig_sym(a)
        kernel = sum(w for rep, w in zip(data.walk.rates, data.walk.weights) if abs(rep) < 1e-7)
        opt = walk_minimum(data)
        assert opt.value >= kernel - 1e-8, name
        assert opt.value >= 0.0


def test_derivative_matches_finite_differences():
    rng = np.random.default_rng(5)
    for _ in range(20):
        a = random_weighted_matrix(rng)
        data = eig_sym(a)
        fn = data.walk
        lo, hi = 1.0 / data.lam_min, 1.0 / data.lam_max
        width = hi - lo
        x = float(rng.uniform(lo + 0.1 * width, hi - 0.1 * width))
        h = 1e-5 * width
        approx = (fn.value(x + h) - fn.value(x - h)) / (2.0 * h)
        third = abs(fn.value(x + h) - 2 * fn.value(x) + fn.value(x - h)) / h**2
        assert abs(fn.derivative(x) - approx) <= 10.0 * (third + 1.0) * h**2 / width

