"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest -v tests/test_acceptance.py` (add -s to see the lines as
they print). Every tolerance is fixed here; nothing is calibrated at runtime.
"""

import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

from conftest import build_corpus, random_graph, random_weighted_matrix, reference_optimal_scaling
from walktheta.bounds import report
from walktheta.corpus import random_instance
from walktheta.graphs import adjacency, generate_named, strong_product
from walktheta.independent_set import independence_number
from walktheta.reciprocal import (
    central_strip,
    enumerate_critical_points,
    has_critical_points,
    verify_duality,
)
from walktheta.spectral import eig_sym, walk_minimum
from walktheta.theta import (
    RESIDUAL_TOL,
    extract_optimizer,
    minimize_theta,
    submultiplicativity_check,
)

SQRT5 = math.sqrt(5.0)


@contextmanager
def criterion(num: int, label: str, limit_s: float):
    start = time.perf_counter()
    try:
        yield
    except Exception:
        print(f"criterion {num:02d} [{label}]: FAIL", flush=True)
        raise
    elapsed = time.perf_counter() - start
    verdict = "PASS" if elapsed < limit_s else "FAIL (over time budget)"
    print(f"criterion {num:02d} [{label}]: {verdict} ({elapsed:.2f}s < {limit_s:g}s)", flush=True)
    assert elapsed < limit_s, f"runtime {elapsed:.2f}s exceeded {limit_s}s"


def test_criterion_01_golomb_figure_value():
    with criterion(1, "golomb walkgen bound", 1.0):
        value = report(generate_named("golomb"))["bounds"]["walkgen"]
        assert value == pytest.approx(4.744, abs=2e-3)


def test_criterion_02_p17_figure_value():
    with criterion(2, "p17 walkgen bound and maximal critical point", 1.0):
        p17 = generate_named("path", n=17)
        assert report(p17)["bounds"]["walkgen"] == pytest.approx(9.0, abs=1e-6)
        rep = verify_duality(eig_sym(adjacency(p17)).walk)
        assert rep.duality_holds
        assert rep.maximal[1] == pytest.approx(9.0, abs=1e-6)
        lo, hi = rep.strip
        assert lo < rep.maximal[0] < hi


def test_criterion_03_regular_collapse():
    with criterion(3, "regular graphs collapse to the ratio bound", 1.0):
        graphs = [generate_named("cycle", n=5), generate_named("cycle", n=7),
                  generate_named("petersen")]
        graphs += [generate_named("complete", n=n) for n in range(2, 9)]
        for g in graphs:
            b = report(g)["bounds"]
            assert abs(b["walkgen"] - b["hoffman"]) <= 1e-9


def test_criterion_04_dominance_over_corpus():
    with criterion(4, "dominance over the laplacian bound, 500+ graphs", 30.0):
        graphs = [g for _, g in build_corpus()]
        rng = np.random.default_rng(104)
        while len(graphs) < 500:
            graphs.append(random_graph(rng, n_max=12))
        assert len(graphs) >= 500
        for g in graphs:
            b = report(g)["bounds"]
            assert b["walkgen"] <= b["laplacian"] + 1e-8


def test_criterion_05_reciprocal_duality():
    with criterion(5, "maximal critical point duality + iff condition", 10.0):
        rng = np.random.default_rng(105)
        checked = 0
        while checked < 500:
            f = random_instance(rng)
            if not has_critical_points(f) or central_strip(f) is None:
                continue
            rep = verify_duality(f)
            lo, hi = rep.strip
            inside = [p for p in rep.critical_points if lo < p[0] < hi]
            assert abs(rep.maximal[1] - rep.strip_min[1]) <= 1e-8 * (1.0 + abs(rep.strip_min[1]))
            assert lo < rep.maximal[0] < hi
            assert len(inside) == 1
            checked += 1
        branches = {True: 0, False: 0}
        for _ in range(500):
            f = random_instance(rng)
            expected = has_critical_points(f)
            assert expected == bool(enumerate_critical_points(f)[0])
            branches[expected] += 1
        assert branches[True] > 0 and branches[False] > 0


def test_criterion_06_scaling_duality():
    with criterion(6, "min_t lambda_max(J - tA) equals the interval minimum", 60.0):
        rng = np.random.default_rng(106)
        for _ in range(100):
            a = random_weighted_matrix(rng)
            _, scaled = reference_optimal_scaling(a)
            direct = walk_minimum(eig_sym(a)).value
            assert abs(scaled - direct) <= 1e-6


def test_criterion_07_optimizer_certificates():
    with criterion(7, "optimizer vector residuals and norm", 30.0):
        mats = [adjacency(g) for _, g in build_corpus()]
        rng = np.random.default_rng(107)
        mats += [random_weighted_matrix(rng) for _ in range(100)]
        for a in mats:
            cert = extract_optimizer(a)
            scale = max(cert.norm_sq, 1e-30)
            norm_a = float(np.linalg.norm(a))
            assert cert.residual_orth <= RESIDUAL_TOL * max(1.0, norm_a) * scale
            assert cert.residual_sphere <= RESIDUAL_TOL * scale
            assert abs(cert.norm_sq - walk_minimum(eig_sym(a)).value) <= 1e-6


def test_criterion_08_theta_sandwich_closures():
    with criterion(8, "theta estimates close the sandwich", 120.0):
        for n in (3, 6):
            kn = generate_named("complete", n=n)
            est = minimize_theta(kn)
            assert independence_number(kn) == 1
            assert est.upper == pytest.approx(1.0, abs=1e-3)

        c5 = generate_named("cycle", n=5)
        alpha_sq = independence_number(strong_product(c5, c5))
        assert alpha_sq == 5  # forces theta(C5) >= sqrt(5)
        est = minimize_theta(c5)
        assert est.upper == pytest.approx(math.sqrt(alpha_sq), abs=1e-3)

        petersen = generate_named("petersen")
        assert independence_number(petersen) == 4
        est = minimize_theta(petersen)
        assert est.upper == pytest.approx(4.0, abs=1e-3)

        p17 = generate_named("path", n=17)
        assert independence_number(p17) == 9
        est = minimize_theta(p17)
        assert est.upper == pytest.approx(9.0, abs=1e-3)


def test_criterion_09_submultiplicativity():
    with criterion(9, "product factorization identity and bound", 120.0):
        fixtures = {
            "K2": generate_named("complete", n=2),
            "K4": generate_named("complete", n=4),
            "C5": generate_named("cycle", n=5),
            "C7": generate_named("cycle", n=7),
            "P5": generate_named("path", n=5),
            "empty3": generate_named("empty", n=3),
            "empty6": generate_named("empty", n=6),
            "star4": generate_named("path", n=2),
            "P3": generate_named("path", n=3),
            "C4": generate_named("cycle", n=4),
        }
        pairs = [("C5", "C5"), ("K2", "K2"), ("K4", "P3"), ("P5", "C5"),
                 ("C7", "K2"), ("P5", "P5"), ("empty3", "K2"), ("empty3", "empty6"),
                 ("C4", "C4"), ("star4", "P3")]
        for a, b in pairs:
            # the identity is verified inside at theta.N_RANDOM = 50 random valid gamma pairs
            lhs, rhs, ok = submultiplicativity_check(fixtures[a], fixtures[b], seed=109)
            assert ok and lhs <= rhs + 1e-6, (a, b, lhs, rhs)

        c5 = fixtures["C5"]
        product = strong_product(c5, c5)
        assert independence_number(product) == 5
        est = minimize_theta(product, max_iter=250)
        assert est.upper == pytest.approx(5.0, abs=1e-2)


def test_criterion_10_isolated_vertex_stability():
    with criterion(10, "adding an isolated vertex adds exactly one", 5.0):
        graphs = [g for _, g in build_corpus()]
        rng = np.random.default_rng(110)
        while len(graphs) < 50:
            graphs.append(random_graph(rng, n_max=10, allow_isolated=False))
        for g in graphs[:50]:
            base = report(g)["bounds"]["walkgen"]
            grown = report(g.add_isolated_vertex())["bounds"]["walkgen"]
            assert abs(grown - (base + 1.0)) <= 1e-8
