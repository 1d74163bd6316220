import math
from unittest import mock

import mpmath as mp
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from walktheta import reciprocal, spectral
from walktheta.corpus import fixture_graphs, random_graph, random_instance
from walktheta.graphs import adjacency, generate_named
from walktheta.reciprocal import (
    DERIV_TOL,
    X_TOL,
    ReciprocalSum,
    central_strip,
    enumerate_critical_points,
    has_critical_points,
    verify_duality,
)
from walktheta.spectral import eig_sym


def reference_bisect(f: ReciprocalSum, a: float, b: float, da: float, x_tol: float, d_tol: float) -> float:
    """Root of f' on [a, b] (f'(a) = da, f'(b) of the other sign) to d_tol or x_tol, by bisection.

    The search `ReciprocalSum.minimize` and the critical-point scan used before
    their safeguarded Newton iteration; kept as the oracle `reciprocal._root`
    is compared against.
    """
    for _ in range(200):
        mid = 0.5 * (a + b)
        d = f.derivative(mid)
        if abs(d) <= d_tol or b - a <= x_tol:
            return mid
        if (d < 0.0) == (da < 0.0):
            a = mid
        else:
            b = mid
    return mid


def by_reference(call, *args):
    """`call(*args)` with the reference bisection in place of `reciprocal._root`."""
    with mock.patch.object(reciprocal, "_root", reference_bisect):
        return call(*args)


def reference_isolate(f: ReciprocalSum, cuts: list) -> tuple:
    """`reciprocal._isolate` as numpy arrays over all intervals of a halving round at once.

    The body it had before its plain-float loops, kept as their oracle: below 8
    terms numpy's sums run in the same order, so every result is identical;
    from 8 terms on only f'(a) may differ, in its last ulp.
    """
    p = np.array([1.0 / b for b in f.rates if b])
    d = np.array([w / b for w, b in zip(f.weights, f.rates) if b])
    x = np.array([cuts[:-1], cuts[1:]]).T               # interval ends
    q = x[:, :, None] - p
    q[:, 1][q[:, 1] == 0.0] = -0.0                      # a pole at a right end is approached from below
    brackets, zeros, unresolved = [], [], 0
    with np.errstate(divide="ignore"):
        t = d / q ** 2                                  # terms of f' at the ends
        while len(x):
            s, ends = t / q, t.sum(2)                   # terms of f'' over -2; f' at the ends
            holds_root = (t.min(1).sum(1) <= 0.0) & (t.max(1).sum(1) >= 0.0)
            monotone = (s.min(1).sum(1) > 0.0) | (s.max(1).sum(1) < 0.0)
            crossing, finite = np.sign(ends).prod(1) < 0.0, np.isfinite(ends).all(1)
            found = holds_root & monotone & crossing & finite
            brackets += zip(*x[found].T.tolist(), ends[found, 0].tolist())
            split = holds_root & ~(monotone & (finite | ~crossing))
            wide = x[:, 1] - x[:, 0] > X_TOL * np.maximum(1.0, np.abs(x).max(1))
            unresolved += int(np.count_nonzero(split & ~wide))
            split &= wide
            mid = 0.5 * (x[split, 0] + x[split, 1])
            q_mid = mid[:, None] - p
            t_mid = d / q_mid ** 2
            zeros += mid[t_mid.sum(1) == 0.0].tolist()
            x, q, t = (np.concatenate((v[split], v[split])) for v in (x, q, t))
            for v, at_mid in ((x, mid), (q, q_mid), (t, t_mid)):
                v[: len(mid), 1] = v[len(mid):, 0] = at_mid
    return brackets, zeros, unresolved


def isolation_cuts(f: ReciprocalSum) -> list:
    """The cuts `enumerate_critical_points` isolates between."""
    reach = 2.0 ** math.ceil(math.log2(2.0 * max(map(abs, f.poles)) + 1.0))
    return [-reach, *f.poles, reach]


def assert_isolates_as_reference(f: ReciprocalSum) -> None:
    """Same bracket ends, signs of f'(a), halving zeros and unresolved count; all of it below 8 terms."""
    cuts = isolation_cuts(f)
    got, ref = reciprocal._isolate(f, cuts), reference_isolate(f, cuts)
    if len(f.poles) < 8:
        assert got == ref
    (brackets, zeros, unresolved), (ref_brackets, ref_zeros, ref_unresolved) = got, ref
    assert [(a, b) for a, b, _ in brackets] == [(a, b) for a, b, _ in ref_brackets]
    assert [da < 0.0 for _, _, da in brackets] == [da < 0.0 for _, _, da in ref_brackets]
    assert (zeros, unresolved) == (ref_zeros, ref_unresolved)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 24))
def test_isolation_matches_numpy_reference_on_random_sums(seed, n):
    """Mixed-sign rates in [-5, 5], weights in [0.1, 10]."""
    rng = np.random.default_rng(seed)
    rates = rng.uniform(-5.0, 5.0, size=n)
    rates[0], rates[-1] = rng.uniform(0.01, 5.0), -rng.uniform(0.01, 5.0)
    assume(len(set(rates.tolist())) == n and np.all(rates != 0.0))
    assert_isolates_as_reference(ReciprocalSum(tuple(rng.uniform(0.1, 10.0, size=n)), tuple(rates)))


def test_isolation_matches_numpy_reference_on_walk_sums(corpus):
    """The test corpus, P5, P17 (8 poles), and 100 G(n, p) with up to 30 vertices."""
    rng = np.random.default_rng(21)
    graphs = [g for _, g in corpus] + [generate_named("path", n=n) for n in (5, 17)]
    graphs += [random_graph(rng, n_max=30) for _ in range(100)]
    checked = 0
    for g in graphs:
        f = eig_sym(adjacency(g)).walk
        if f.poles:
            assert_isolates_as_reference(f)
            checked += 1
    assert checked >= 100


def test_isolation_keeps_ieee_results_at_poles():
    """A pole at each end of an interval: d / 0 is +-inf and the right end's q is -0.0."""
    f = ReciprocalSum((1.0, 2.0, 1.5), (2.0, -1.0, 0.5))
    cuts = isolation_cuts(f)
    assert cuts[1:-1] == [-1.0, 0.5, 2.0]
    assert reciprocal._isolate(f, cuts) == reference_isolate(f, cuts)
    _, ts, ss, _ = reciprocal._ends(0.5, [(0.5, 4.0)], True)
    assert (ts, ss) == ([math.inf], [-math.inf])
    _, ts, ss, _ = reciprocal._ends(0.5, [(0.5, -4.0)], False)
    assert (ts, ss) == ([-math.inf], [-math.inf])
    assert all(map(math.isnan, reciprocal._hull([math.inf, 1.0], [-math.inf, math.nan])))


def mpmath_critical_points(weights, rates) -> list:
    """Real roots of f' at 50 digits, as floats: `mpmath.polyroots` of the cleared derivative.

    f'(x) = sum(w_i b_i / (1 - b_i x)^2) times prod((1 - b_j x)^2) over the
    nonzero rates is sum_i w_i b_i prod_{j != i} (1 - b_j x)^2. The
    Durand-Kerner iteration starts from numpy's double-precision roots, which
    only speeds its convergence to the same 50-digit tolerance.
    """
    with mp.workdps(50):
        terms = [(mp.mpf(w), mp.mpf(b)) for w, b in zip(weights, rates) if b]
        poly = [mp.mpf(0)] * (2 * len(terms) - 1)   # ascending coefficients
        for i, (w, b) in enumerate(terms):
            term = [w * b]
            for j, (_, c) in enumerate(terms):
                if j != i:          # times (1 - c x)^2 = 1 - 2c x + c^2 x^2
                    term = [u - 2 * c * v + c * c * z for u, v, z in zip(term + [0, 0], [0, *term, 0], [0, 0, *term])]
            poly = [p + t for p, t in zip(poly, term)]
        start = [mp.mpc(complex(r)) for r in np.roots([float(c) for c in poly[::-1]])]
        roots = mp.polyroots(poly[::-1], maxsteps=200, extraprec=200, roots_init=start)
        return sorted(float(r.real) for r in roots if abs(mp.im(r)) < mp.mpf(10) ** -30)


def exact_path_terms(n: int) -> tuple:
    """Weights and rates of the walk function of the path P_n, at 50 digits.

    Its eigenvalues are 2 cos(k pi / (n + 1)), with eigenvectors
    sqrt(2 / (n + 1)) sin(j k pi / (n + 1)). Even k are orthogonal to the
    all-ones vector, and the middle eigenvalue of an odd path is 0 exactly.
    """
    with mp.workdps(50):
        weights, rates = [], []
        for k in range(1, n + 1, 2):
            t = k * mp.pi / (n + 1)
            weights.append(2 * mp.fsum(mp.sin(j * t) for j in range(1, n + 1)) ** 2 / (n + 1))
            rates.append(mp.mpf(0) if 2 * k == n + 1 else 2 * mp.cos(t))
        return weights, rates


def walk_terms(name, **kwargs) -> ReciprocalSum:
    return eig_sym(adjacency(generate_named(name, **kwargs))).walk


def test_has_critical_points_branches():
    assert not has_critical_points(ReciprocalSum((1.0, 1.0), (2.0, 1.0)))
    assert has_critical_points(ReciprocalSum((1.0,), (0.0,)))
    assert has_critical_points(ReciprocalSum((1.0, 1.0), (1.0, -1.0)))


def test_central_strip_cases():
    assert central_strip(ReciprocalSum((1.0, 1.0), (1.0, -1.0))) == (-1.0, 1.0)
    lo, hi = central_strip(ReciprocalSum((1.0, 1.0, 1.0), (3.0, 2.0, -0.5)))
    assert (lo, hi) == (pytest.approx(-2.0), pytest.approx(1.0 / 3.0))
    assert central_strip(ReciprocalSum((1.0, 1.0), (2.0, 1.0))) is None


def test_symmetric_instance_critical_point():
    f = ReciprocalSum((1.0, 1.0), (1.0, -1.0))
    cps, _ = enumerate_critical_points(f)
    assert len(cps) == 1
    x, value, curvature = cps[0]
    assert x == pytest.approx(0.0, abs=1e-12)
    assert value == pytest.approx(2.0)
    assert curvature > 0


def test_minimize_on_terms():
    """f = 1/(1 - x) + 1/(1 + x): walls at +-1, minimum 2 at 0, f' > 0 for x > 0."""
    f = ReciprocalSum((1.0, 1.0), (1.0, -1.0))
    m = f.minimize(-1.0, 1.0)
    assert (m.x_star, m.value, m.at_endpoint) == (pytest.approx(0.0, abs=1e-12), pytest.approx(2.0), False)
    m = f.minimize(0.1, 0.5)
    assert (m.x_star, m.at_endpoint) == (0.1, True)
    assert m.derivative_at_x > 0.0
    assert m.value == pytest.approx(1.0 / 0.9 + 1.0 / 1.1)
    m = f.minimize(-0.5, -0.1)
    assert (m.x_star, m.at_endpoint) == (-0.1, True)
    assert m.derivative_at_x < 0.0
    m = f.minimize(0.3, 0.3)
    assert (m.x_star, m.at_endpoint) == (0.3, True)


def test_strip_minimum_is_the_largest_critical_value():
    for seed in range(10):
        rng = np.random.default_rng(seed)
        for _ in range(100):
            f = random_instance(rng)
            strip = central_strip(f)
            if strip is None:
                continue
            largest = max(v for _, v, _ in enumerate_critical_points(f)[0])
            m = f.minimize(*strip)
            assert not m.at_endpoint
            assert abs(m.value - largest) <= 1e-12 * abs(largest), (seed, f.weights, f.rates)


def test_p17_maximal_critical_value_is_nine():
    f = walk_terms("path", n=17)
    report = verify_duality(f)
    assert report.duality_holds
    assert report.maximal[1] == pytest.approx(9.0, abs=1e-6)
    lo, hi = report.strip
    assert lo < report.maximal[0] < hi
    # eight critical points, seven of them outside the strip
    exact = mpmath_critical_points(*exact_path_terms(17))
    assert len(exact) == 8
    assert [x for x, _, _ in report.critical_points] == pytest.approx(exact, abs=1e-9)


@pytest.mark.parametrize("n,count", [(5, 2), (17, 8)])
def test_path_critical_points_match_mpmath(n, count):
    """From the exact spectrum, and from `eig_sym`, whose float-noise zero eigenvalue is snapped to 0."""
    weights, rates = exact_path_terms(n)
    exact = mpmath_critical_points(weights, rates)
    assert len(exact) == count
    for f in (ReciprocalSum([float(w) for w in weights], [float(b) for b in rates]), walk_terms("path", n=n)):
        found, unresolved = enumerate_critical_points(f)
        assert unresolved == 0
        assert [x for x, _, _ in found] == pytest.approx(exact, abs=1e-9)
    if n == 5:
        assert exact == pytest.approx([-2.0 / 3.0, -0.5], abs=1e-15)


CLOSE_PAIR_RATES = (-4.28713239022233, -0.27532975522469627, 1.0313145531778045)


def test_close_critical_pair_matches_mpmath():
    """Two roots of f' 3.9e-5 apart near x = -0.69279, both found."""
    weights = (0.19296465924970513, 0.8476384520548665, 1.623217663574219)
    exact = mpmath_critical_points(weights, CLOSE_PAIR_RATES)
    assert len([x for x in exact if abs(x + 0.69279) < 1e-4]) == 2
    found, unresolved = enumerate_critical_points(ReciprocalSum(weights, CLOSE_PAIR_RATES))
    assert unresolved == 0
    assert [x for x, _, _ in found] == pytest.approx(exact, abs=1e-9)


def test_tangent_double_root_is_unresolved():
    """The first weight, from mpmath, merges the close pair into one root of f' and f''.

    Intervals around it never certify either way: they are counted, and the
    duality check fails instead of passing on a silent miss.
    """
    weights = (0.1929646601156672, 0.8476384520548665, 1.623217663574219)
    report = verify_duality(ReciprocalSum(weights, CLOSE_PAIR_RATES))
    assert report.unresolved >= 1
    assert not report.duality_holds


def test_scan_matches_polynomial_oracle():
    f = ReciprocalSum((1.0, 2.0, 1.0), (2.0, -1.0, -3.0))
    scanned = [x for x, _, _ in enumerate_critical_points(f)[0]]
    roots = mpmath_critical_points(f.weights, f.rates)
    assert len(scanned) == len(roots) > 0
    for a, b in zip(scanned, roots):
        assert a == pytest.approx(b, abs=1e-9)


def test_duality_symmetric_and_golomb():
    rep = verify_duality(ReciprocalSum((1.0, 1.0), (1.0, -1.0)))
    assert rep.duality_holds
    assert rep.maximal == (pytest.approx(0.0, abs=1e-12), pytest.approx(2.0))
    assert rep.strip == (-1.0, 1.0)

    rep = verify_duality(walk_terms("golomb"))
    assert rep.duality_holds
    assert rep.strip_min[1] == pytest.approx(4.744, abs=1e-3)


def test_duality_on_random_instances():
    rng = np.random.default_rng(7)
    seen_dual = 0
    for _ in range(500):
        f = random_instance(rng)
        if not has_critical_points(f):
            assert enumerate_critical_points(f)[0] == []
            continue
        report = verify_duality(f)
        assert report.duality_holds, (f.weights, f.rates)
        seen_dual += 1
    assert seen_dual >= 150


def test_iff_critical_point_condition():
    rng = np.random.default_rng(19)
    both = {True: 0, False: 0}
    for _ in range(500):
        f = random_instance(rng)
        expected = has_critical_points(f)
        found = bool(enumerate_critical_points(f)[0])
        assert expected == found, (f.weights, f.rates)
        both[expected] += 1
    assert both[True] > 100 and both[False] > 100


def test_scan_and_polynomial_finders_agree_on_random_instances():
    rng = np.random.default_rng(47)
    for _ in range(150):
        f = random_instance(rng)
        scanned = [x for x, _, _ in enumerate_critical_points(f)[0]]
        roots = mpmath_critical_points(f.weights, f.rates)
        assert len(scanned) == len(roots), (f.weights, f.rates)
        for a, b in zip(scanned, roots):
            assert abs(a - b) <= 1e-9 * (1.0 + abs(b)), (f.weights, f.rates)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_isolation_matches_mpmath_on_random_sums(seed):
    """Against 50-digit roots: a float companion-matrix root finder reports two
    roots on seed 1119, whose rates are all negative, so that f' < 0 everywhere."""
    f = random_instance(np.random.default_rng(seed))
    found, unresolved = enumerate_critical_points(f)
    assert unresolved == 0
    assert [x for x, _, _ in found] == pytest.approx(mpmath_critical_points(f.weights, f.rates), rel=1e-9, abs=1e-9)


def test_critical_point_count_cap():
    rng = np.random.default_rng(23)
    for _ in range(200):
        f = random_instance(rng)
        cps, _ = enumerate_critical_points(f)
        assert len(cps) <= 2 * (len(f.weights) - 1)


def test_strip_positivity_and_convexity():
    rng = np.random.default_rng(29)
    for _ in range(100):
        f = random_instance(rng)
        strip = central_strip(f)
        if strip is None:
            continue
        lo, hi = strip
        width = hi - lo
        for x in np.linspace(lo + 1e-3 * width, hi - 1e-3 * width, 25):
            assert f.value(float(x)) > 0.0
            assert f.second_derivative(float(x)) > 0.0


def test_asymptotic_limit_is_constant_term():
    f = ReciprocalSum((2.0, 3.0, 4.0), (1.5, 0.0, -2.5))
    assert f.value(1e8) == pytest.approx(3.0, abs=1e-6)
    assert f.value(-1e8) == pytest.approx(3.0, abs=1e-6)
    g = ReciprocalSum((2.0, 4.0), (1.5, -2.5))
    assert g.value(1e8) == pytest.approx(0.0, abs=1e-6)


def test_constructor_rejects_bad_terms():
    with pytest.raises(ValueError):
        ReciprocalSum((1.0, -1.0), (1.0, 2.0))
    with pytest.raises(ValueError, match="distinct"):
        ReciprocalSum((1.0, 1.0), (2.0, 2.0))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(
    n=st.integers(1, 6),
    entries=st.lists(st.floats(-2.0, 2.0), min_size=21, max_size=21),
    x=st.floats(-3.0, 3.0),
)
def test_walk_sum_matches_its_definition(n, entries, x):
    """W(x) = <1, (I - xA)^-1 1> for symmetric A, with W' matching a central difference."""
    a = np.zeros((n, n))
    a[np.triu_indices(n)] = entries[: n * (n + 1) // 2]
    a = np.triu(a) + np.triu(a, 1).T
    lam = np.linalg.eigvalsh(a)
    scale = max(1.0, float(np.max(np.abs(lam))))
    gaps = np.diff(lam)
    # clusters merge eigenvalues closer than ~1e-7 * scale; keep away from that regime
    assume(np.all((gaps <= 1e-12 * scale) | (gaps >= 1e-4 * scale)))
    d_min = float(np.min(np.abs(1.0 - lam * x)))
    assume(d_min >= 0.1)
    f = eig_sym(a).walk
    ones = np.ones(n)
    exact = float(ones @ np.linalg.solve(np.eye(n) - x * a, ones))
    magnitude = sum(w / abs(1.0 - r * x) for w, r in zip(f.weights, f.rates))
    assert abs(f.value(x) - exact) <= 1e-9 * (1.0 + magnitude)
    h = 1e-4 * d_min / scale
    central = (f.value(x + h) - f.value(x - h)) / (2.0 * h)
    slope_scale = sum(w * abs(r) / (1.0 - r * x) ** 2 for w, r in zip(f.weights, f.rates))
    assert abs(f.derivative(x) - central) <= 1e-6 * (1.0 + slope_scale)


def assert_matches_reference(f: ReciprocalSum, lo: float, hi: float) -> None:
    """f.minimize(lo, hi) meets the bisection's stopping rule and its value to 1e-14."""
    got, ref = f.minimize(lo, hi), by_reference(f.minimize, lo, hi)
    assert got.at_endpoint == ref.at_endpoint
    if not got.at_endpoint:
        x_tol = X_TOL * max(1.0, abs(lo), abs(hi))
        d_tol = DERIV_TOL * max(1.0, sum(abs(a * b) for a, b in zip(f.weights, f.rates)))
        assert abs(f.derivative(got.x_star)) <= d_tol or abs(got.x_star - ref.x_star) <= x_tol
    assert abs(got.value - ref.value) <= 1e-14 * abs(ref.value)


def assert_same_critical_points(f: ReciprocalSum) -> None:
    got, ref = enumerate_critical_points(f)[0], by_reference(enumerate_critical_points, f)[0]
    assert len(got) == len(ref)
    for (x, v, s), (y, w, t) in zip(got, ref):
        assert s == t and abs(x - y) <= 1e-9 * (1.0 + abs(y)) and abs(v - w) <= 1e-9 * abs(w)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2**32 - 1), u=st.floats(0.001, 0.999), v=st.floats(0.001, 0.999))
def test_newton_root_matches_bisection_on_random_sums(seed, u, v):
    """On the central strip and on a subinterval of it, and over every critical point."""
    f = random_instance(np.random.default_rng(seed))
    strip = central_strip(f)
    if strip is not None:
        lo, hi = strip
        assert_matches_reference(f, lo, hi)
        a, b = sorted((lo + u * (hi - lo), lo + v * (hi - lo)))
        assert_matches_reference(f, a, b)
    assert_same_critical_points(f)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2**32 - 1), n_max=st.integers(2, 30))
def test_newton_root_matches_bisection_on_walk_sums(seed, n_max):
    """The walk bound's interval [1/lam_min, 0] and the whole spectral interval of a G(n, p)."""
    data = eig_sym(adjacency(random_graph(np.random.default_rng(seed), n_max=n_max)))
    assume(any(data.walk.rates))
    f = data.walk
    assert_matches_reference(f, 1.0 / data.lam_min, 0.0)
    assert_matches_reference(f, 1.0 / data.lam_min, 1.0 / data.lam_max)


def test_newton_critical_points_match_bisection_on_fixture_walk_sums():
    for _, g in fixture_graphs():
        if g.edges:
            assert_same_critical_points(eig_sym(adjacency(g)).walk)


def test_walk_minimum_takes_few_search_steps(monkeypatch):
    """Newton needs about 8 steps per interior walk minimum where bisection needs about 33.

    A step is one near_pole guard inside `_root`. The correctness tests above
    cannot see a lost Newton step, since the bracket fallback still converges.
    """
    real_root, real_near_pole = reciprocal._root, ReciprocalSum.near_pole
    steps, inside = [], [False]

    def counted_root(*args):
        steps.append(0)
        inside[0] = True
        try:
            return real_root(*args)
        finally:
            inside[0] = False

    def counted_near_pole(self, x, tol=reciprocal.POLE_TOL):
        if inside[0]:
            steps[-1] += 1
        return real_near_pole(self, x, tol)

    monkeypatch.setattr(reciprocal, "_root", counted_root)
    monkeypatch.setattr(ReciprocalSum, "near_pole", counted_near_pole)
    rng = np.random.default_rng(15)
    for _ in range(200):
        data = eig_sym(adjacency(random_graph(rng)))
        if any(data.walk.rates):
            spectral.walk_minimum(data, hi=0.0)
    assert len(steps) >= 100
    mean = sum(steps) / len(steps)
    assert mean <= 10.0, mean
