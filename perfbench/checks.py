"""Output checks for each workload, from oracles independent of the code under test.

Every check returns one bool per op (a bounds line, a theta instance or a
verify case), so failures count against attempts. Reference facts come from
networkx and plain numpy, computed before the timed region.
"""

from __future__ import annotations

import json
import math

import networkx as nx
import numpy as np
from scipy.optimize import minimize_scalar

REL_ORACLE = 1e-12      # ROADMAP aim 2: agreement with the seed-commit reports
REL_SPECTRAL = 1e-9     # independent eigvalsh recomputation of closed formulas
# Absolute slack for bound orderings: the tolerance bounds.report applies to a
# known alpha. Rounding puts walkgen 4e-15 below alpha = 7 on a seed-13
# circulant; ROADMAP item 4 (outward rounding) is to make this 0.
DOMINANCE_TOL = 1e-8
THETA_KNOWN_TOL = 1e-6


def _close(got, want, rel: float) -> bool:
    if want is None or isinstance(want, bool):
        return got is want
    return isinstance(got, float) and abs(got - want) <= rel * max(1.0, abs(want))


def _greedy_independent(g: nx.Graph) -> int:
    """Size of a min-degree greedy independent set, a lower bound on alpha."""
    h = g.copy()
    size = 0
    while h:
        v = min(h, key=h.degree)
        h.remove_nodes_from([v, *h[v]])
        size += 1
    return size


def bounds_facts(lines: list) -> list:
    """Per graph: n, the expected hoffman and laplacian bounds, and a lower bound on alpha."""
    facts = []
    for line in lines:
        g = nx.from_graph6_bytes(line.encode("ascii"))
        n = g.number_of_nodes()
        a = nx.to_numpy_array(g, nodelist=range(n))
        deg = a.sum(axis=1)
        hoffman = laplacian = None
        if g.number_of_edges():
            mu1 = np.linalg.eigvalsh(np.diag(deg) - a)[-1]
            laplacian = n * (1.0 - deg.min() / mu1)
            if np.all(deg == deg[0]):
                lam = np.linalg.eigvalsh(a)
                hoffman = -lam[0] * n / (lam[-1] - lam[0])
        else:
            laplacian = float(n)
        facts.append({"n": n, "hoffman": hoffman, "laplacian": laplacian,
                      "greedy": _greedy_independent(g)})
    return facts


def check_bounds(out_lines: list, facts: list, oracle: list) -> list:
    """One verdict per input graph; the first len(oracle) graphs also match the oracle."""
    verdicts = []
    for k, fact in enumerate(facts):
        try:
            r = json.loads(out_lines[k])
            b = r["bounds"]
            wg, lap, cf = b["walkgen"], b["laplacian"], b["closed_form"]
            ok = (
                r["n"] == fact["n"]
                and r["dominance_ok"] is True
                and r["alpha_witness"] is None
                and fact["greedy"] - DOMINANCE_TOL <= wg <= lap + DOMINANCE_TOL
                and _close(lap, fact["laplacian"], REL_SPECTRAL)
                and (fact["hoffman"] is None) == (b["hoffman"] is None)
                and (b["hoffman"] is None or _close(b["hoffman"], fact["hoffman"], REL_SPECTRAL))
                and (cf["value"] is not None) == bool(cf["condition"])
                and (cf["value"] is None or cf["value"] >= wg - DOMINANCE_TOL)
            )
            if ok and k < len(oracle):
                ok = _same_report(r, oracle[k]["report"])
        except (IndexError, KeyError, TypeError, ValueError):
            ok = False
        verdicts.append(bool(ok))
    return verdicts


def _same_report(got: dict, want: dict) -> bool:
    gb, wb = got["bounds"], want["bounds"]
    return (
        got["n"] == want["n"]
        and got["dominance_ok"] is want["dominance_ok"]
        and all(_close(gb[k], wb[k], REL_ORACLE) for k in ("hoffman", "walkgen", "laplacian"))
        and _close(gb["closed_form"]["value"], wb["closed_form"]["value"], REL_ORACLE)
        and gb["closed_form"]["condition"] is wb["closed_form"]["condition"]
    )


def ray_bound(a: np.ndarray) -> float:
    """min over t of lambda_max(J - t A): the theta bound of unit edge weights.

    The map is convex, equals n at t = 0 and exceeds it for t < 0 and for
    t >= 2n / |lambda_min(A)|, so its minimum lies in between.
    """
    n = len(a)
    ones = np.ones((n, n))
    reach = 2.0 * n / -np.linalg.eigvalsh(a)[0]
    res = minimize_scalar(lambda t: np.linalg.eigvalsh(ones - t * a)[-1],
                          bounds=(0.0, reach), method="bounded", options={"xatol": 1e-12 * reach})
    return float(res.fun)


def theta_facts(lines: list) -> list:
    """Per instance: edge count, the exact independence number and the ray bound."""
    facts = []
    for line in lines:
        g = nx.from_graph6_bytes(line.encode("ascii"))
        _, alpha = nx.max_weight_clique(nx.complement(g), weight=None)
        ray = ray_bound(nx.to_numpy_array(g, nodelist=range(g.number_of_nodes())))
        facts.append({"m": g.number_of_edges(), "alpha": alpha, "ray": ray})
    return facts


def check_theta(out_lines: list, facts: list, names: tuple, known: dict, max_iter: int) -> list:
    verdicts = []
    for k, (fact, name) in enumerate(zip(facts, names)):
        try:
            r = json.loads(out_lines[k])
            upper = r["upper"]
            ok = (
                upper >= fact["alpha"]          # sound bound: no tolerance
                and r["lower"] is None
                and len(r["weights"]) == fact["m"]
                and 1 <= r["iterations"] <= max_iter
                and (name not in known or abs(upper - known[name]) <= THETA_KNOWN_TOL)
            )
        except (IndexError, KeyError, TypeError, ValueError):
            ok = False
        verdicts.append(bool(ok))
    return verdicts


def check_verify(out_lines: list, exit_code: int, expected_cases: int) -> list:
    """One verdict per expected case; a bad summary or exit code fails them all."""
    try:
        cases = [json.loads(line) for line in out_lines[:-1]]
        summary = json.loads(out_lines[-1])
        sound = (
            exit_code == 0
            and summary["passed"] == summary["total"] == len(cases) == expected_cases
            and summary["ok"] is True
        )
    except (IndexError, KeyError, TypeError, ValueError):
        return [False] * expected_cases
    verdicts = [sound and c.get("ok") is True for c in cases[:expected_cases]]
    return verdicts + [False] * (expected_cases - len(verdicts))


def bound_ratio(workload: str, out_lines: list, facts: list) -> float:
    """Printed upper bounds over a reference bound, summed over the call; lower is tighter.

    Walkgen is divided by the Laplacian bound (bounds-corpus, and the
    dominance suite of verify-all), theta `upper` by the ray bound of unit
    weights, so a solver that does nothing reads 1. Output that does not
    parse reads 0; it has already failed its checks.
    """
    try:
        rows = [json.loads(line) for line in out_lines]
        if workload == "bounds-corpus":
            pairs = [(r["bounds"]["walkgen"], r["bounds"]["laplacian"]) for r in rows]
        elif workload == "theta-mix":
            pairs = [(r["upper"], f["ray"]) for r, f in zip(rows, facts)]
        else:
            pairs = [(r["walkgen"], r["laplacian"]) for r in rows if r.get("suite") == "dominance"]
        return math.fsum(p for p, _ in pairs) / math.fsum(q for _, q in pairs)
    except (KeyError, TypeError, ValueError, ZeroDivisionError):
        return 0.0


def upper_sum(out_lines: list) -> float:
    """theta.upper_sum: the sum of theta `upper` over the instances."""
    try:
        return math.fsum(json.loads(line)["upper"] for line in out_lines)
    except (KeyError, TypeError, ValueError):
        return 0.0
