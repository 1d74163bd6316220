"""Spectral upper bounds on the independence and theta numbers of a graph."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import spectral
from .graphs import Graph, adjacency

__all__ = ["BoundReport", "laplacian_bound", "report"]

DOMINANCE_TOL = 1e-8
CONDITION_TOL = 1e-9


@dataclass(frozen=True)
class BoundReport:
    """All bounds for one graph, with the dominance check already evaluated."""

    n: int
    hoffman_regular: float          # None unless the graph is regular with edges
    walkgen_bound: float
    closed_form_value: float        # None when the ratio condition fails or no edges
    closed_form_condition: bool     # None for edgeless graphs
    laplacian_bound: float
    independence_witness: int
    dominance_ok: bool

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "bounds": {
                "hoffman": self.hoffman_regular,
                "walkgen": self.walkgen_bound,
                "closed_form": {
                    "value": self.closed_form_value,
                    "condition": self.closed_form_condition,
                },
                "laplacian": self.laplacian_bound,
            },
            "dominance_ok": self.dominance_ok,
            "alpha_witness": self.independence_witness,
        }


def _hoffman(data: spectral.SpectralData) -> float:
    return float(-data.lam_min * data.n / (data.lam_max - data.lam_min))


def _closed_form(data: spectral.SpectralData) -> tuple:
    n = data.n
    lam1, lamn = data.lam_max, data.lam_min
    # cluster cuts are wider than this tolerance: only the top cluster can match lam1
    rates, weights = data.walk.rates, data.walk.weights
    w1 = weights[-1] if abs(rates[-1] - lam1) <= spectral.TOL_CLUSTER * max(1.0, abs(lam1)) else 0.0
    if w1 <= 0.0:
        return None, False
    excess = max(0.0, n - w1)
    if excess <= spectral.TOL_WEIGHT * n:
        excess = 0.0            # residual weight below the cluster-drop threshold
    ratio = -lamn * excess / (lam1 * w1)
    condition = ratio <= 1.0 + CONDITION_TOL
    if not condition:
        return None, False
    r = math.sqrt(lam1 * excess / (-lamn * w1))
    value = (-n * lamn / (lam1 - lamn)) * (w1 / n) * (1.0 + r) ** 2
    return float(value), True


def laplacian_bound(g: Graph) -> float:
    """n * (1 - min_degree / lam_max(L)); edgeless graphs give the trivial n."""
    if not g.num_edges:
        return float(g.n)
    return _laplacian_bound(adjacency(g), g.degrees())


def _laplacian_bound(a: np.ndarray, deg: np.ndarray) -> float:
    """n (1 - min(deg) / lam_max(L)) of L = diag(deg) - a, with edges; lam_max is bracketed, not decomposed."""
    mu1 = spectral.lambda_max_bracketed(np.diag(deg) - a)
    return float(len(deg) * (1.0 - int(deg.min()) / mu1))


def report(g: Graph, known_alpha: int = None) -> BoundReport:
    """Assemble all bounds and check dominance of the walkgen bound.

    When a known independence number is supplied, every computed bound must
    cover it; a violation raises since it would falsify a theorem. The
    adjacency matrix and the degrees are built once. The adjacency is
    decomposed once and shared by the walkgen, ratio and closed-form bounds;
    the Laplacian's lambda_max is read from eigvalsh and bracketed.
    """
    if g.num_edges:
        a, deg = adjacency(g), g.degrees()
        data = spectral.eig_sym(a)
        wg = spectral.walk_minimum(data, hi=0.0).value
        hoff = _hoffman(data) if deg.min() == deg.max() else None
        cf_value, cf_condition = _closed_form(data)
        lap = _laplacian_bound(a, deg)
    else:
        wg, hoff, cf_value, cf_condition, lap = float(g.n), None, None, None, float(g.n)
    dominance_ok = wg <= lap + DOMINANCE_TOL
    if known_alpha is not None:
        for name, value in (("walkgen", wg), ("laplacian", lap),
                            ("hoffman", hoff), ("closed_form", cf_value)):
            if value is not None and value < known_alpha - DOMINANCE_TOL:
                raise ValueError(
                    f"{name} bound {value} fell below the known independence number {known_alpha}"
                )
    return BoundReport(
        n=g.n,
        hoffman_regular=hoff,
        walkgen_bound=float(wg),
        closed_form_value=cf_value,
        closed_form_condition=cf_condition,
        laplacian_bound=float(lap),
        independence_witness=known_alpha,
        dominance_ok=bool(dominance_ok),
    )
