"""Spectral upper bounds on the independence and theta numbers of a graph."""

from __future__ import annotations

import math

import numpy as np

from . import spectral
from .graphs import Graph, adjacency

__all__ = ["laplacian_bound", "report"]

DOMINANCE_TOL = 1e-8
CONDITION_TOL = 1e-9


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


def laplacian_bound(a: np.ndarray, deg: np.ndarray) -> float:
    """n (1 - min(deg) / lam_max(L)) of L = diag(deg) - a, with edges; lam_max is bracketed, not decomposed."""
    mu1 = spectral.lambda_max_bracketed(np.diag(deg) - a)
    return float(len(deg) * (1.0 - int(deg.min()) / mu1))


def report(g: Graph, known_alpha: int = None) -> dict:
    """All bounds of g, as the JSON dict `walktheta bounds` prints, with the dominance check evaluated.

    When a known independence number is supplied, every computed bound must
    cover it; a violation raises since it would falsify a theorem. The
    adjacency matrix and the degrees are built once. The adjacency is
    decomposed once and shared by the walkgen, ratio and closed-form bounds;
    the Laplacian's lambda_max is read from eigvalsh and bracketed. The ratio
    bound is null unless g is regular with edges, the closed form unless its
    condition holds; an edgeless g gets walkgen = laplacian = n, condition null.
    """
    if g.num_edges:
        a, deg = adjacency(g), g.degrees()
        data = spectral.eig_sym(a)
        wg = spectral.walk_minimum(data, hi=0.0).value
        hoff = _hoffman(data) if deg.min() == deg.max() else None
        cf_value, cf_condition = _closed_form(data)
        lap = laplacian_bound(a, deg)
    else:
        wg, hoff, cf_value, cf_condition, lap = float(g.n), None, None, None, float(g.n)
    if known_alpha is not None:
        for name, value in (("walkgen", wg), ("laplacian", lap),
                            ("hoffman", hoff), ("closed_form", cf_value)):
            if value is not None and value < known_alpha - DOMINANCE_TOL:
                raise ValueError(
                    f"{name} bound {value} fell below the known independence number {known_alpha}"
                )
    return _Report(
        n=g.n,
        bounds={"hoffman": hoff, "walkgen": wg, "closed_form": {"value": cf_value, "condition": cf_condition},
                "laplacian": lap},
        dominance_ok=wg <= lap + DOMINANCE_TOL,
        alpha_witness=known_alpha,
    )


class _Report(dict):
    """A report's dict; `to_json_dict`, a plain copy, is the call perfbench/record_oracle.py makes."""
    to_json_dict = dict.copy
