"""Spectral upper bounds on the independence and theta numbers of a graph."""

from __future__ import annotations

import numpy as np

from . import spectral
from .graphs import Graph, adjacency

__all__ = ["laplacian_bound", "report", "reports"]

DOMINANCE_TOL = 1e-8
CONDITION_TOL = 1e-9
# graphs per stacked decomposition: 32 saves less time, a whole file costs more memory
CHUNK = 64


def _hoffman(n, lam1, lamn) -> np.ndarray:
    return -lamn * n / (lam1 - lamn)


def _closed_form(n, lam1, lamn, rate, weight) -> list:
    """(value, condition) of each row, from its order, extreme eigenvalues and top walk term; None where it fails."""
    # cluster cuts are wider than this tolerance: only the top cluster can match lam1
    w1 = np.where(np.abs(rate - lam1) <= spectral.TOL_CLUSTER * np.maximum(1.0, np.abs(lam1)), weight, 0.0)
    excess = np.maximum(0.0, n - w1)
    excess[excess <= spectral.TOL_WEIGHT * n] = 0.0        # residual weight below the cluster-drop threshold
    with np.errstate(divide="ignore", invalid="ignore"):
        condition = (w1 > 0.0) & (-lamn * excess / (lam1 * w1) <= 1.0 + CONDITION_TOL)
        r = np.sqrt(lam1 * excess / (-lamn * w1))
        head = (-n * lamn / (lam1 - lamn)) * (w1 / n)
    # Python's ** 2 is pow, which can round otherwise than numpy's square
    return [(s * (1.0 + t) ** 2, True) if c else (None, False)
            for s, t, c in zip(head.tolist(), r.tolist(), condition.tolist())]


def laplacian_bound(a: np.ndarray, deg: np.ndarray):
    """n (1 - min(deg) / lam_max(L)) of L = diag(deg) - a, with edges; lam_max is bracketed, not decomposed.

    a (..., n, n) and deg (..., n) may carry leading axes of same-order graphs: one `eigvalsh` then reads
    the stack, and the bounds come as an array. One graph gives a float.
    """
    n = deg.shape[-1]
    mu1 = spectral.lambda_max_bracketed(deg[..., :, None] * np.eye(n) - a)
    bound = n * (1.0 - deg.min(axis=-1) / mu1)
    return float(bound) if deg.ndim == 1 else bound


def report(g: Graph, known_alpha: int = None) -> dict:
    """All bounds of g, as the JSON dict `walktheta bounds` prints, with the dominance check evaluated.

    When a known independence number is supplied, every computed bound must
    cover it; a violation raises since it would falsify a theorem. The
    adjacency matrix is built once. It is decomposed once and shared by the
    walkgen, ratio and closed-form bounds; the Laplacian's lambda_max is read
    from eigvalsh and bracketed. The ratio bound is null unless g is regular
    with edges, the closed form unless its condition holds; an edgeless g gets
    walkgen = laplacian = n, condition null. `reports` takes many graphs.
    """
    return _decomposed([(g, known_alpha)])[0]


def reports(graphs, oracle=None):
    """`report(g, oracle(g))` of each of `graphs`, in input order; with no oracle, known_alpha is None.

    Graphs are read CHUNK at a time, and each same-order group of a chunk's
    graphs with edges is decomposed in stacked calls: one checked `eigh` of
    the adjacency matrices and one `eigvalsh` of the Laplacians, which give
    each matrix the values a call on it alone gives; one `spectral.walk_minima`
    bisection then finds the chunk's walk minima, each the value its graph
    gets alone, within 1e-13 of `walk_minimum`'s. A chunk that raises
    ValueError is recomputed one graph at a time, so that the error follows
    the reports of the graphs before it, as does an error raised by `graphs`
    or `oracle`.
    """
    graphs = iter(graphs)
    while True:
        chunk = []
        try:
            for g in graphs:
                chunk.append((g, None if oracle is None else oracle(g)))
                if len(chunk) == CHUNK:
                    break
        except Exception:
            yield from _chunk_reports(chunk)
            raise
        yield from _chunk_reports(chunk)
        if len(chunk) < CHUNK:
            return


def _chunk_reports(chunk: list):
    """The reports of a chunk, or, if it raises ValueError, of its graphs one at a time up to the error."""
    try:
        done = _decomposed(chunk)
    except ValueError:
        for item in chunk:
            yield _decomposed([item])[0]
        return
    yield from done


def _decomposed(chunk: list) -> list:
    """The reports of (graph, known_alpha) pairs; each order's graphs with edges share stacked decompositions."""
    out, groups = [None] * len(chunk), {}
    for k, (g, known_alpha) in enumerate(chunk):
        if g.num_edges:
            groups.setdefault(g.n, []).append(k)
        else:
            out[k] = _report(g, known_alpha, float(g.n), float(g.n))
    if not groups:
        return out
    order = [k for ks in groups.values() for k in ks]
    sizes = np.array([chunk[k][0].n for k in order])
    vals, overlaps = np.zeros((2, len(order), sizes.max()))
    laps, regular = [], []
    for n, ks in groups.items():
        a = np.stack([adjacency(chunk[k][0]) for k in ks])
        deg = a.sum(axis=-1)
        rows = slice(len(laps), len(laps) + len(ks))
        vals[rows, :n], vecs = spectral.eigh_checked(a)
        overlaps[rows, :n] = (np.ones(n) @ vecs) ** 2
        laps += laplacian_bound(a, deg).tolist()
        regular += (deg.min(axis=-1) == deg.max(axis=-1)).tolist()
    _, walkgen, top_rate, top_weight = spectral.walk_minima(vals, overlaps, sizes)
    walkgen = walkgen.tolist()
    lam1, lamn = vals[np.arange(len(order)), sizes - 1], vals[:, 0]
    hoffman = _hoffman(sizes, lam1, lamn).tolist()
    closed_form = _closed_form(sizes, lam1, lamn, top_rate, top_weight)
    for i, k in enumerate(order):
        out[k] = _report(*chunk[k], laps[i], walkgen[i], hoffman[i] if regular[i] else None, *closed_form[i])
    return out


def _report(g: Graph, known_alpha, lap: float, wg: float, hoff=None, cf_value=None, cf_condition=None) -> dict:
    """g's report from its bounds; an edgeless g has walkgen = laplacian = n and no other bound."""
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
