"""Exact independence number: a max-clique branch and bound in the complement, over vertex bitmasks."""

from __future__ import annotations

from .graphs import Graph

__all__ = ["independence_number", "max_independent_set"]


def max_independent_set(g: Graph) -> list:
    """A maximum independent set, exact for every n; the search is exponential in the worst case.

    Tomita & Seki's colouring bound (DMTCS 2003, LNCS 2731) for cliques of the complement: greedy cliques
    of g, lowest degree first, number the candidates, and a vertex of clique k is cut where size + k <= best.
    The branches sit on an explicit stack, so a search alpha deep never meets Python's recursion limit.
    """
    from array import array     # here, so runs without --alpha-oracle never load its extension module

    perm = (-g.degrees()).argsort(kind="stable")   # bit b stands for vertex perm[b]
    label = perm.argsort()
    closed = [1 << b for b in range(g.n)]  # vertex plus its neighborhood
    for i, j in zip(label[g.rows].tolist(), label[g.cols].tolist()):
        closed[i] |= 1 << j
        closed[j] |= 1 << i

    def colour(cand: int) -> tuple:     # (vertices, clique numbers) of cand, numbers ascending
        vs, ks, k = array("i"), array("i"), 0    # C ints: a dive d deep holds about d * n of them
        while cand:
            k, q = k + 1, cand
            while q:
                v = q.bit_length() - 1
                cand ^= 1 << v
                q &= cand & closed[v]
                vs.append(v)
                ks.append(k)
        return vs, ks

    best_size, best_set, stack = 0, 0, [[0, 0, (1 << g.n) - 1, *colour((1 << g.n) - 1)]]
    while stack:    # a frame: chosen set, its size, its candidates, its branches
        chosen, size, cand, vs, ks = frame = stack[-1]
        if not vs or size + ks.pop() <= best_size:
            stack.pop()
            continue
        v = vs.pop()
        frame[2] = cand ^ 1 << v     # the later branches here go without v
        chosen, size, cand = chosen | 1 << v, size + 1, cand & ~closed[v]
        if size > best_size:
            best_size, best_set = size, chosen
        stack.append([chosen, size, cand, *colour(cand)])
    return sorted(perm[[b for b in range(g.n) if best_set >> b & 1]].tolist())


def independence_number(g: Graph) -> int:
    return len(max_independent_set(g))
