"""Exact independence number by branch and bound over vertex bitmasks."""

from __future__ import annotations

from .graphs import Graph

__all__ = ["independence_number", "max_independent_set"]


def max_independent_set(g: Graph) -> list:
    """A maximum independent set, found by branch and bound with bitsets.

    Practical for n up to roughly 30 at desk scale; the bound prunes on the
    count of remaining candidate vertices.
    """
    n = g.n
    closed = [1 << i for i in range(n)]  # vertex plus its neighborhood
    for i, j in zip(g.rows.tolist(), g.cols.tolist()):
        closed[i] |= 1 << j
        closed[j] |= 1 << i

    best_size = 0
    best_set = 0

    def popcount(m: int) -> int:
        return bin(m).count("1")

    stack = [( (1 << n) - 1, 0, 0)]
    while stack:
        avail, chosen_mask, chosen_size = stack.pop()
        if chosen_size + popcount(avail) <= best_size:
            continue
        if avail == 0:
            best_size = chosen_size
            best_set = chosen_mask
            continue
        # branch on the lowest remaining vertex: in or out
        low = avail & -avail
        v = low.bit_length() - 1
        stack.append((avail & ~low, chosen_mask, chosen_size))
        stack.append((avail & ~closed[v], chosen_mask | low, chosen_size + 1))

    return [i for i in range(n) if best_set >> i & 1]


def independence_number(g: Graph) -> int:
    return len(max_independent_set(g))
