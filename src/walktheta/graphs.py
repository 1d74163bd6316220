"""Simple undirected graphs: parsing, named generators, matrices, strong product."""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations

import numpy as np

__all__ = [
    "Graph",
    "Graph6ParseError",
    "parse_graph6",
    "encode_graph6",
    "parse_edge_list",
    "generate_named",
    "adjacency",
    "strong_product",
    "NAMED_GRAPHS",
]


class Graph6ParseError(ValueError):
    """Malformed graph6 input; `offset` is the byte position of the defect."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (byte offset {offset})")
        self.offset = offset


class Graph:
    """Immutable simple graph on vertices 0..n-1, stored as its edge index.

    The index is a pair of read-only intp arrays `rows` and `cols` with
    rows[k] < cols[k], in sorted order; every matrix view and every
    edge-weight vector follows it. The constructor's `edges` may be any
    iterable of vertex pairs or an (m, 2) int array; reversed and repeated
    pairs collapse. The attribute `edges`, the frozenset of pairs (i, j)
    with i < j, is built on first use. `==` and `hash` mean the same n and
    the same edge set.
    """

    __slots__ = ("n", "rows", "cols", "_edges")

    def __init__(self, n: int, edges=()):
        if n < 0:
            raise ValueError(f"vertex count must be >= 0, got {n}")
        pairs = np.array(edges if isinstance(edges, np.ndarray) else list(edges), dtype=np.intp)
        if pairs.size and (pairs.ndim != 2 or pairs.shape[1] != 2):
            raise ValueError(f"edges must be vertex pairs, got shape {pairs.shape}")
        i, j = pairs.reshape(-1, 2).T
        lo, hi = np.minimum(i, j), np.maximum(i, j)
        loops = lo == hi
        if loops.any():
            raise ValueError(f"self-loop at vertex {lo[loops][0]}")
        outside = (lo < 0) | (hi >= n)
        if outside.any():
            k = np.flatnonzero(outside)[0]
            raise ValueError(f"edge {(int(i[k]), int(j[k]))} has endpoint outside [0, {n})")
        # one sort of the keys lo * n + hi, then repeated pairs dropped
        base = max(n, 1)
        key = np.sort(lo * base + hi)
        first = np.ones(len(key), dtype=bool)
        first[1:] = key[1:] != key[:-1]
        self._set_index(n, *np.divmod(key[first], base))

    @classmethod
    def _from_index(cls, n: int, rows: np.ndarray, cols: np.ndarray) -> "Graph":
        """A graph on an edge index already canonical: intp arrays, rows < cols, sorted."""
        g = cls.__new__(cls)
        g._set_index(n, rows, cols)
        return g

    def _set_index(self, n: int, rows: np.ndarray, cols: np.ndarray) -> None:
        rows.flags.writeable = cols.flags.writeable = False
        for name, value in (("n", n), ("rows", rows), ("cols", cols), ("_edges", None)):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"Graph is immutable; cannot set {name!r}")

    def __reduce__(self):       # pickle and copy rebuild through the index, not __setattr__
        return Graph._from_index, (self.n, self.rows, self.cols)

    @property
    def edges(self) -> frozenset:
        if self._edges is None:
            object.__setattr__(self, "_edges", frozenset(zip(self.rows.tolist(), self.cols.tolist())))
        return self._edges

    def __eq__(self, other):
        if not isinstance(other, Graph):
            return NotImplemented
        # both indexes are canonical, so equal arrays mean equal edge sets
        return (self.n == other.n and np.array_equal(self.rows, other.rows)
                and np.array_equal(self.cols, other.cols))

    def __hash__(self):
        return hash((self.n, self.edges))

    def __repr__(self):
        return f"Graph(n={self.n}, edges={sorted(self.edges)})"

    @property
    def num_edges(self) -> int:
        return len(self.rows)

    def degrees(self) -> np.ndarray:
        return np.bincount(np.concatenate([self.rows, self.cols]), minlength=self.n)

    def add_isolated_vertex(self) -> "Graph":
        return Graph._from_index(self.n + 1, self.rows, self.cols)


# graph6 vertex counts: one byte up to 62, '~' plus three bytes (18 bits) above.
SHORT_FORM_MAX_N = 62
LONG_FORM_MAX_N = (1 << 18) - 1
GRAPH6_CHARS = bytes(range(63, 127))


def _body_length(n: int) -> int:
    """Bytes of the graph6 data section: one bit per vertex pair, six bits per byte."""
    return (n * (n - 1) // 2 + 5) // 6


def _pair_index(n: int) -> tuple:
    """The pairs i < j in row-major order, as (rows, cols), and each pair's bit in graph6's column order."""
    rows, cols = np.triu_indices(n, 1)
    index = rows, cols, cols * (cols - 1) // 2 + rows
    for a in index:
        a.flags.writeable = False
    return index


# Memoised for short-form sizes only: 63 entries at most, so long-form input
# keeps no index once parsed.
_short_pair_index = lru_cache(maxsize=None)(_pair_index)


def parse_graph6(data) -> Graph:
    """Decode one graph6 line: short form (n <= 62) or 18-bit long form ('~', n <= 258047).

    Accepts bytes or an ASCII str, with an optional '>>graph6<<' prefix. The
    36-bit form ('~~') is rejected. A str's first non-ASCII character is a
    defect at its character offset.
    """
    if isinstance(data, str):
        try:
            data = data.encode("ascii")
        except UnicodeEncodeError as exc:
            raise Graph6ParseError(f"non-ASCII character {data[exc.start]!r}", exc.start) from None
    data = data.strip()
    if data.startswith(b">>graph6<<"):
        data = data[len(b">>graph6<<"):]
    if not data:
        raise Graph6ParseError("empty graph6 input", 0)
    stray = data.translate(None, GRAPH6_CHARS)
    if stray:
        raise Graph6ParseError(
            f"character {stray[0]!r} outside graph6 range [63, 126]", data.index(stray[0])
        )
    if data[0] != 126:
        n, header = data[0] - 63, 1
    elif data[1:2] == b"~":
        raise Graph6ParseError("36-bit graph6 size '~~' (n > 258047) is not supported", 0)
    elif len(data) < 4:
        raise Graph6ParseError("long-form graph6 size '~' needs 3 more bytes", len(data))
    else:
        n = ((data[1] - 63) << 12) | ((data[2] - 63) << 6) | (data[3] - 63)
        header = 4
    need = _body_length(n)
    body = np.frombuffer(data, dtype=np.uint8, offset=header) - 63
    if len(body) < need:
        raise Graph6ParseError(f"data section too short: need {need} bytes, got {len(body)}", len(data))
    if len(body) > need:
        raise Graph6ParseError("trailing garbage after graph6 data", header + need)
    # six bits per byte, high bit first, over the pairs i < j column by column
    bits = np.unpackbits(body[:, None], axis=1)[:, 2:].ravel().view(bool)
    rows, cols, position = (_short_pair_index if n <= SHORT_FORM_MAX_N else _pair_index)(n)
    hit = bits[position]
    return Graph._from_index(n, rows[hit], cols[hit])


def encode_graph6(g: Graph) -> bytes:
    """Inverse of parse_graph6: short form for n <= 62, 18-bit long form above."""
    if g.n > LONG_FORM_MAX_N:
        raise ValueError(f"graph6 without the 36-bit form supports n <= {LONG_FORM_MAX_N} only")
    if g.n <= SHORT_FORM_MAX_N:
        header = [g.n + 63]
    else:
        header = [126] + [((g.n >> shift) & 63) + 63 for shift in (12, 6, 0)]
    bits = np.zeros(6 * _body_length(g.n), dtype=np.uint8)
    bits[g.cols * (g.cols - 1) // 2 + g.rows] = 1    # pair (i, j) in column order
    body = (np.packbits(bits.reshape(-1, 6), axis=1)[:, 0] >> 2) + 63
    return bytes(header) + body.tobytes()


def parse_edge_list(text: str) -> Graph:
    """Parse 'n' followed by whitespace-separated 'i j' pairs; duplicates collapse."""
    tokens = text.split()
    if not tokens:
        raise ValueError("empty edge-list input")
    try:
        n = int(tokens[0])
    except ValueError:
        raise ValueError(f"vertex count is not an integer: {tokens[0]!r}") from None
    rest = tokens[1:]
    if len(rest) % 2:
        raise ValueError("odd number of endpoint tokens")
    pairs = []
    for a, b in zip(rest[::2], rest[1::2]):
        try:
            pairs.append((int(a), int(b)))
        except ValueError:
            raise ValueError(f"non-integer endpoint: {a!r} {b!r}") from None
    return Graph(n, pairs)


# Fixed edge list of the 10-vertex, 18-edge Golomb graph: a hexagonal wheel
# (rim 1-2-6-5-7-3-1, hub 4) with an outer triangle {0, 8, 9} attached to
# alternating rim vertices.
GOLOMB_EDGES = (
    (0, 8), (0, 9), (8, 9),
    (0, 1), (6, 8), (7, 9),
    (1, 4), (2, 4), (3, 4), (4, 5), (4, 6), (4, 7),
    (1, 2), (1, 3), (2, 6), (3, 7), (5, 6), (5, 7),
)


def _gen_empty(n: int) -> Graph:
    return Graph(n)


def _gen_complete(n: int) -> Graph:
    return Graph(n, frozenset(combinations(range(n), 2)))


def _gen_cycle(n: int) -> Graph:
    if n < 3:
        raise ValueError(f"cycle needs n >= 3, got {n}")
    return Graph(n, frozenset((i, (i + 1) % n) for i in range(n)))


def _gen_path(n: int) -> Graph:
    if n < 1:
        raise ValueError(f"path needs n >= 1, got {n}")
    return Graph(n, frozenset((i, i + 1) for i in range(n - 1)))


def _gen_petersen() -> Graph:
    outer = [(i, (i + 1) % 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    return Graph(10, frozenset(outer + inner + spokes))


def _gen_golomb() -> Graph:
    return Graph(10, frozenset(GOLOMB_EDGES))


def _gen_kneser(n: int, k: int) -> Graph:
    if not (1 <= k <= n):
        raise ValueError(f"kneser needs 1 <= k <= n, got n={n}, k={k}")
    subsets = [frozenset(c) for c in combinations(range(n), k)]
    edges = {
        (a, b)
        for a, b in combinations(range(len(subsets)), 2)
        if not (subsets[a] & subsets[b])
    }
    return Graph(len(subsets), frozenset(edges))


# name -> (generator, the parameters it takes, in call order)
_FAMILIES = {
    "empty": (_gen_empty, "n"), "complete": (_gen_complete, "n"), "cycle": (_gen_cycle, "n"),
    "path": (_gen_path, "n"), "petersen": (_gen_petersen, ""), "golomb": (_gen_golomb, ""),
    "kneser": (_gen_kneser, "nk"),
}
NAMED_GRAPHS = tuple(_FAMILIES)


def generate_named(name: str, n: int = None, k: int = None) -> Graph:
    """Build a canonical labeled instance of a named graph family from the parameters it takes.

    A parameter the family takes but is not given, or is given but does not take, is a ValueError.
    """
    if name not in _FAMILIES:
        raise ValueError(f"unknown graph name {name!r}; expected one of {NAMED_GRAPHS}")
    gen, takes = _FAMILIES[name]
    given = {"n": n, "k": k}
    for param, value in given.items():
        if value is None and param in takes:
            raise ValueError(f"{name} needs parameter {param}")
        if value is not None and param not in takes:
            raise ValueError(f"{name} takes no parameter {param}")
    return gen(*(given[p] for p in takes))


def adjacency(g: Graph, weights=1.0) -> np.ndarray:
    """Symmetric zero-diagonal matrix with `weights` on g's edges in edge-index order; 0/1 by default."""
    a = np.zeros((g.n, g.n))
    a[g.rows, g.cols] = weights
    a[g.cols, g.rows] = weights
    return a


def strong_product(g: Graph, h: Graph) -> Graph:
    """Strong product with pair (i, j) labeled i * h.n + j.

    Its edges are the nonzeros above the diagonal of kron(A_g + I, A_h + I).
    """
    closed = np.kron(adjacency(g) + np.eye(g.n), adjacency(h) + np.eye(h.n))
    return Graph(g.n * h.n, np.argwhere(np.triu(closed, 1)))
