from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from walktheta.graphs import (
    Graph,
    Graph6ParseError,
    adjacency,
    encode_graph6,
    generate_named,
    laplacian,
    min_degree,
    parse_edge_list,
    parse_graph6,
    strong_product,
)


# --- graph6 ---

def test_parse_graph6_k1():
    g = parse_graph6(b"@")
    assert g.n == 1 and g.num_edges == 0


def test_parse_graph6_k2():
    g = parse_graph6(b"A_")
    assert g.n == 2 and g.edges == frozenset({(0, 1)})


def test_parse_graph6_star():
    # hand decode: 'D' -> n=5; bytes '?{' -> bits 000000 111100, upper
    # triangle column order, giving the 4 edges into vertex 4
    g = parse_graph6(b"D?{")
    assert g.n == 5
    assert g.edges == frozenset({(0, 4), (1, 4), (2, 4), (3, 4)})


def test_parse_graph6_cross_checked_against_networkx():
    nx = pytest.importorskip("networkx")
    for s in [b"@", b"A_", b"D?{", b"Dhc", b"I{O_wsUB_"]:
        ours = parse_graph6(s)
        theirs = nx.from_graph6_bytes(s)
        assert ours.n == theirs.number_of_nodes()
        assert ours.edges == frozenset(
            (min(u, v), max(u, v)) for u, v in theirs.edges()
        )


def test_parse_graph6_accepts_header_and_str():
    assert parse_graph6(">>graph6<<A_") == parse_graph6(b"A_")


def test_parse_graph6_errors_carry_offsets():
    with pytest.raises(Graph6ParseError):
        parse_graph6(b"")
    with pytest.raises(Graph6ParseError) as exc:
        parse_graph6(b"D?")  # needs 2 data bytes
    assert "short" in str(exc.value)
    with pytest.raises(Graph6ParseError) as exc:
        parse_graph6(b"D?{{")
    assert "trailing" in str(exc.value)
    with pytest.raises(Graph6ParseError) as exc:
        parse_graph6(b"D?\x1f")
    assert exc.value.offset == 2
    with pytest.raises(Graph6ParseError):
        parse_graph6(b"~??")  # long form with a truncated size


def long_form_graphs():
    c9 = generate_named("cycle", n=9)
    return [generate_named("kneser", n=12, k=2), strong_product(c9, c9)]


def test_graph6_long_form_matches_networkx():
    nx = pytest.importorskip("networkx")
    for g in long_form_graphs():
        theirs = nx.Graph()
        theirs.add_nodes_from(range(g.n))
        theirs.add_edges_from(sorted(g.edges))
        line = nx.to_graph6_bytes(theirs, header=False).strip()
        assert encode_graph6(g) == line
        assert parse_graph6(line) == g
        decoded = nx.from_graph6_bytes(encode_graph6(g))
        assert decoded.number_of_nodes() == g.n
        assert {(min(u, v), max(u, v)) for u, v in decoded.edges()} == g.edges


def test_graph6_long_form_errors():
    line = encode_graph6(long_form_graphs()[0])
    with pytest.raises(Graph6ParseError, match="short") as exc:
        parse_graph6(line[:-1])
    assert exc.value.offset == len(line) - 1
    with pytest.raises(Graph6ParseError, match="trailing") as exc:
        parse_graph6(line + b"?")
    assert exc.value.offset == len(line)
    with pytest.raises(Graph6ParseError, match="~~") as exc:
        parse_graph6(b"~~??A??")
    assert exc.value.offset == 0
    with pytest.raises(ValueError, match="36-bit"):
        encode_graph6(Graph(1 << 18))


def test_graph6_round_trip(corpus):
    for name, g in corpus:
        assert parse_graph6(encode_graph6(g)) == g, name


@st.composite
def vertex_pairs(draw, max_n=70):
    """(n, pairs): n in [0, max_n], pairs with reversed and repeated entries, sparse or dense."""
    n = draw(st.integers(0, max_n))
    if n < 2:
        return n, []
    pair = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(lambda p: p[0] != p[1])
    pairs = draw(st.lists(pair, max_size=3 * n))
    if draw(st.booleans()):
        # the complement, reversed: dense graphs fill whole graph6 bytes
        chosen = {(min(i, j), max(i, j)) for i, j in pairs}
        pairs = [(j, i) for j in range(n) for i in range(j) if (i, j) not in chosen]
    return n, pairs


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(vertex_pairs())
def test_graph6_round_trip_matches_networkx(case):
    nx = pytest.importorskip("networkx")
    n, pairs = case
    g = Graph(n, pairs)
    line = encode_graph6(g)
    assert parse_graph6(line) == g
    theirs = nx.from_graph6_bytes(line)
    assert theirs.number_of_nodes() == n
    assert {(min(u, v), max(u, v)) for u, v in theirs.edges()} == g.edges
    assert nx.to_graph6_bytes(theirs, header=False).strip() == line


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(vertex_pairs())
def test_graph_from_array_equals_graph_from_pairs(case):
    n, pairs = case
    canonical = Graph(n, frozenset((min(i, j), max(i, j)) for i, j in pairs))
    for g in (Graph(n, np.array(pairs, dtype=np.int64).reshape(-1, 2)), Graph(n, frozenset(pairs))):
        assert g == canonical and hash(g) == hash(canonical)
        assert list(zip(g.rows.tolist(), g.cols.tolist())) == sorted(canonical.edges)
        assert np.array_equal(g.degrees(), adjacency(g).sum(axis=1))


# --- edge lists ---

def test_parse_edge_list_path():
    assert parse_edge_list("3\n0 1\n1 2") == generate_named("path", n=3)


def test_parse_edge_list_collapses_duplicates():
    g = parse_edge_list("2\n0 1\n1 0")
    assert g.num_edges == 1


def test_parse_edge_list_errors():
    with pytest.raises(ValueError, match="self-loop"):
        parse_edge_list("4\n0 0")
    with pytest.raises(ValueError, match="outside"):
        parse_edge_list("2\n0 5")
    with pytest.raises(ValueError, match="integer"):
        parse_edge_list("2\n0 x")


# --- named generators ---

def test_generate_cycle():
    g = generate_named("cycle", n=5)
    assert g.n == 5 and g.num_edges == 5


def test_generate_golomb():
    g = generate_named("golomb")
    assert g.n == 10 and g.num_edges == 18
    assert max(g.degrees()) == 6
    assert min_degree(g) == 3


def test_generate_path17():
    g = generate_named("path", n=17)
    assert g.n == 17 and g.num_edges == 16


def test_generate_petersen_and_kneser():
    p = generate_named("petersen")
    k = generate_named("kneser", n=5, k=2)
    assert p.n == k.n == 10
    assert p.num_edges == k.num_edges == 15
    assert set(p.degrees()) == set(k.degrees()) == {3}


def test_generate_named_errors():
    with pytest.raises(ValueError, match="unknown"):
        generate_named("tree")
    with pytest.raises(ValueError):
        generate_named("cycle", n=2)
    with pytest.raises(ValueError):
        generate_named("kneser", n=3, k=5)
    with pytest.raises(ValueError, match="needs parameter"):
        generate_named("complete")


def test_graph_validation():
    with pytest.raises(ValueError, match="self-loop"):
        Graph(3, frozenset({(1, 1)}))
    with pytest.raises(ValueError, match="outside"):
        Graph(2, frozenset({(0, 3)}))
    # unordered pairs canonicalize
    assert Graph(3, frozenset({(2, 0)})).edges == frozenset({(0, 2)})


def test_graph_rejects_non_pairs():
    with pytest.raises(ValueError, match="pairs"):
        Graph(4, np.array([[0, 1, 2], [1, 2, 3]]))
    with pytest.raises(ValueError, match="pairs"):
        Graph(4, [(0, 1, 2), (1, 2, 3)])


# --- matrices ---

def test_adjacency_c5():
    a = adjacency(generate_named("cycle", n=5))
    assert np.array_equal(a, a.T)
    assert list(a.sum(axis=1)) == [2.0] * 5


def test_laplacian_c5():
    lap = laplacian(generate_named("cycle", n=5))
    assert list(np.diag(lap)) == [2.0] * 5
    assert list(lap @ np.ones(5)) == [0.0] * 5


def test_empty_graph_matrices():
    g = generate_named("empty", n=3)
    assert not adjacency(g).any()
    assert not laplacian(g).any()
    assert min_degree(g) == 0


def test_laplacian_annihilates_ones(corpus):
    for name, g in corpus:
        lap = laplacian(g)
        assert not (lap @ np.ones(g.n)).any(), name


# --- strong product ---

def test_strong_product_identity():
    h = generate_named("cycle", n=5)
    k1 = generate_named("empty", n=1)
    p = strong_product(k1, h)
    assert p.n == h.n and p.edges == h.edges


def test_strong_product_k2_k2_is_k4():
    p = strong_product(generate_named("complete", n=2), generate_named("complete", n=2))
    assert p == generate_named("complete", n=4)


def test_strong_product_c5_c5_degrees():
    p = strong_product(generate_named("cycle", n=5), generate_named("cycle", n=5))
    assert p.n == 25
    assert set(p.degrees()) == {8}


@pytest.mark.parametrize("na,nb", [("C5", "K2"), ("P3", "C4"), ("P5+iso", "star4"), ("golomb", "K1")])
def test_strong_product_matches_definition(corpus, na, nb):
    # reference: (i, j) ~ (i2, j2) when each coordinate is equal or adjacent, not both equal
    graphs = dict(corpus)
    g, h = graphs[na], graphs[nb]
    vertices = [(i, j) for i in range(g.n) for j in range(h.n)]
    close = lambda f, a, b: a == b or f.has_edge(a, b)
    expected = {
        (i * h.n + j, i2 * h.n + j2)
        for (i, j), (i2, j2) in combinations(vertices, 2)
        if close(g, i, i2) and close(h, j, j2)
    }
    assert strong_product(g, h).edges == expected


@pytest.mark.parametrize("na,nb", [("C5", "K2"), ("P3", "C4"), ("K1", "P5"), ("star4", "K3")])
def test_strong_product_kronecker_identity(corpus, na, nb):
    graphs = dict(corpus)
    g, h = graphs[na], graphs[nb]
    p = strong_product(g, h)
    ag, ah = adjacency(g), adjacency(h)
    expected = np.kron(ag + np.eye(g.n), ah + np.eye(h.n)) - np.eye(g.n * h.n)
    assert np.array_equal(adjacency(p), expected)
