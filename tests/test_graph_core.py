import numpy as np
import pytest

from qg2p.graph_core import BoundaryIndexMap, GraphError, build_graph

# The boundary layouts written down here by hand, apart from the code:
# one-particle position end E + e is the end (0: x = 0, 1: x = l) of edge
# e; the two-particle sides of rectangle D_{e1 e2} are x = 0, x = l_{e1},
# y = 0, y = l_{e2}.
X0, XL, Y0, YL = 0, 1, 2, 3


def position(E, pair, side):
    """Two-particle position of a side of rectangle ``pair``: x-sides in
    the upper half, lexicographic in (e1, e2); y-sides in the lower half,
    ordered in (e2, e1), so that the exchange swaps the halves."""
    e1, e2 = pair
    if side in (X0, XL):
        return (side - X0) * E * E + e1 * E + e2
    return 2 * E * E + (side - Y0) * E * E + e2 * E + e1


def component(E, pos):
    """(pair, side, boundary edge, boundary end, running edge) of a
    two-particle position: the inverse of ``position``."""
    for e1 in range(E):
        for e2 in range(E):
            for side in (X0, XL, Y0, YL):
                if position(E, (e1, e2), side) == pos:
                    s = side % 2
                    if side in (X0, XL):
                        return (e1, e2), side, e1, s, e2
                    return (e1, e2), side, e2, s, e1
    raise ValueError(pos)


def end_vertex(g, e, end):
    return g.edges[e].init if end == 0 else g.edges[e].fin


def test_build_infers_vertices(two_edges):
    assert two_edges.V == 3
    assert two_edges.E == 2
    assert two_edges.total_length == pytest.approx(2.5)


def test_explicit_vertices_catch_dangling_reference():
    with pytest.raises(GraphError, match="unknown vertex"):
        build_graph({"vertices": ["a", "b"],
                     "edges": [["a", "b", 1.0], ["b", "zz", 1.0]]})


def test_nonpositive_length_rejected():
    with pytest.raises(GraphError, match="length"):
        build_graph({"edges": [["a", "b", 0.0]]})
    with pytest.raises(GraphError):
        build_graph({"edges": [["a", "b", -2.0]]})


def test_empty_graph_rejected():
    with pytest.raises(GraphError):
        build_graph({"edges": []})


def degree(g, v):
    """Edge ends at vertex v."""
    return sum((e.init == v) + (e.fin == v) for e in g.edges)


def test_degree_sum_is_2E(star3, two_edges):
    for g in (star3, two_edges):
        assert sum(degree(g, v) for v in range(g.V)) == 2 * g.E


def test_loop_contributes_degree_two():
    g = build_graph({"edges": [["a", "a", 1.0]]})
    assert degree(g, 0) == 2


def test_single_edge_index_counts(interval):
    idx = BoundaryIndexMap(interval)
    assert sorted(idx.vertex) == [0, 1]
    assert idx.dim_full == 4
    for a in (idx.half, idx.end_pos, idx.running_edge):
        assert len(a) == 4
    assert sorted(position(1, (0, 0), side)
                  for side in (X0, XL, Y0, YL)) == [0, 1, 2, 3]


def test_star_vertex_blocks(star3):
    idx = BoundaryIndexMap(star3)
    blocks = {v: set(np.flatnonzero(idx.vertex == v)) for v in range(star3.V)}
    assert sorted(len(b) for b in blocks.values()) == [1, 1, 1, 3]
    # the center block holds the three initial ends, at positions 0 E + e
    assert blocks[0] == {0, 1, 2}
    for pos in range(2 * star3.E):
        assert idx.vertex[pos] == end_vertex(star3, pos % 3, pos // 3)


def test_two_particle_layout_two_edges(two_edges):
    idx = BoundaryIndexMap(two_edges)
    E = 2
    pos = {(pair, side): position(E, pair, side) for pair in
           ((0, 0), (0, 1), (1, 0), (1, 1)) for side in (X0, XL, Y0, YL)}
    assert idx.dim_full == 16
    # upper half = first-variable sides, x-blocks lexicographic in (e1, e2)
    assert pos[((0, 0), X0)] == 0
    assert pos[((0, 1), X0)] == 1
    assert pos[((1, 1), XL)] == 7
    # lower half = second-variable sides, ordered in (e2, e1)
    assert pos[((0, 0), Y0)] == 8
    assert pos[((1, 0), Y0)] == 9
    assert pos[((0, 1), Y0)] == 10
    # bijection over all 16 positions
    assert sorted(pos.values()) == list(range(16))
    for ((e1, e2), side), p in pos.items():
        x_side = side in (X0, XL)
        assert idx.half[p] == (0 if x_side else 1)
        assert idx.end_pos[p] == (side % 2) * E + (e1 if x_side else e2)
        assert idx.running_edge[p] == (e2 if x_side else e1)


def test_component_roundtrip(two_edges):
    idx = BoundaryIndexMap(two_edges)
    for p in range(idx.dim_full):
        pair, side, edge, end, run = component(2, p)
        assert position(2, pair, side) == p
        assert idx.end_pos[p] == end * 2 + edge
        assert idx.vertex[idx.end_pos[p]] == end_vertex(two_edges, edge, end)
        assert idx.running_edge[p] == run


def test_exchange_swaps_halves_and_preserves_running_edge(two_edges):
    idx = BoundaryIndexMap(two_edges)
    half = idx.dim_full // 2
    for p in range(idx.dim_full):
        q = (p + half) % idx.dim_full    # the exchanged particle's trace
        assert idx.half[p] != idx.half[q]
        assert idx.end_pos[p] == idx.end_pos[q]
        assert idx.running_edge[p] == idx.running_edge[q]
        # the exchange maps side x = s of D_{ab} to side y = s of D_{ba}
        (pair, side, *_), (pair_q, side_q, *_) = component(2, p), component(2, q)
        assert pair_q == pair[::-1] and side_q % 2 == side % 2


def test_total_length_invariant_under_reordering():
    g1 = build_graph({"edges": [["a", "b", 1.0], ["b", "c", 2.0]]})
    g2 = build_graph({"edges": [["b", "c", 2.0], ["a", "b", 1.0]]})
    assert g1.total_length == g2.total_length


def test_edges_connected(two_edges):
    assert two_edges.edges_connected(0, 1)
    g = build_graph({"edges": [["a", "b", 1.0], ["c", "d", 1.0]]})
    assert not g.edges_connected(0, 1)
    assert g.edges_connected(1, 1)
