import numpy as np
import pytest

from qg2p.graph_core import (X0, XL, Y0, YL, BoundaryIndexMap, GraphError,
                             build_graph)


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
    assert sorted(idx.one_particle.values()) == [0, 1]
    assert idx.dim_full == 4
    assert sorted(idx.two_particle.values()) == [0, 1, 2, 3]


def test_star_vertex_blocks(star3):
    idx = BoundaryIndexMap(star3)
    sizes = sorted(len(b) for b in idx.vertex_blocks.values())
    assert sizes == [1, 1, 1, 3]
    # the center block holds the three initial ends
    assert set(idx.vertex_blocks[0]) == {idx.op_pos(e, 0) for e in range(3)}


def test_two_particle_layout_two_edges(two_edges):
    idx = BoundaryIndexMap(two_edges)
    pos = idx.two_particle
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
    assert sorted(idx.two_particle.values()) == list(range(16))


def test_component_roundtrip(two_edges):
    idx = BoundaryIndexMap(two_edges)
    for key, pos in idx.two_particle.items():
        (e1, e2), side = key
        c = idx.component(pos)
        assert c.pair == (e1, e2)
        assert c.side == side
        if side in (X0, XL):
            assert c.boundary_edge == e1 and c.running_edge == e2
        else:
            assert c.boundary_edge == e2 and c.running_edge == e1


def test_exchange_swaps_halves_and_preserves_running_edge(two_edges):
    idx = BoundaryIndexMap(two_edges)
    half = idx.dim_full // 2
    for pos in range(idx.dim_full):
        q = (pos + half) % idx.dim_full    # the exchanged particle's trace
        a, b = idx.component(pos), idx.component(q)
        assert a.half != b.half
        assert a.reduced == b.reduced
        assert a.running_edge == b.running_edge


def test_total_length_invariant_under_reordering():
    g1 = build_graph({"edges": [["a", "b", 1.0], ["b", "c", 2.0]]})
    g2 = build_graph({"edges": [["b", "c", 2.0], ["a", "b", 1.0]]})
    assert g1.total_length == g2.total_length


def test_edges_connected(two_edges):
    assert two_edges.edges_connected(0, 1)
    g = build_graph({"edges": [["a", "b", 1.0], ["c", "d", 1.0]]})
    assert not g.edges_connected(0, 1)
    assert g.edges_connected(1, 1)
